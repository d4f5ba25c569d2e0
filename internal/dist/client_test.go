package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/obs"
)

// sleepRecorder captures every sleep a client takes instead of waiting.
type sleepRecorder struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (s *sleepRecorder) sleep(d time.Duration) {
	s.mu.Lock()
	s.sleeps = append(s.sleeps, d)
	s.mu.Unlock()
}

func (s *sleepRecorder) all() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.sleeps...)
}

// TestClientHonorsRetryAfter is the admission-pushback discipline: a 429
// carrying Retry-After waits exactly what the server asked — counted as a
// rate-limit wait, not a transport retry — instead of hammering the
// exponential backoff loop.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"tenant quota exceeded"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	reg := obs.NewRegistry()
	c := &Client{Base: srv.URL, Metrics: reg, Sleep: rec.sleep}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.Do(context.Background(), http.MethodPost, "/x", struct{}{}, &out); err != nil || !out.OK {
		t.Fatalf("Do = %v (ok=%v)", err, out.OK)
	}
	sleeps := rec.all()
	if len(sleeps) != 2 || sleeps[0] != 2*time.Second || sleeps[1] != 2*time.Second {
		t.Fatalf("sleeps = %v, want exactly [2s 2s] from Retry-After", sleeps)
	}
	if got := reg.Counter("dist.client.ratelimited").Value(); got != 2 {
		t.Errorf("ratelimited counter = %d, want 2", got)
	}
	if got := reg.Counter("dist.client.retries").Value(); got != 0 {
		t.Errorf("pushback burned %d transport retries, want 0", got)
	}
}

// TestClientRetryAfterSeparateBudget: server pushback does not consume
// the transport retry budget — a client outlasts more 503 waits than it
// has transport retries.
func TestClientRetryAfterSeparateBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 6 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	reg := obs.NewRegistry()
	c := &Client{Base: srv.URL, Metrics: reg, Sleep: rec.sleep}
	if err := c.Do(context.Background(), http.MethodGet, "/x", nil, nil); err != nil {
		t.Fatalf("Do = %v, want success after pushback clears", err)
	}
	if n := len(rec.all()); n != 6 || n <= clientRetries {
		t.Errorf("took %d waits, want 6, more than the %d transport retries", n, clientRetries)
	}
	if got := reg.Counter("dist.client.retries").Value(); got != 0 {
		t.Errorf("pushback burned %d transport retries, want 0", got)
	}
}

// TestClientRetryAfterCapped: an absurd Retry-After is clamped to
// maxRetryAfter rather than parking the worker for an hour.
func TestClientRetryAfterCapped(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := &Client{Base: srv.URL, Sleep: rec.sleep}
	if err := c.Do(context.Background(), http.MethodGet, "/x", nil, nil); err != nil {
		t.Fatal(err)
	}
	if sleeps := rec.all(); len(sleeps) != 1 || sleeps[0] != 30*time.Second {
		t.Errorf("sleeps = %v, want [30s] (capped)", sleeps)
	}
}

// TestClientTransportBackoff: 5xx failures retry with exponential,
// jittered backoff on the transport budget.
func TestClientTransportBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	reg := obs.NewRegistry()
	c := &Client{Base: srv.URL, Metrics: reg, Sleep: rec.sleep}
	if err := c.Do(context.Background(), http.MethodGet, "/x", nil, nil); err != nil {
		t.Fatal(err)
	}
	sleeps := rec.all()
	if len(sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2 backoffs", sleeps)
	}
	// Jitter adds up to 25%; the 25ms base doubles.
	if sleeps[0] < 25*time.Millisecond || sleeps[0] > 31250*time.Microsecond {
		t.Errorf("first backoff %v outside [25ms, 31.25ms]", sleeps[0])
	}
	if sleeps[1] < 50*time.Millisecond || sleeps[1] > 62500*time.Microsecond {
		t.Errorf("second backoff %v outside [50ms, 62.5ms]", sleeps[1])
	}
	if got := reg.Counter("dist.client.retries").Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
}

// TestClientRetriesExhaust: a persistently failing server eventually
// surfaces the terminal error instead of retrying forever.
func TestClientRetriesExhaust(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := &Client{Base: srv.URL, Sleep: rec.sleep}
	err := c.Do(context.Background(), http.MethodGet, "/x", nil, nil)
	if !IsStatus(err, http.StatusInternalServerError) {
		t.Fatalf("err = %v, want terminal 500 StatusError", err)
	}
	if n := len(rec.all()); n != clientRetries {
		t.Errorf("backed off %d times, want %d", n, clientRetries)
	}
}

// TestClientTerminalStatus: a 4xx outcome (other than pushback) is
// terminal — no retries, a typed *StatusError for the caller to branch
// on.
func TestClientTerminalStatus(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"lease L9 is gone"}`, http.StatusGone)
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Sleep: func(time.Duration) {}}
	err := c.Do(context.Background(), http.MethodPost, "/x", struct{}{}, nil)
	if !IsStatus(err, http.StatusGone) {
		t.Fatalf("err = %v, want 410 StatusError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("4xx retried: %d calls", calls.Load())
	}
}

// TestClientCorruptResponseRetries: undecodable 2xx bytes (a payload
// mangled in flight) are a transport-class failure — retried, and
// recovered when the next delivery is clean.
func TestClientCorruptResponseRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Write([]byte(`{"ok":tru`)) // mangled
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	c := &Client{Base: srv.URL, Sleep: rec.sleep}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.Do(context.Background(), http.MethodGet, "/x", nil, &out); err != nil || !out.OK {
		t.Fatalf("Do = %v (ok=%v), want recovery on retry", err, out.OK)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
}

// TestClientTracePropagation: the caller's trace context rides
// X-Dirsim-Trace on every request, including retries.
func TestClientTracePropagation(t *testing.T) {
	var traces []string
	var mu sync.Mutex
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traces = append(traces, r.Header.Get("X-Dirsim-Trace"))
		mu.Unlock()
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Sleep: func(time.Duration) {}}
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{Trace: "feedfacecafe0001"})
	if err := c.Do(ctx, http.MethodGet, "/x", nil, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(traces))
	}
	for i, tr := range traces {
		if tr != "feedfacecafe0001" {
			t.Errorf("request %d trace header = %q, want feedfacecafe0001", i, tr)
		}
	}
}
