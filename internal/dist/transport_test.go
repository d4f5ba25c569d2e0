package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsim/internal/faults"
)

// echoServer records every request body it receives and echoes it back.
type echoServer struct {
	mu     sync.Mutex
	bodies [][]byte
	srv    *httptest.Server
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	e := &echoServer{}
	e.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		e.mu.Lock()
		e.bodies = append(e.bodies, body)
		e.mu.Unlock()
		w.Write(body)
	}))
	t.Cleanup(e.srv.Close)
	return e
}

func (e *echoServer) seen() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]byte(nil), e.bodies...)
}

func post(t *testing.T, ft *FaultTransport, url string, body []byte) ([]byte, error) {
	t.Helper()
	client := &http.Client{Transport: ft}
	resp, err := client.Post(url+"/api/v1/dist/result", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestFaultTransportDeterminism: the same seed produces the same fault
// schedule — outcome by outcome — over an identical request sequence,
// because every decision is a pure function of seed × site × counter.
func TestFaultTransportDeterminism(t *testing.T) {
	cfg := faults.Config{Seed: 7, Drop: 0.2, DropReply: 0.15, Duplicate: 0.15,
		WireCorrupt: 0.2, Disconnect: 0.1}
	run := func() ([]string, map[string]int64) {
		e := newEchoServer(t)
		ft := NewFaultTransport("w1", faults.New(cfg), nil)
		var outcomes []string
		for i := 0; i < 60; i++ {
			body := []byte(fmt.Sprintf(`{"n":%d,"pad":"0123456789abcdef"}`, i))
			got, err := post(t, ft, e.srv.URL, body)
			switch {
			case err != nil:
				outcomes = append(outcomes, "err")
			case !bytes.Equal(got, body):
				outcomes = append(outcomes, "mangled")
			default:
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes, ft.Fired()
	}
	o1, f1 := run()
	o2, f2 := run()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d diverged across same-seed runs: %q vs %q", i, o1[i], o2[i])
		}
	}
	if len(f1) == 0 {
		t.Fatal("no faults fired over 60 messages at these probabilities")
	}
	for k, v := range f1 {
		if f2[k] != v {
			t.Errorf("fired[%q] = %d vs %d across same-seed runs", k, v, f2[k])
		}
	}
}

// TestFaultTransportDrop: a dropped request never reaches the server and
// the client sees an injected transport error.
func TestFaultTransportDrop(t *testing.T) {
	e := newEchoServer(t)
	ft := NewFaultTransport("w1", faults.New(faults.Config{Seed: 1, Drop: 1}), nil)
	_, err := post(t, ft, e.srv.URL, []byte(`{"x":1}`))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("want injected drop error, got %v", err)
	}
	if n := len(e.seen()); n != 0 {
		t.Fatalf("dropped request reached the server %d times", n)
	}
}

// TestFaultTransportDropReply: the request is delivered (side effects
// happen) but the client still sees a transport error — the
// cannot-tell-if-it-acted case idempotent pushes exist for.
func TestFaultTransportDropReply(t *testing.T) {
	e := newEchoServer(t)
	ft := NewFaultTransport("w1", faults.New(faults.Config{Seed: 1, DropReply: 1}), nil)
	_, err := post(t, ft, e.srv.URL, []byte(`{"x":1}`))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("want injected reply-drop error, got %v", err)
	}
	if n := len(e.seen()); n != 1 {
		t.Fatalf("server saw %d deliveries, want exactly 1", n)
	}
}

// TestFaultTransportDuplicate: the server sees the request twice and the
// client still gets a response.
func TestFaultTransportDuplicate(t *testing.T) {
	e := newEchoServer(t)
	ft := NewFaultTransport("w1", faults.New(faults.Config{Seed: 1, Duplicate: 1}), nil)
	body := []byte(`{"x":1}`)
	got, err := post(t, ft, e.srv.URL, body)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("duplicate delivery broke the reply: %v %q", err, got)
	}
	seen := e.seen()
	if len(seen) != 2 || !bytes.Equal(seen[0], seen[1]) {
		t.Fatalf("server saw %d deliveries, want 2 identical", len(seen))
	}
}

// TestFaultTransportCorrupt: with corruption certain, exactly one byte of
// the message is flipped — on the request side (the server receives
// mangled bytes) or the response side (the client does), never both.
func TestFaultTransportCorrupt(t *testing.T) {
	e := newEchoServer(t)
	ft := NewFaultTransport("w1", faults.New(faults.Config{Seed: 3, WireCorrupt: 1}), nil)
	for i := 0; i < 8; i++ {
		body := []byte(fmt.Sprintf(`{"n":%d,"pad":"0123456789"}`, i))
		got, err := post(t, ft, e.srv.URL, body)
		if err != nil {
			t.Fatalf("corruption must mangle, not fail transport: %v", err)
		}
		served := e.seen()[i]
		reqMangled := !bytes.Equal(served, body)
		respMangled := !bytes.Equal(got, served)
		if reqMangled == respMangled {
			t.Fatalf("message %d: request mangled=%v response mangled=%v, want exactly one side",
				i, reqMangled, respMangled)
		}
		mangled, clean := got, served
		if reqMangled {
			mangled, clean = served, body
		}
		diff := 0
		for j := range clean {
			if mangled[j] != clean[j] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("message %d: %d bytes differ, want exactly 1", i, diff)
		}
	}
}

// TestFaultTransportDisconnect: the response body is cut mid-stream —
// the reader gets a strict prefix and then an injected error, not EOF.
func TestFaultTransportDisconnect(t *testing.T) {
	e := newEchoServer(t)
	ft := NewFaultTransport("w1", faults.New(faults.Config{Seed: 1, Disconnect: 1}), nil)
	body := bytes.Repeat([]byte("0123456789"), 50)
	got, err := post(t, ft, e.srv.URL, body)
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("want injected disconnect while reading, got err=%v", err)
	}
	if len(got) >= len(body) || !bytes.HasPrefix(body, got) {
		t.Fatalf("disconnect delivered %d bytes (of %d), want a strict prefix", len(got), len(body))
	}
}

// TestFaultTransportPartition: a partitioned window fails every message
// in it before sending; the window boundary heals deterministically.
func TestFaultTransportPartition(t *testing.T) {
	e := newEchoServer(t)
	inj := faults.New(faults.Config{Seed: 5, Partition: 0.5, PartitionWindow: 4})
	ft := NewFaultTransport("w1", inj, nil)
	var failed, passed int
	for i := 0; i < 40; i++ {
		_, err := post(t, ft, e.srv.URL, []byte(`{}`))
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("message %d: non-injected failure: %v", i, err)
			}
			failed++
		} else {
			passed++
		}
	}
	if failed == 0 || passed == 0 {
		t.Fatalf("partition at 0.5 over 10 windows: %d failed, %d passed — want both", failed, passed)
	}
	if failed%4 != 0 {
		t.Errorf("failed = %d, want a multiple of the window (4)", failed)
	}
}

// TestFaultTransportDelay: injected latency calls the sleep hook with the
// configured duration and still delivers the message.
func TestFaultTransportDelay(t *testing.T) {
	e := newEchoServer(t)
	inj := faults.New(faults.Config{Seed: 1, WireDelay: 1, WireDelayDur: 25 * time.Millisecond})
	ft := NewFaultTransport("w1", inj, nil)
	var slept atomic.Int64
	ft.Sleep = func(d time.Duration) { slept.Add(int64(d)) }
	body := []byte(`{"x":1}`)
	got, err := post(t, ft, e.srv.URL, body)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("delayed message not delivered: %v %q", err, got)
	}
	if time.Duration(slept.Load()) != 25*time.Millisecond {
		t.Errorf("slept %v, want 25ms", time.Duration(slept.Load()))
	}
}

// TestFaultTransportPassthrough: a nil injector injects nothing.
func TestFaultTransportPassthrough(t *testing.T) {
	e := newEchoServer(t)
	ft := NewFaultTransport("w1", nil, nil)
	body := []byte(`{"x":1}`)
	got, err := post(t, ft, e.srv.URL, body)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("passthrough broke the round trip: %v %q", err, got)
	}
	if len(ft.Fired()) != 0 {
		t.Errorf("faults fired with a nil injector: %v", ft.Fired())
	}
}
