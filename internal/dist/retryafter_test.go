package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/service"
)

// tenantTransport names its tenant on every request it carries.
type tenantTransport string

func (t tenantTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(service.TenantHeader, string(t))
	return http.DefaultTransport.RoundTrip(r)
}

// TestQuotaPushbackHonoredPerTenant runs the dist client against a real
// dirsimd service with a per-tenant quota of one: the quota'd tenant's
// client is told 429 + Retry-After and backs off exactly as told — every
// wait is the server's figure, none of them burn the transport retry
// budget — while another tenant's submission proceeds immediately.
func TestQuotaPushbackHonoredPerTenant(t *testing.T) {
	svc, err := service.New(service.Config{Quota: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	long := map[string]any{
		"schemes":   []string{"Dir0B"},
		"workloads": []map[string]any{{"name": "pops", "cpus": []int{8}, "refs": 2_000_000}},
	}
	distinct := map[string]any{
		"schemes":   []string{"Dir1NB"},
		"workloads": []map[string]any{{"name": "thor", "cpus": []int{4}, "refs": 4_000}},
	}

	// Tenant A's first sweep occupies its whole quota.
	regA := obs.NewRegistry()
	recA := &sleepRecorder{}
	clientA := &Client{
		Base:    srv.URL,
		HTTP:    &http.Client{Transport: tenantTransport("team-a")},
		Metrics: regA,
		// Record the server-indicated wait, then nap briefly so the test
		// doesn't run in real Retry-After seconds. The client gives up
		// after 32 waits, so 32 naps must outlast the 500 ms vigil below:
		// at 10 ms they did only while the long sweep kept both CPUs busy
		// enough to stretch every round trip past 5 ms.
		Sleep: func(d time.Duration) {
			recA.sleep(d)
			time.Sleep(20 * time.Millisecond)
		},
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := clientA.Do(context.Background(), http.MethodPost, "/api/v1/experiments", long, &sub); err != nil {
		t.Fatalf("first submit: %v", err)
	}

	// A second, distinct sweep from tenant A is over quota: the client
	// must wait out the 429s rather than hammer. Bound the vigil with a
	// context deadline — whether the long sweep frees the quota in time is
	// incidental; the discipline under pushback is what's under test.
	ctxA, cancelA := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancelA()
	errA := clientA.Do(ctxA, http.MethodPost, "/api/v1/experiments", distinct, nil)
	if errA != nil && ctxA.Err() == nil {
		t.Fatalf("quota'd submit failed outside pushback: %v", errA)
	}
	waits := recA.all()
	if len(waits) == 0 {
		t.Fatal("quota'd tenant was never pushed back")
	}
	for i, d := range waits {
		if d < time.Second {
			t.Errorf("wait %d = %v; shorter than any Retry-After the server issues (>= 1s)", i, d)
		}
	}
	if got := regA.Counter("dist.client.ratelimited").Value(); got != int64(len(waits)) {
		t.Errorf("ratelimited counter = %d, want %d (one per wait)", got, len(waits))
	}
	if got := regA.Counter("dist.client.retries").Value(); got != 0 {
		t.Errorf("pushback burned %d transport retries, want 0 — the backoff loop must not see 429s", got)
	}

	// Tenant B proceeds immediately while A is quota'd.
	regB := obs.NewRegistry()
	clientB := &Client{
		Base:    srv.URL,
		HTTP:    &http.Client{Transport: tenantTransport("team-b")},
		Metrics: regB,
		Sleep:   func(time.Duration) { t.Error("tenant B should not wait") },
	}
	other := map[string]any{
		"schemes":   []string{"Dir1NB"},
		"workloads": []map[string]any{{"name": "pero", "cpus": []int{4}, "refs": 4_000}},
	}
	if err := clientB.Do(context.Background(), http.MethodPost, "/api/v1/experiments", other, nil); err != nil {
		t.Fatalf("other tenant's submit blocked: %v", err)
	}
	if got := regB.Counter("dist.client.ratelimited").Value(); got != 0 {
		t.Errorf("tenant B rate-limited %d times, want 0", got)
	}
}
