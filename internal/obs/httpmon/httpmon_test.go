package httpmon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dirsim/internal/obs"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9][0-9.eE+-]*|[+-]Inf|NaN)$`)
)

// lintPrometheus validates the text exposition format the way promtool's
// check would: every line is a well-formed comment or sample, metric
// names are legal, each family has exactly one TYPE declaration
// appearing before its samples, and histogram bucket series are
// cumulative and end at le="+Inf" with matching _count.
func lintPrometheus(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	familyOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				return base
			}
		}
		return name
	}
	bucketCum := map[string][]int64{}
	bucketInf := map[string]int64{}
	counts := map[string]int64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment: %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			if !metricName.MatchString(name) {
				t.Fatalf("line %d: illegal metric name %q", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		fam := familyOf(name)
		if _, ok := typed[fam]; !ok {
			t.Fatalf("line %d: sample %q before its TYPE declaration", ln+1, name)
		}
		if typed[fam] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `{le="`), `"}`)
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("line %d: bucket value %q: %v", ln+1, value, err)
			}
			if le == "+Inf" {
				bucketInf[fam] = v
			} else {
				if prev := bucketCum[fam]; len(prev) > 0 && v < prev[len(prev)-1] {
					t.Fatalf("line %d: bucket series for %s not cumulative", ln+1, fam)
				}
				bucketCum[fam] = append(bucketCum[fam], v)
			}
		}
		if typed[fam] == "histogram" && strings.HasSuffix(name, "_count") {
			v, _ := strconv.ParseInt(value, 10, 64)
			counts[fam] = v
		}
	}
	for fam, typ := range typed {
		if typ != "histogram" {
			continue
		}
		inf, ok := bucketInf[fam]
		if !ok {
			t.Fatalf("histogram %s has no le=\"+Inf\" bucket", fam)
		}
		if inf != counts[fam] {
			t.Fatalf("histogram %s: +Inf bucket %d != _count %d", fam, inf, counts[fam])
		}
		if cum := bucketCum[fam]; len(cum) > 0 && cum[len(cum)-1] > inf {
			t.Fatalf("histogram %s: finite buckets exceed +Inf", fam)
		}
	}
}

func TestMetricsEndpointPassesPrometheusLint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("engine.jobs.run").Add(12)
	reg.Gauge("engine.pool.occupancy").Set(3)
	h := reg.Histogram("sim.proto.dir0b.invals_clean_write", obs.InvalBuckets)
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)
	srv := startTestServer(t, Options{Metrics: reg})

	body, resp := get(t, "http://"+srv.Addr()+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	lintPrometheus(t, body)
	for _, want := range []string{
		"# TYPE engine_jobs_run counter",
		"engine_jobs_run 12",
		"# TYPE sim_proto_dir0b_invals_clean_write histogram",
		`sim_proto_dir0b_invals_clean_write_bucket{le="1"} 2`,
		`sim_proto_dir0b_invals_clean_write_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestRunzEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("engine.cache.hits").Add(3)
	reg.Counter("engine.cache.misses").Add(1)
	reg.Counter("engine.refs.simulated").Add(1_000_000)
	start := time.Now()
	var rec obs.Record
	jnl := obs.NewJournal(&rec)
	jnl.Event("experiment.start", "name", "exp1", "title", "Table 4")
	jnl.Event("experiment.finish", "name", "exp1", "dur_us", 1200)
	jnl.Event("experiment.start", "name", "exp2", "title", "Figure 1")
	jnl.Error("experiment.finish", fmt.Errorf("boom"), "name", "exp2", "dur_us", 800)
	jnl.Event("experiment.start", "name", "exp3", "title", "Figure 2")
	srv := startTestServer(t, Options{Metrics: reg, Runz: func() obs.RunReport { return obs.Report(&rec, reg, start) }})

	body, resp := get(t, "http://"+srv.Addr()+"/runz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runz status %d", resp.StatusCode)
	}
	var rep obs.RunReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/runz is not valid JSON: %v\n%s", err, body)
	}
	if rep.Schema != obs.SchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, obs.SchemaVersion)
	}
	if rep.CacheHitRatio != 0.75 {
		t.Errorf("cache hit ratio = %g, want 0.75", rep.CacheHitRatio)
	}
	if rep.Counters["engine.refs.simulated"] != 1_000_000 || rep.RefsPerSec <= 0 {
		t.Errorf("refs = %d at %g/s", rep.Counters["engine.refs.simulated"], rep.RefsPerSec)
	}
	var states []string
	for _, e := range rep.Experiments {
		states = append(states, e.State)
	}
	if len(rep.Experiments) != 3 || rep.Experiments[1].Error != "boom" ||
		strings.Join(states, ",") != "done,failed,running" {
		t.Errorf("experiments: %+v", rep.Experiments)
	}
}

// TestShutdownDrainsInFlight: where Close interrupts running handlers,
// Shutdown must let them finish and deliver their full responses — the
// contract dirsimd's SIGTERM path relies on.
func TestShutdownDrainsInFlight(t *testing.T) {
	mux := NewMux(Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "drained")
	})
	srv, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{body: string(body), err: err}
	}()
	<-entered

	// Shutdown runs its hooks once it has closed the listeners.
	draining := make(chan struct{})
	srv.srv.RegisterOnShutdown(func() { close(draining) })
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New connections are refused once drain begins, while the in-flight
	// request is still being served.
	<-draining
	if _, err := http.Get("http://" + srv.Addr() + "/"); err == nil {
		t.Error("a new request was served after Shutdown began")
	}
	close(release)

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request aborted by Shutdown: %v", r.err)
	}
	if r.body != "drained" {
		t.Errorf("in-flight response = %q, want %q", r.body, "drained")
	}
}

func TestIndexListsExtraEndpoints(t *testing.T) {
	srv := startTestServer(t, Options{Index: map[string]string{
		"/api/v1/experiments": "experiment service",
	}})
	body, resp := get(t, "http://"+srv.Addr()+"/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/api/v1/experiments") {
		t.Errorf("index (status %d) does not list extra endpoint:\n%s", resp.StatusCode, body)
	}
}

func TestPprofAndIndexEndpoints(t *testing.T) {
	srv := startTestServer(t, Options{})
	if body, resp := get(t, "http://"+srv.Addr()+"/debug/pprof/"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
	if body, resp := get(t, "http://"+srv.Addr()+"/"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "/runz") {
		t.Errorf("index status %d", resp.StatusCode)
	}
	if _, resp := get(t, "http://"+srv.Addr()+"/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
}
