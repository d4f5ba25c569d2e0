package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles dirsimd once per test binary into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dirsimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// server wraps one running dirsimd process.
type server struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
	done chan error
}

var listenLine = regexp.MustCompile(`dirsimd: listening on (\S+)`)

// startServer launches dirsimd with args and waits for its listen line.
func startServer(t *testing.T, bin string, args ...string) *server {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{t: t, cmd: cmd, done: make(chan error, 1)}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { s.done <- cmd.Wait() }()

	select {
	case s.addr = <-addrCh:
	case err := <-s.done:
		t.Fatalf("dirsimd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("dirsimd did not report a listen address")
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			<-s.done
		}
	})
	return s
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// terminate sends SIGTERM and asserts a clean exit.
func (s *server) terminate() {
	s.t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-s.done:
		if err != nil {
			s.t.Errorf("dirsimd exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		s.t.Fatal("dirsimd did not exit after SIGTERM")
	}
}

const sweep = `{
  "schemes": ["Dir0B", "Dir1NB", "Dir4B"],
  "workloads": [{"name": "pops", "cpus": [4], "refs": 5000}]
}`

// submit POSTs the sweep and returns the experiment ID.
func submit(t *testing.T, s *server, tenant string) string {
	t.Helper()
	req, err := http.NewRequest("POST", s.url("/api/v1/experiments"), strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant-ID", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
		t.Fatalf("submit: status %d, decode err %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	return st.ID
}

// fetchDone polls the experiment until terminal and returns the raw
// results JSON (for bit-identity comparison) after asserting success.
func fetchDone(t *testing.T, s *server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.url("/api/v1/experiments/" + id))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		var st struct {
			State   string          `json:"state"`
			Error   string          `json:"error"`
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatalf("status decode: %v\n%s", err, buf.Bytes())
		}
		switch st.State {
		case "done":
			return st.Results
		case "failed", "aborted":
			t.Fatalf("experiment %s: %s (%s)", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("experiment %s stuck in %q", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricValue scrapes one exact metric from /metrics.
func metricValue(t *testing.T, s *server, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(s.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			return v, true
		}
	}
	return 0, false
}

// TestTwoProcessesShareOneStore is the end-to-end acceptance test: a
// sweep computed by the first dirsimd process is served by a second
// process from the shared store directory — fingerprint-validated from
// disk, bit-identical, zero simulations — and both drain cleanly on
// SIGTERM.
func TestTwoProcessesShareOneStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildBinary(t)
	storeDir := filepath.Join(t.TempDir(), "store")

	manifest := filepath.Join(t.TempDir(), "manifest.json")
	s1 := startServer(t, bin, "-store", storeDir, "-max-inflight", "2", "-manifest", manifest)
	id := submit(t, s1, "team-a")
	cold := fetchDone(t, s1, id)
	if sims, ok := metricValue(t, s1, "engine_sims_run"); !ok || sims != 3 {
		t.Errorf("first process engine_sims_run = %v, want 3", sims)
	}
	s1.terminate()

	// The manifest written at shutdown is the run report: the store's
	// traffic is read off the registry's store.* instruments.
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema   int              `json:"schema"`
		Command  string           `json:"command"`
		Counters map[string]int64 `json:"engine_counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not JSON: %v\n%s", err, data)
	}
	if m.Command != "dirsimd" || m.Schema != 4 {
		t.Errorf("manifest command %q schema %d, want dirsimd 4", m.Command, m.Schema)
	}
	for _, name := range []string{"store.hits", "store.misses", "store.rejected", "store.writes", "store.evictions"} {
		if _, ok := m.Counters[name]; !ok {
			t.Errorf("manifest lacks counter %s: %v", name, m.Counters)
		}
	}
	// A cold sweep of three schemes misses the store three times and
	// writes three results through.
	if m.Counters["store.misses"] != 3 || m.Counters["store.writes"] != 3 ||
		m.Gauges["store.entries"] != 3 || m.Gauges["store.bytes"] <= 0 {
		t.Errorf("manifest store instruments: counters %v, gauges %v", m.Counters, m.Gauges)
	}

	// The store directory now holds the results; a fresh process serves
	// them without computing.
	if ents, err := os.ReadDir(filepath.Join(storeDir, "res")); err != nil || len(ents) == 0 {
		t.Fatalf("store has no result shards: %v", err)
	}
	s2 := startServer(t, bin, "-store", storeDir, "-max-inflight", "2")
	id2 := submit(t, s2, "team-b")
	if id2 != id {
		t.Errorf("same sweep got different experiment ID: %s vs %s", id2, id)
	}
	warm := fetchDone(t, s2, id2)
	if !bytes.Equal(cold, warm) {
		t.Error("second process's results are not bit-identical to the cold run")
	}
	if sims, ok := metricValue(t, s2, "engine_sims_run"); !ok || sims != 0 {
		t.Errorf("second process engine_sims_run = %v, want 0 (store-served)", sims)
	}
	if hits, ok := metricValue(t, s2, "store_hits"); !ok || hits < 3 {
		t.Errorf("second process store_hits = %v, want >= 3", hits)
	}
	if _, ok := metricValue(t, s2, "service_admission_depth"); !ok {
		t.Error("/metrics missing service_admission_depth")
	}
	s2.terminate()
}

// TestQuotaRejectionE2E: a second in-flight sweep from the same tenant is
// rejected 429 with Retry-After while another tenant's sweep is accepted.
// Deterministic because -max-inflight 1 and the first sweep occupies the
// only slot while the later submissions race it: the first tenant's
// duplicate is judged against quota before any of its work completes.
func TestQuotaRejectionE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildBinary(t)
	s := startServer(t, bin, "-quota", "1", "-max-inflight", "1")

	// A long sweep to hold tenant a's quota while we probe.
	long := `{"schemes": ["Dir0B"], "workloads": [{"name": "pops", "cpus": [8], "refs": 2000000}]}`
	post := func(tenant, body string) *http.Response {
		req, _ := http.NewRequest("POST", s.url("/api/v1/experiments"), strings.NewReader(body))
		req.Header.Set("X-Tenant-ID", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("team-a", long); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	distinct := `{"schemes": ["Dir1NB"], "workloads": [{"name": "thor", "cpus": [4], "refs": 4000}]}`
	resp := post("team-a", distinct)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	other := `{"schemes": ["Dir1NB"], "workloads": [{"name": "pero", "cpus": [4], "refs": 4000}]}`
	if resp := post("team-b", other); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant submit status %d, want 202", resp.StatusCode)
	}
	s.terminate()
}

// buildWorker compiles dirsimw once per test into a temp dir.
func buildWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dirsimw")
	cmd := exec.Command("go", "build", "-o", bin, "../dirsimw")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build dirsimw: %v\n%s", err, out)
	}
	return bin
}

// startWorker launches a dirsimw process against the coordinator and
// registers a SIGTERM/kill cleanup.
func startWorker(t *testing.T, bin, name, coordinator string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-coordinator", coordinator, "-name", name, "-poll", "50ms", "-journal", ""}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	return cmd
}

// TestFleetE2E runs the same sweep three ways across real processes —
// plain dirsimd, dirsimd -fleet with two dirsimw workers, and dirsimd
// -fleet with no workers at all — and asserts all three produce
// byte-identical results. With workers, every job completes remotely
// (the server's engine simulates nothing); with the fleet empty, every
// job degrades to local execution and the sweep still completes.
func TestFleetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildBinary(t)
	wbin := buildWorker(t)

	// Baseline: plain local dirsimd.
	s0 := startServer(t, bin)
	id := submit(t, s0, "team-a")
	baseline := fetchDone(t, s0, id)
	s0.terminate()

	// Fleet of two workers: jobs execute remotely, results are
	// fingerprint-revalidated, and the server's own engine stays cold.
	s1 := startServer(t, bin, "-fleet")
	startWorker(t, wbin, "w1", "http://"+s1.addr)
	startWorker(t, wbin, "w2", "http://"+s1.addr)
	id1 := submit(t, s1, "team-a")
	if id1 != id {
		t.Errorf("fleet run got different experiment ID: %s vs %s", id1, id)
	}
	remote := fetchDone(t, s1, id1)
	if !bytes.Equal(baseline, remote) {
		t.Error("fleet results are not bit-identical to the local run")
	}
	if v, ok := metricValue(t, s1, "dist_jobs_completed"); !ok || v != 3 {
		t.Errorf("dist_jobs_completed = %v, want 3", v)
	}
	if v, ok := metricValue(t, s1, "engine_sims_remote"); !ok || v != 3 {
		t.Errorf("engine_sims_remote = %v, want 3 (workers simulate)", v)
	}
	if v, ok := metricValue(t, s1, "engine_remote_degraded"); !ok || v != 0 {
		t.Errorf("engine_remote_degraded = %v, want 0", v)
	}
	s1.terminate()

	// Fleet enabled but empty: every job degrades to local execution.
	s2 := startServer(t, bin, "-fleet", "-degrade-after", "300ms")
	id2 := submit(t, s2, "team-a")
	degraded := fetchDone(t, s2, id2)
	if !bytes.Equal(baseline, degraded) {
		t.Error("degraded results are not bit-identical to the local run")
	}
	if v, ok := metricValue(t, s2, "dist_jobs_degraded"); !ok || v != 3 {
		t.Errorf("dist_jobs_degraded = %v, want 3", v)
	}
	if v, ok := metricValue(t, s2, "engine_sims_run"); !ok || v != 3 {
		t.Errorf("degraded engine_sims_run = %v, want 3", v)
	}
	s2.terminate()
}

// buildCLI compiles dirsimq once per test into a temp dir.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dirsimq")
	cmd := exec.Command("go", "build", "-o", bin, "../dirsimq")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build dirsimq: %v\n%s", err, out)
	}
	return bin
}

// TestFleetObservabilityE2E is the fleet-wide observability acceptance
// test across REAL processes: dirsimd -fleet -fleet-journal plus two
// dirsimw -ship-journal workers run a sweep; afterwards the coordinator
// exports ONE merged Chrome trace with the workers' engine spans on
// their own process rows, the fleet journal holds both sides' events
// (worker lines skew-stamped), `dirsimq timeline -strict` passes its
// consistency gate over it — books balanced, zero orphan lease
// references — and /api/v1/dist/stats federates per-worker shipping and
// version rows.
func TestFleetObservabilityE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildBinary(t)
	wbin := buildWorker(t)
	qbin := buildCLI(t)
	fleetJnl := filepath.Join(t.TempDir(), "fleet.jsonl")

	// -version prints and exits cleanly in both long-running binaries.
	for _, b := range []string{bin, wbin} {
		out, err := exec.Command(b, "-version").CombinedOutput()
		if err != nil || len(strings.TrimSpace(string(out))) == 0 {
			t.Fatalf("%s -version: %v (%q)", filepath.Base(b), err, out)
		}
	}

	s := startServer(t, bin, "-fleet", "-fleet-journal", fleetJnl)
	w1 := startWorker(t, wbin, "w1", "http://"+s.addr, "-ship-journal")
	w2 := startWorker(t, wbin, "w2", "http://"+s.addr, "-ship-journal")

	id := submit(t, s, "team-a")
	fetchDone(t, s, id)

	// The merged Chrome trace: worker process rows and dispatch spans in
	// one valid JSON document.
	resp, err := http.Get(s.url("/api/v1/experiments/" + id + "/trace"))
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	trace.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid Chrome JSON: %v", err)
	}
	for _, want := range []string{`"dist:queue"`, `"dist:lease"`, `"process_name"`, `"dirsimw:w`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("merged trace missing %s", want)
		}
	}

	// Workers drain on SIGTERM: their shippers' final flush lands the
	// tail (including worker.stop) in the fleet journal.
	w1.Process.Signal(syscall.SIGTERM)
	w2.Process.Signal(syscall.SIGTERM)
	deadline := time.Now().Add(15 * time.Second)
	for {
		b, _ := os.ReadFile(fleetJnl)
		if strings.Count(string(b), `"msg":"worker.stop"`) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker.stop never shipped; journal:\n%s", b)
		}
		time.Sleep(50 * time.Millisecond)
	}
	jb, _ := os.ReadFile(fleetJnl)
	for _, want := range []string{
		`"worker":"w1","skew_ns":`, `"worker":"w2","skew_ns":`,
		`"msg":"trace.import"`, `"msg":"worker.join"`,
	} {
		if !strings.Contains(string(jb), want) {
			t.Errorf("fleet journal missing %s", want)
		}
	}

	// Per-worker federation on the coordinator's public stats.
	resp, err = http.Get(s.url("/api/v1/dist/stats"))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		JobsCompleted int64
		Workers       []struct {
			Name         string `json:"name"`
			Version      string `json:"version"`
			Accepted     int64  `json:"accepted"`
			ShippedLines int64  `json:"shipped_lines"`
			SkewSet      bool   `json:"skew_set"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.JobsCompleted != 3 || len(st.Workers) != 2 {
		t.Fatalf("dist stats = %+v, want 3 completions across 2 workers", st)
	}
	var accepted, shipped int64
	for _, w := range st.Workers {
		accepted += w.Accepted
		shipped += w.ShippedLines
		if w.Version == "" {
			t.Errorf("worker %s joined without a build version", w.Name)
		}
	}
	if accepted != 3 {
		t.Errorf("federated accepted = %d, want 3", accepted)
	}
	if v, ok := metricValue(t, s, "dist_journal_batches"); !ok || v == 0 {
		t.Errorf("dist_journal_batches = %v, want > 0", v)
	}
	if shipped == 0 {
		t.Error("no shipped lines federated into worker stats")
	}

	// The unified timeline passes its consistency gate, skew-corrected.
	out, err := exec.Command(qbin, "timeline", "-strict", "all", fleetJnl).CombinedOutput()
	if err != nil {
		t.Fatalf("dirsimq timeline -strict failed: %v\n%s", err, out)
	}
	for _, want := range []string{"[balanced]", "orphan lease references: 0", "worker clock skew"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
	s.terminate()
}
