package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dirsim/internal/engine"
	"dirsim/internal/obs"
	"dirsim/internal/service"
	"dirsim/internal/sim"
	"dirsim/internal/store"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// sweep is one experiment submission and what its results must be.
type sweep struct {
	body  []byte           // the POST body: six schemes × pops/thor/pero × 4 CPUs
	specs []engine.SimSpec // its expansion, in response order
	want  []uint64         // oracle fingerprint per spec
	refs  int64            // references the results represent
}

// newSweep builds the index-th sweep for seed and computes its oracle:
// every expanded spec through a sequential sim.SimulateTrace over a
// freshly generated trace, with no engine, store or wire involved.
func newSweep(refs int, seed uint64, index int) (sweep, error) {
	spec := service.Spec{Schemes: paperSchemes}
	for _, cfg := range standardConfigs(refs, seed, index) {
		spec.Workloads = append(spec.Workloads, service.WorkloadSpec{
			Name: cfg.Name, CPUs: []int{benchCPUs}, Refs: refs, Seed: cfg.Seed})
	}
	var sw sweep
	var err error
	if sw.body, err = json.Marshal(spec); err != nil {
		return sweep{}, err
	}
	if sw.specs, _, err = spec.Expand(); err != nil {
		return sweep{}, err
	}
	// Expand keeps each workload's specs together, so one trace at a time
	// is live.
	var t *trace.Trace
	for _, sp := range sw.specs {
		if t == nil || t.Name != sp.Trace.Name {
			if t, err = workload.Generate(sp.Trace); err != nil {
				return sweep{}, err
			}
		}
		res, err := sim.SimulateTrace(sp.Scheme, t, sim.Options{})
		if err != nil {
			return sweep{}, err
		}
		sw.want = append(sw.want, res.Fingerprint())
		sw.refs += res.Counts.Total
	}
	return sw, nil
}

// check verifies a final GET /api/v1/experiments/{id} body: terminal
// state done, one result per spec, and every decoded result's recomputed
// fingerprint equal to the oracle's.
func (sw sweep) check(body []byte) error {
	var st service.ExperimentStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if st.State != service.StateDone {
		return fmt.Errorf("experiment %s is %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Results) != len(sw.want) {
		return fmt.Errorf("experiment %s: %d results, want %d", st.ID, len(st.Results), len(sw.want))
	}
	for i, r := range st.Results {
		if r.Result == nil || r.Result.Fingerprint() != sw.want[i] {
			return fmt.Errorf("experiment %s: %s over %s differs from the sequential oracle",
				st.ID, r.Scheme, r.Workload)
		}
	}
	return nil
}

// digestOf folds every sweep's oracle into one results digest.
func digestOf(sweeps []sweep) string {
	var all []uint64
	for _, sw := range sweeps {
		all = append(all, sw.want...)
	}
	return fingerprintDigest(all)
}

// server is one loopback HTTP server for a rep.
type server struct {
	srv  *http.Server
	done chan error
	base string
}

func serve(mux *http.ServeMux) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: mux}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to end.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// client is the one closed-loop client: one goroutine, one connection.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do performs one request and returns the whole response body.
func (c *client) do(span, method, path string, body []byte, wantStatus ...int) ([]byte, error) {
	defer c.tr.enter(span, layerService)()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, s := range wantStatus {
		if resp.StatusCode == s {
			return out, nil
		}
	}
	return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, out)
}

// runSweep is one op of the three-request protocol: submit, follow the
// event stream to its end, fetch the result. It returns the final body
// for checking outside the op window.
func (c *client) runSweep(sw sweep) ([]byte, error) {
	out, err := c.do("http.submit", "POST", "/api/v1/experiments", sw.body,
		http.StatusAccepted, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &created); err != nil || created.ID == "" {
		return nil, fmt.Errorf("submit: no experiment id in %.200s (%v)", out, err)
	}
	// The stream ends when the experiment reaches a terminal state.
	if _, err := c.do("http.events", "GET", "/api/v1/experiments/"+created.ID+"/events", nil,
		http.StatusOK); err != nil {
		return nil, err
	}
	return c.do("http.get", "GET", "/api/v1/experiments/"+created.ID, nil, http.StatusOK)
}

// runSweeps runs the rep's op loop: every sweep once, each an op, with
// the returned bodies checked after the loop so that neither decoding
// nor fingerprinting them lands in the timed region.
func runSweeps(r *run, c *client, sweeps []sweep) {
	ops := make([]*op, len(sweeps))
	bodies := make([][]byte, len(sweeps))
	errs := make([]error, len(sweeps))
	r.timed(func() {
		for i, sw := range sweeps {
			ops[i] = r.begin("op:sweep")
			bodies[i], errs[i] = c.runSweep(sw)
			ops[i].end()
		}
	})
	for i, sw := range sweeps {
		if errs[i] == nil {
			errs[i] = sw.check(bodies[i])
		}
		ops[i].done(sw.refs, errs[i])
		r.sample("service.result_bytes", float64(len(bodies[i])))
	}
}

// serviceWarm measures the restart/warm path: a fresh service over a
// filled store answers every sweep from disk. service admission, the
// engine's tier-hit path, store read+verify, SSE fan-out, three HTTP
// round trips and JSON encoding of 18 results are on the path; core, sim
// and workload do nothing (zero simulations, asserted). Store writes
// land in this workload's set-up, store reads in its timed ops.
type serviceWarm struct {
	dir    string
	sweeps []sweep
}

func setupServiceWarm(z sizes, seed uint64, tmp string) (instance, error) {
	w := &serviceWarm{dir: tmp}
	for i := 0; i < z.warmSweeps; i++ {
		sw, err := newSweep(z.warmRefs, seed, i)
		if err != nil {
			return nil, fmt.Errorf("service_warm: sweep %d: %w", i, err)
		}
		w.sweeps = append(w.sweeps, sw)
	}
	// Fill: the same client protocol against an empty store, so every
	// result is simulated once and written through. Unrecorded.
	fill := newRun(nil)
	if err := w.cycle(fill, false); err != nil {
		return nil, fmt.Errorf("service_warm: fill: %w", err)
	}
	if fill.failed > 0 {
		return nil, fmt.Errorf("service_warm: fill: %d of %d sweeps failed", fill.failed, fill.attempted())
	}
	// Warm-up rep, untimed and unrecorded.
	if err := w.rep(newRun(nil)); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *serviceWarm) rep(r *run) error { return w.cycle(r, true) }

// cycle starts a fresh service on the store directory, runs every sweep
// through it, and drains it. warm asserts that nothing was simulated.
func (w *serviceWarm) cycle(r *run, warm bool) error {
	var st *store.Store
	var svc *service.Service
	var srv *server
	err := r.overhead("service.start", func() (err error) {
		if st, err = store.Open(w.dir, store.Options{}); err != nil {
			return err
		}
		if svc, err = service.New(service.Config{Store: st, Verify: true}); err != nil {
			return err
		}
		svc.Start()
		mux := http.NewServeMux()
		svc.Register(mux)
		if srv, err = serve(mux); err != nil {
			drain(svc)
		}
		return err
	})
	if err != nil {
		return err
	}
	c := newClient(srv.base, r.tr)
	runSweeps(r, c, w.sweeps)
	// Resubmitting a finished sweep is answered from the experiment
	// table: the service's own dedup path, timed outside the op windows.
	dedupErr := r.overhead("service.dedup_hit", func() error {
		_, err := c.do("http.resubmit", "POST", "/api/v1/experiments", w.sweeps[0].body, http.StatusOK)
		return err
	})
	c.close()
	wait := svc.Metrics().Histogram("service.admission.wait.fcfs.us", obs.DurationBucketsUS)
	r.sample("service.admission_wait_us", wait.Snapshot().Quantile(0.5))
	err = r.overhead("service.drain", func() error {
		err := drain(svc)
		if serr := srv.stop(); err == nil {
			err = serr
		}
		return err
	})
	if err == nil {
		err = dedupErr
	}
	if err != nil {
		return err
	}
	stats := st.Stats()
	r.sample("store.hits", float64(stats.Hits))
	r.sample("store.rejected", float64(stats.Rejected))
	if warm {
		specs := int64(0)
		for _, sw := range w.sweeps {
			specs += int64(len(sw.want))
		}
		if sims := svc.Engine().Stats().SimsRun; sims != 0 {
			return fmt.Errorf("service_warm: %d simulations ran on the warm path", sims)
		}
		if stats.Hits != specs {
			return fmt.Errorf("service_warm: %d store hits, want %d", stats.Hits, specs)
		}
	}
	return nil
}

// drain stops a service, waiting for its workers.
func drain(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return svc.Drain(ctx)
}

func (w *serviceWarm) digest() string { return digestOf(w.sweeps) }
