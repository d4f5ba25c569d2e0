package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
	"dirsim/internal/sim"
	"dirsim/internal/store"
)

// TenantHeader carries the caller's tenant identity; requests without it
// are grouped under DefaultTenant.
const (
	TenantHeader  = "X-Tenant-ID"
	DefaultTenant = "anonymous"
)

// Register installs the service's routes on mux (typically the httpmon
// monitor mux, composing the API with /metrics, /runz and pprof). Every
// route is wrapped in httpmon.Instrument: requests get a trace context
// (minted, or adopted from the X-Dirsim-Trace header), responses echo
// the trace ID back, and per-route plus per-tenant RED metrics land on
// the service registry.
func (s *Service) Register(mux *http.ServeMux) {
	opts := httpmon.InstrumentOptions{
		Registry:      s.reg,
		TenantHeader:  TenantHeader,
		DefaultTenant: DefaultTenant,
	}
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, httpmon.Instrument(label, opts, h))
	}
	route("POST /api/v1/experiments", "experiments.submit", s.handleSubmit)
	route("GET /api/v1/experiments", "experiments.list", s.handleList)
	route("GET /api/v1/experiments/{id}", "experiments.get", s.handleGet)
	route("GET /api/v1/experiments/{id}/events", "experiments.events", s.handleEvents)
	route("GET /api/v1/experiments/{id}/trace", "experiments.trace", s.handleTrace)
	route("GET /api/v1/store", "store.status", s.handleStore)
	route("GET /healthz", "healthz", s.handleHealth)
}

// ExperimentStatus is the API rendering of an experiment.
type ExperimentStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Trace is the trace ID the experiment runs under — the submitting
	// request's trace, which every journal line and trace-export span of
	// this experiment carries. A deduplicated submission returns the
	// original experiment's trace, not the attaching request's.
	Trace     string    `json:"trace,omitempty"`
	State     State     `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	DurMS     int64     `json:"dur_ms,omitempty"`
	Error     string    `json:"error,omitempty"`
	Specs     int       `json:"specs"`
	// Results is populated once the experiment is done (or partially,
	// on failure), one entry per expanded spec.
	Results []SpecResult `json:"results,omitempty"`
}

// SpecResult pairs one cell of the sweep with its simulation result.
type SpecResult struct {
	SpecMeta
	// Fingerprint is the result's content hash, fixed-width hex: equal
	// fingerprints mean bit-identical results wherever they were
	// computed.
	Fingerprint string      `json:"fingerprint,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
}

// status renders exp under the service lock.
func (s *Service) status(exp *Experiment, includeResults bool) ExperimentStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ExperimentStatus{
		ID:        exp.ID,
		Tenant:    exp.Tenant,
		Trace:     exp.tc.Trace,
		State:     exp.State,
		Submitted: exp.Submitted,
		Started:   exp.Started,
		Finished:  exp.Finished,
		Error:     exp.Err,
		Specs:     len(exp.specs),
	}
	if !exp.Finished.IsZero() && !exp.Started.IsZero() {
		st.DurMS = exp.Finished.Sub(exp.Started).Milliseconds()
	}
	if includeResults && (exp.State == StateDone || exp.State == StateFailed) {
		st.Results = make([]SpecResult, len(exp.meta))
		for i, m := range exp.meta {
			sr := SpecResult{SpecMeta: m}
			if i < len(exp.results) && exp.results[i] != nil {
				sr.Fingerprint, sr.Result = exp.prints[i], exp.results[i]
			}
			st.Results[i] = sr
		}
	}
	return st
}

// decodeSpec reads a submitted spec: at most 1 MiB of body, and no field
// the Spec does not know.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = DefaultTenant
	}
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		httpmon.WriteError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	exp, created, err := s.Submit(r.Context(), tenant, spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrQuota):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
		httpmon.WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
		httpmon.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		httpmon.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	if !created {
		// An identical sweep already exists; point the caller at it.
		status = http.StatusOK
	}
	w.Header().Set("Location", "/api/v1/experiments/"+exp.ID)
	httpmon.WriteJSON(w, status, s.status(exp, true))
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpmon.WriteError(w, http.StatusNotFound, "no experiment %q", r.PathValue("id"))
		return
	}
	httpmon.WriteJSON(w, http.StatusOK, s.status(exp, true))
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	out := make([]ExperimentStatus, 0, len(ids))
	for _, id := range ids {
		if exp, ok := s.Get(id); ok {
			out = append(out, s.status(exp, false))
		}
	}
	httpmon.WriteJSON(w, http.StatusOK, struct {
		Experiments []ExperimentStatus `json:"experiments"`
	}{out})
}

// handleEvents streams the experiment's journal over Server-Sent Events:
// every line from the first, then live lines until the experiment
// finishes or the client disconnects. Each journal line becomes one
// `data:` frame. The stream follows the experiment's record, so a client
// that stops reading holds only its own place in it: it loses no line
// and never slows the run. Frames are flushed once per burst of lines,
// so a finished experiment's replay leaves in one write with its end
// frame, and a live line leaves the moment it is written.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpmon.WriteError(w, http.StatusNotFound, "no experiment %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpmon.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for sent := 0; ; {
		lines, closed, next := exp.record.Follow(sent)
		for _, line := range lines {
			fmt.Fprintf(w, "data: %s\n\n", line)
		}
		sent += len(lines)
		if closed {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace renders the experiment's journal as Chrome trace-event
// JSON (load it in Perfetto or chrome://tracing): the request span, its
// admission wait, and every engine job, attempt, simulation and store
// access the experiment caused — in a fleet, the coordinator's queue and
// lease spans too, with the spans of workers that ship their journals
// nested under them. The journal is whole once the experiment has
// reached a terminal state, so only then is it served.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	exp, ok := s.Get(r.PathValue("id"))
	if !ok {
		httpmon.WriteError(w, http.StatusNotFound, "no experiment %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	state := exp.State
	s.mu.Unlock()
	if state == StateQueued || state == StateRunning {
		w.Header().Set("Retry-After", "1")
		httpmon.WriteError(w, http.StatusConflict, "experiment %s is %s; trace is available once it finishes", exp.ID, state)
		return
	}
	lines, _, err := obs.ReadJournal(bytes.NewReader(exp.record.Bytes()))
	if err != nil {
		httpmon.WriteError(w, http.StatusInternalServerError, "experiment %s: journal: %v", exp.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+exp.ID+`.trace.json"`)
	if _, err := obs.WriteChrome(w, lines); err != nil {
		s.log.Warn("trace.export", "id", exp.ID, "error", err)
	}
}

// storeStatus is the /api/v1/store response.
type storeStatus struct {
	Enabled bool         `json:"enabled"`
	Stats   *store.Stats `json:"stats,omitempty"`
}

func (s *Service) handleStore(w http.ResponseWriter, _ *http.Request) {
	st := storeStatus{Enabled: s.st != nil}
	if s.st != nil {
		v := s.st.Stats()
		st.Stats = &v
	}
	httpmon.WriteJSON(w, http.StatusOK, st)
}

// healthStatus is the /healthz response.
type healthStatus struct {
	Status     string `json:"status"` // "ok" or "draining"
	UptimeSec  int64  `json:"uptime_sec"`
	Queued     int    `json:"queued"`
	Discipline string `json:"discipline"`
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := healthStatus{
		Status:     "ok",
		UptimeSec:  int64(time.Since(s.start).Seconds()),
		Queued:     s.adm.Depth(),
		Discipline: s.adm.Discipline(),
	}
	code := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	httpmon.WriteJSON(w, code, h)
}
