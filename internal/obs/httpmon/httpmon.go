// Package httpmon is the opt-in live HTTP monitor the CLIs start behind
// -listen: /metrics serves the run's registry in Prometheus text
// exposition, /runz a JSON snapshot of run progress (per-experiment
// state, cache hit ratio, refs/s), and /debug/pprof/* the standard Go
// profiling handlers. Everything is read-only and served from a private
// mux, so importing this package never touches http.DefaultServeMux's
// routing of another server.
//
// Servers that are more than monitors (internal/service) compose with it:
// NewMux returns the monitor mux so callers can register their own routes
// on top, and Serve runs any handler with the monitor's lifecycle —
// including Shutdown, which drains in-flight requests where Close
// interrupts them.
package httpmon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"dirsim/internal/obs"
)

// Options configures a monitor. Nil fields disable their endpoint's
// content, not the endpoint: /metrics with no registry serves an empty
// exposition, /runz with no Runz serves {}.
type Options struct {
	// Metrics is the registry /metrics exposes.
	Metrics *obs.Registry
	// Runz returns the run's report so far for /runz; it is called per
	// request and must be safe for concurrent use (obs.Report is).
	Runz func() obs.RunReport
	// Index lists extra endpoints on the root index page, as
	// path → description, for servers that add routes to the mux.
	Index map[string]string
}

// Server is a running monitor. Close it when the run ends, or Shutdown it
// to drain in-flight requests first.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// NewMux builds the monitor's routing table without starting a server,
// so callers can add their own handlers before Serve.
func NewMux(opts Options) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if opts.Metrics != nil {
			opts.Metrics.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/runz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = struct{}{}
		if opts.Runz != nil {
			v = opts.Runz()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>dirsim monitor</h1><ul>
<li><a href="/runz">/runz</a> — live run progress</li>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiling</li>
`)
		for path, desc := range opts.Index {
			fmt.Fprintf(w, "<li><a href=%q>%s</a> — %s</li>\n", path, path, desc)
		}
		fmt.Fprint(w, `</ul></body></html>`)
	})
	return mux
}

// Serve listens on addr (":0" picks a free port, reported by Addr) and
// serves handler until Close or Shutdown.
func Serve(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpmon: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Start is Serve over the standard monitor mux.
func Start(addr string, opts Options) (*Server, error) {
	return Serve(addr, NewMux(opts))
}

// Addr returns the address the monitor is listening on, with the real
// port when Start was given ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately, interrupting in-flight requests.
// Long-lived servers should prefer Shutdown, which drains them.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline; it then closes whatever is
// left and returns ctx's error. Handlers that stream indefinitely (SSE)
// should watch their request context, which Shutdown does not cancel —
// the serving loop must end them (internal/service does this by closing
// its experiments' journal records during drain).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	return err
}
