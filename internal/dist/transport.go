package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dirsim/internal/faults"
)

// errInjected marks transport failures manufactured by the fault
// injector; they are retryable like any real transport error, and tests
// can tell them from organic failures.
var errInjected = errors.New("injected transport fault")

// FaultTransport is an http.RoundTripper that subjects every request to
// the injector's transport fault class: partitions, drops, duplicated
// deliveries, in-flight byte corruption, injected latency, dropped
// replies, and mid-stream disconnects. Every decision is a pure function
// of seed × site × per-site message counter, where the site is
// "<name>:<last path segment>" — one schedule per peer × route — so a
// fixed seed produces the same fault schedule run after run, regardless
// of goroutine interleaving within a site's message order.
//
// Fault semantics, in decision order (at most one destructive class per
// message, delay composing with any):
//
//	partition    the whole window of messages vanishes before sending
//	drop         this message vanishes before sending (no side effects)
//	delay        delivery stalls first
//	duplicate    the request is delivered twice; the second response is
//	             the one returned (the receiver sees both)
//	corrupt      one body byte is flipped — request side when the request
//	             has a body and the sub-roll picks it, else response side
//	drop-reply   the request is delivered (side effects happen) but the
//	             response is lost
//	disconnect   the response body is cut mid-stream
type FaultTransport struct {
	// Base performs real round trips; nil means http.DefaultTransport.
	Base http.RoundTripper
	// Name labels this peer in fault sites (typically the worker name).
	Name string
	// Inj drives every decision; nil passes everything through.
	Inj *faults.Injector
	// Sleep replaces time.Sleep for injected delays (tests); nil sleeps.
	Sleep func(time.Duration)

	mu    sync.Mutex
	seq   map[string]int64
	fired map[string]int64 // per-class fired counts, for accounting
}

// NewFaultTransport wraps base with injected transport faults.
func NewFaultTransport(name string, inj *faults.Injector, base http.RoundTripper) *FaultTransport {
	return &FaultTransport{Base: base, Name: name, Inj: inj,
		seq: make(map[string]int64), fired: make(map[string]int64)}
}

// Fired returns a copy of the per-class fired counts ("drop",
// "dropreply", "dup", "corrupt", "delay", "disconnect", "partition"), the
// accounting the soak test reconciles against coordinator counters.
func (t *FaultTransport) Fired() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.fired))
	for k, v := range t.fired {
		out[k] = v
	}
	return out
}

func (t *FaultTransport) count(class string) {
	t.mu.Lock()
	t.fired[class]++
	t.mu.Unlock()
}

// site derives the fault site and claims the next message number for it.
func (t *FaultTransport) site(req *http.Request) (string, int64) {
	route := req.URL.Path
	if i := strings.LastIndexByte(route, '/'); i >= 0 {
		route = route[i+1:]
	}
	s := t.Name + ":" + route
	t.mu.Lock()
	n := t.seq[s]
	t.seq[s] = n + 1
	t.mu.Unlock()
	return s, n
}

func (t *FaultTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *FaultTransport) sleep(d time.Duration) {
	if t.Sleep != nil {
		t.Sleep(d)
		return
	}
	time.Sleep(d)
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Inj == nil {
		return t.base().RoundTrip(req)
	}
	site, n := t.site(req)
	if t.Inj.Partitioned(site, n) {
		t.count("partition")
		return nil, fmt.Errorf("dist: %s message %d partitioned: %w", site, n, errInjected)
	}
	d := t.Inj.TransportFault(site, n)
	if d.Delay > 0 {
		t.count("delay")
		t.sleep(d.Delay)
	}
	if d.Drop {
		t.count("drop")
		return nil, fmt.Errorf("dist: %s message %d dropped: %w", site, n, errInjected)
	}

	// Buffer the request body: corruption mutates it, duplication replays
	// it, and retries upstream need it restorable anyway.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if d.Corrupt && d.CorruptRequest && len(body) > 0 {
		t.count("corrupt")
		pos, mask := t.Inj.CorruptByte(site, n)
		body = bytes.Clone(body)
		body[int(pos%int64(len(body)))] ^= mask
		d.Corrupt = false // spent on the request side
	}
	send := func() (*http.Response, error) {
		r2 := req.Clone(req.Context())
		if body != nil {
			r2.Body = io.NopCloser(bytes.NewReader(body))
			r2.ContentLength = int64(len(body))
		}
		return t.base().RoundTrip(r2)
	}

	if d.Duplicate {
		t.count("dup")
		if resp, err := send(); err == nil {
			// First delivery: the receiver saw it; its response is
			// discarded and the replay's response is returned.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := send()
	if err != nil {
		return nil, err
	}
	if d.DropReply {
		t.count("dropreply")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("dist: %s message %d reply dropped: %w", site, n, errInjected)
	}
	if d.Corrupt || d.Disconnect {
		// Both classes need the response body in hand.
		payload, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if d.Corrupt && len(payload) > 0 {
			t.count("corrupt")
			pos, mask := t.Inj.CorruptByte(site, n)
			payload[int(pos%int64(len(payload)))] ^= mask
		}
		if d.Disconnect {
			t.count("disconnect")
			cut := int(float64(len(payload)) * t.Inj.DisconnectAfter(site, n))
			resp.Body = &truncatedBody{data: payload[:cut],
				err: fmt.Errorf("dist: %s message %d disconnected mid-stream: %w", site, n, errInjected)}
		} else {
			resp.Body = io.NopCloser(bytes.NewReader(payload))
		}
		resp.ContentLength = int64(len(payload))
		return resp, nil
	}
	return resp, nil
}

// truncatedBody serves a prefix of the real body and then fails like a
// cut connection, so readers see partial data plus an error — not EOF.
type truncatedBody struct {
	data []byte
	err  error
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *truncatedBody) Close() error { return nil }
