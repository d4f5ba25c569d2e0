package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/obs/httpmon"
)

// Client is the HTTP side shared by workers (toward the coordinator) and
// anything else speaking to a dirsimd: JSON round trips with bounded
// retry, exponential backoff with jitter on transport-class failures, and
// first-class handling of admission pushback — a 429 or 503 carrying
// Retry-After waits exactly what the server asked instead of hammering
// the backoff loop. Server-indicated waits and transport backoffs are
// separate disciplines on purpose: pushback is the server managing its
// own load (honor it), a transport error is the network lying (probe it
// with growing backoff).
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP performs the requests; nil means a private default client.
	// Wrap its Transport in a FaultTransport to inject wire faults.
	HTTP *http.Client
	// Metrics, when non-nil, counts dist.client.retries (transport-class
	// re-attempts) and dist.client.ratelimited (Retry-After waits).
	Metrics *obs.Registry
	// Sleep replaces the real clock for tests; nil sleeps.
	Sleep func(time.Duration)

	mu  sync.Mutex
	rng *rand.Rand
}

const (
	// clientRetries bounds re-attempts after transport-class failures
	// (network errors, 5xx); the first sleeps clientBackoff, doubling per
	// attempt with up to 25% random jitter.
	clientRetries = 4
	clientBackoff = 25 * time.Millisecond
	// maxRetryAfter caps how long a server-indicated Retry-After is
	// honored.
	maxRetryAfter         = 30 * time.Second
	maxErrorBodyBytes     = 1 << 12
	maxResponseBodyBytes  = 64 << 20
	retryAfterProbeFloor  = 50 * time.Millisecond
	backoffJitterFraction = 4
)

// StatusError reports a non-2xx response that is not retried away: the
// terminal outcome of a request. Callers branch on Status (e.g. 410 for a
// lost lease) without string matching.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("dist: server returned %d", e.Status)
	}
	return fmt.Sprintf("dist: server returned %d: %s", e.Status, e.Msg)
}

// IsStatus reports whether err is a *StatusError with the given code.
func IsStatus(err error, status int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == status
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter returns d plus up to d/4 of random jitter, decorrelating the
// retry storms of many clients. The fault injector's determinism contract
// covers fault decisions, not retry pacing, so real randomness is right
// here.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	j := time.Duration(c.rng.Int63n(int64(d)/backoffJitterFraction + 1))
	c.mu.Unlock()
	return d + j
}

func (c *Client) count(name string) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Inc()
	}
}

// Do round-trips one JSON request: in (when non-nil) is the request body,
// out (when non-nil) receives the decoded 2xx response. The caller's
// trace context rides the X-Dirsim-Trace header. Transport errors and
// 5xx retry with backoff; 429/503 with Retry-After wait as told (capped,
// not counted against the transport retry budget — the server asked for
// patience, the transport didn't fail); other non-2xx statuses return a
// *StatusError immediately.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("dist: encode request: %w", err)
		}
	}
	backoff := clientBackoff
	retriesLeft := clientRetries
	// Rate-limit waits have their own budget so a saturated server cannot
	// park a worker forever, but generous enough that honoring Retry-After
	// never burns the transport budget.
	rateWaits := 0
	const maxRateWaits = 32
	for {
		resp, err := c.roundTrip(ctx, method, path, body)
		if err == nil {
			retryAfter, handled, derr := c.decode(resp, out)
			switch {
			case derr == nil && !handled:
				return nil // decoded 2xx
			case derr == nil && handled:
				// 429/503 pushback: honor the server's wait.
				c.count("dist.client.ratelimited")
				rateWaits++
				if rateWaits > maxRateWaits {
					return fmt.Errorf("dist: %s %s: gave up after %d rate-limit waits: %w",
						method, path, rateWaits-1, ErrUnavailable)
				}
				if serr := c.sleep(ctx, retryAfter); serr != nil {
					return serr
				}
				continue
			case IsRetryableStatus(derr):
				err = derr // 5xx: fall through to the transport budget
			default:
				return derr
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if retriesLeft <= 0 {
			return fmt.Errorf("dist: %s %s: %w", method, path, err)
		}
		retriesLeft--
		c.count("dist.client.retries")
		if serr := c.sleep(ctx, c.jitter(backoff)); serr != nil {
			return serr
		}
		backoff *= 2
	}
}

// ErrUnavailable classifies a request that exhausted its patience with a
// pushing-back server; callers treat it like any transport-class failure.
var ErrUnavailable = errors.New("dist: server unavailable")

// IsRetryableStatus reports whether err is a *StatusError in the 5xx
// range — a server-side failure worth retrying, unlike 4xx outcomes.
func IsRetryableStatus(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status >= 500 && se.Status != http.StatusServiceUnavailable
}

func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc, ok := obs.TraceFrom(ctx); ok {
		req.Header.Set(httpmon.TraceHeader, tc.String())
	}
	return c.httpClient().Do(req)
}

// decode consumes resp. For 2xx it decodes into out and returns zeros.
// For 429/503 it returns the server's wait and handled == true. For other
// statuses it returns a *StatusError carrying the server's error body.
func (c *Client) decode(resp *http.Response, out any) (retryAfter time.Duration, handled bool, err error) {
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBodyBytes))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			return 0, false, nil
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBodyBytes))
		if rerr != nil {
			// A body cut mid-stream (injected disconnect, real reset) is a
			// transport failure, not a terminal status.
			return 0, false, &StatusError{Status: http.StatusBadGateway,
				Msg: fmt.Sprintf("response truncated: %v", rerr)}
		}
		if uerr := json.Unmarshal(data, out); uerr != nil {
			// Undecodable 2xx bytes mean the payload was mangled in flight;
			// retry like a transport failure.
			return 0, false, &StatusError{Status: http.StatusBadGateway,
				Msg: fmt.Sprintf("response corrupt: %v", uerr)}
		}
		return 0, false, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		wait := retryAfterProbeFloor
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		wait = min(wait, maxRetryAfter)
		if wait <= 0 {
			wait = retryAfterProbeFloor
		}
		return wait, true, nil
	default:
		msg := ""
		var eb struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
		if json.Unmarshal(data, &eb) == nil {
			msg = eb.Error
		}
		return 0, false, &StatusError{Status: resp.StatusCode, Msg: msg}
	}
}
