package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"dirsim/internal/obs"
)

const (
	// shipMaxLines bounds a shipper's pending buffer; writes beyond it
	// are dropped and counted (the count ships with every batch,
	// cumulatively, so a lost batch cannot lose the loss report). A
	// buffer reaching half of it flushes at once.
	shipMaxLines = 4096
	// shipFlushEvery is the background flush interval.
	shipFlushEvery = 250 * time.Millisecond
)

// ShipperOptions tunes a JournalShipper.
type ShipperOptions struct {
	// Skew supplies the worker's current coordinator-minus-worker clock
	// estimate for batch tagging (Worker.SkewNS); nil tags 0.
	Skew func() (int64, bool)
	// Metrics, when non-nil, counts dist.ship.batches / .lines /
	// .dropped / .errors on the worker's registry.
	Metrics *obs.Registry
}

// JournalShipper streams a worker's journal home: it is an io.Writer
// meant to tee the worker's JSONL journal (each Write is one complete
// line, slog's contract), batching lines in a bounded buffer and
// POSTing them to the coordinator's /api/v1/dist/journal via the shared
// retrying Client. Shipping is strictly best-effort and never blocks
// the write path: a full buffer drops the newest lines and counts them;
// a failed POST re-queues its lines if — and only if — there is room.
type JournalShipper struct {
	client *Client
	worker string
	opts   ShipperOptions

	mu      sync.Mutex
	flushMu sync.Mutex // one batch in flight at a time, so Flush waits out the loop's
	pending [][]byte
	dropped int64 // cumulative
	closed  bool

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// NewJournalShipper starts a shipper for worker, posting through client.
func NewJournalShipper(client *Client, worker string, opts ShipperOptions) *JournalShipper {
	s := &JournalShipper{
		client: client,
		worker: worker,
		opts:   opts,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Write queues p's complete lines for shipping. Never blocks and never
// fails; overflow drops (counted), not stalls — journaling must not
// back-pressure the simulation.
func (s *JournalShipper) Write(p []byte) (int, error) {
	n := len(p)
	s.mu.Lock()
	for len(p) > 0 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			// slog writes whole lines; a partial tail (foreign writer)
			// still ships as its own line rather than silently vanishing.
			nl = len(p) - 1
		}
		line := p[:nl+1]
		p = p[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if len(s.pending) >= shipMaxLines {
			s.dropped++
			continue
		}
		s.pending = append(s.pending, append([]byte(nil), bytes.TrimRight(line, "\r\n")...))
	}
	full := len(s.pending) >= shipMaxLines/2
	s.mu.Unlock()
	if full {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return n, nil
}

func (s *JournalShipper) loop() {
	defer s.wg.Done()
	tick := time.NewTicker(shipFlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.Flush(context.Background())
		case <-s.kick:
			s.Flush(context.Background())
		case <-s.done:
			return
		}
	}
}

// Flush ships everything pending as one batch, after any batch already
// in flight, and returns once it is delivered or has failed. On failure
// the lines re-queue at the front if the buffer still has room;
// otherwise they are dropped and counted.
func (s *JournalShipper) Flush(ctx context.Context) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	batchLines := s.pending
	s.pending = nil
	dropped := s.dropped
	s.mu.Unlock()
	if len(batchLines) == 0 {
		return
	}
	var skew int64
	if s.opts.Skew != nil {
		skew, _ = s.opts.Skew()
	}
	b := journalBatch{Worker: s.worker, SkewNS: skew, Dropped: dropped,
		Lines: make([]json.RawMessage, len(batchLines))}
	for i, l := range batchLines {
		// The sum covers the bytes the coordinator will decode: encoding
		// a line compacts it and escapes <, > and & inside its strings.
		enc, err := json.Marshal(json.RawMessage(l))
		if err != nil {
			// Not JSON (a foreign writer's line): it ships as a string,
			// which the coordinator rejects and counts like any other
			// malformed line, instead of failing the batch every retry.
			enc, _ = json.Marshal(string(l))
		}
		b.Lines[i] = enc
	}
	b.Sum = linesSum(b.Lines)
	err := s.client.Do(ctx, http.MethodPost, "/api/v1/dist/journal", b, nil)
	if err != nil {
		s.count("dist.ship.errors", 1)
		s.mu.Lock()
		if room := shipMaxLines - len(s.pending); room >= len(batchLines) {
			s.pending = append(batchLines, s.pending...)
		} else {
			s.dropped += int64(len(batchLines))
		}
		s.mu.Unlock()
		return
	}
	s.count("dist.ship.batches", 1)
	s.count("dist.ship.lines", int64(len(batchLines)))
	s.count("dist.ship.dropped", 0) // touch so the family exists
}

func (s *JournalShipper) count(name string, n int64) {
	if s.opts.Metrics == nil {
		return
	}
	c := s.opts.Metrics.Counter(name)
	if n > 0 {
		c.Add(n)
	}
}

// Close performs a final synchronous flush (bounded by ctx) and stops
// the background loop. Safe to call once.
func (s *JournalShipper) Close(ctx context.Context) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.Flush(ctx)
}
