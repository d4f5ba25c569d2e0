// Package store is the durable second tier behind the execution engine's
// in-memory result cache: simulation results persisted on disk under
// their engine cache key, each stamped with the content fingerprint
// recorded at store time and revalidated on every load. A warm-start
// process — or a second process sharing the directory — finds
// yesterday's sweep already computed; a corrupted file (a flipped byte,
// a poisoned stamp, a torn write) is detected, evicted, and recomputed
// rather than served.
//
// The layout under the store directory:
//
//	res/<kk>/<key>.dsr    one result per file, payload sim.Result.AppendBinary
//	trc/<kk>/<key>.dstr   one trace per file (bench/ only), payload trace.WriteBinary
//
// where <key> is the full hex engine cache key and <kk> its first two
// characters (a fan-out directory, so a million entries do not land in
// one directory). Both kinds of file start with one header, written by
// appendHeader and read by readHeader:
//
//	magic "DSSR" or "DSST" | schema u8 | fingerprint u64 LE |
//	key len uvarint + key bytes | payload
//
// Result entries were JSON files up to schema 2; Open deletes any it
// finds, since nothing can serve them any more.
//
// Writes are crash-safe: content goes to a same-directory temp file, is
// fsynced, and is renamed into place, so a reader sees either nothing or
// a complete file, and concurrent writers of the same key — which, being
// content-addressed, carry identical payloads — race harmlessly.
// Leftover temp files from a crashed writer are swept at Open.
//
// The store is safe for concurrent use within a process and for
// multi-process sharing of one directory: the in-memory index is an
// accounting structure (LRU order, total bytes), not an authority on
// presence — a lookup that misses the index still consults the disk, so
// entries written by another process after Open are found.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/sim"
	"dirsim/internal/trace"
)

// SchemaVersion identifies the on-disk envelope format. Files written
// with a different version are rejected as corrupt (and evicted), never
// misread. Version 2: network tallies store exact integer CycleUnits
// instead of a float cycle sum, and result fingerprints hash those units.
// Version 3: results are sim.Result's binary form behind the header trace
// entries already had, in .dsr files; the JSON envelope is gone.
const SchemaVersion = 3

// staleTempAge is how old a temp file must be before Open's sweep treats
// it as a crashed writer's leftover and removes it. Live writers — in
// this process or any other sharing the directory — hold a temp for
// milliseconds between create and rename.
const staleTempAge = time.Minute

// ErrCorrupt reports a stored entry that failed integrity revalidation —
// undecodable bytes, a key mismatch, or a fingerprint that no longer
// matches the decoded content. The entry has been evicted by the time
// the error is returned; the caller recomputes.
var ErrCorrupt = errors.New("store: entry failed integrity revalidation")

// corruptError wraps ErrCorrupt with the offending key and cause. It
// reports Corrupt() true, the trait the execution engine keys its
// cache-rejection accounting on.
type corruptError struct {
	key   string
	cause error
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("store: entry %s corrupt: %v", shortKey(e.key), e.cause)
}
func (e *corruptError) Unwrap() error { return ErrCorrupt }

// Corrupt marks the error as an integrity failure (as opposed to an I/O
// failure), so callers can count rejections without string matching.
func (e *corruptError) Corrupt() bool { return true }

// Options configures a store.
type Options struct {
	// MaxBytes bounds the store's total payload size; when an insert
	// pushes past it, least-recently-used entries are evicted until the
	// store fits again. 0 means unbounded.
	MaxBytes int64
	// Metrics is the registry the store's counters live on (store.hits,
	// store.misses, store.rejected, store.writes, store.write_errors,
	// store.evictions, and the store.bytes / store.entries gauges); nil
	// means a private registry.
	Metrics *obs.Registry
}

// Store is a persistent content-addressed result and trace store rooted
// at one directory. All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry // "r:"+key / "t:"+key → entry
	// head..tail is the LRU order, least recently used first, linked
	// through the entries themselves.
	head, tail *entry
	totalBytes int64

	hits        *obs.Counter
	misses      *obs.Counter
	rejected    *obs.Counter
	writes      *obs.Counter
	writeErrors *obs.Counter
	evictions   *obs.Counter
	bytesGauge  *obs.Gauge
	countGauge  *obs.Gauge
}

// entry is one indexed file: its identity, size, and LRU links.
type entry struct {
	id         string // "r:"+key or "t:"+key
	size       int64
	prev, next *entry
}

// namespace is one kind of entry: its id prefix in the index, its
// directory and file extension, and the magic its header starts with.
type namespace struct{ prefix, dir, ext, magic string }

var (
	results = namespace{"r:", "res", ".dsr", "DSSR"}
	traces  = namespace{"t:", "trc", ".dstr", "DSST"}
)

// Open opens (creating if needed) the store rooted at dir, sweeps temp
// files left by crashed writers, and indexes the existing entries in
// modification-time order, so the LRU starts from the on-disk access
// history. Opening the same directory from several processes is
// supported; see the package comment for the sharing contract.
func Open(dir string, opts Options) (*Store, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		dir:         dir,
		maxBytes:    opts.MaxBytes,
		entries:     make(map[string]*entry),
		hits:        reg.Counter("store.hits"),
		misses:      reg.Counter("store.misses"),
		rejected:    reg.Counter("store.rejected"),
		writes:      reg.Counter("store.writes"),
		writeErrors: reg.Counter("store.write_errors"),
		evictions:   reg.Counter("store.evictions"),
		bytesGauge:  reg.Gauge("store.bytes"),
		countGauge:  reg.Gauge("store.entries"),
	}
	if err := os.MkdirAll(filepath.Join(dir, results.dir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// scan walks the store directory, removing stale temp files and schema-2
// result files and indexing complete entries oldest-first, so
// pre-existing files are first in line for LRU eviction until they are
// touched.
func (s *Store) scan() error {
	type found struct {
		id    string
		size  int64
		mtime time.Time
	}
	var all []found
	for _, ns := range []namespace{results, traces} {
		root := filepath.Join(s.dir, ns.dir)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			name := d.Name()
			if strings.Contains(name, ".tmp") {
				// A crashed writer's leftover: unreferenced, possibly torn.
				// But only remove it once it is old enough that no live
				// writer can still own it — another process sharing this
				// directory holds its temp for milliseconds between create
				// and rename, and sweeping a live temp would make that
				// rename fail under the writer.
				if info, err := d.Info(); err == nil && time.Since(info.ModTime()) >= staleTempAge {
					os.Remove(path)
				}
				return nil
			}
			if ns == results && strings.HasSuffix(name, ".json") {
				// A schema-2 result: never servable, so neither a hit nor
				// a rejection; the key is absent until it is recomputed.
				os.Remove(path)
				return nil
			}
			if !strings.HasSuffix(name, ns.ext) {
				return nil
			}
			info, err := d.Info()
			if err != nil {
				return nil // raced with a concurrent eviction
			}
			key := strings.TrimSuffix(name, ns.ext)
			all = append(all, found{id: ns.prefix + key, size: info.Size(), mtime: info.ModTime()})
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) { // trc/ exists once a trace is stored
			return fmt.Errorf("store: scan: %w", err)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range all {
		s.indexLocked(f.id, f.size)
	}
	return nil
}

// pathFor maps an entry id to its file path.
func (s *Store) pathFor(id string) string {
	key := id[2:]
	fan := "xx"
	if len(key) >= 2 {
		fan = key[:2]
	}
	ns := results
	if id[0] == traces.prefix[0] {
		ns = traces
	}
	return filepath.Join(s.dir, ns.dir, fan, key+ns.ext)
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// --- LRU index (all under s.mu) ---

// indexLocked inserts or refreshes id as most recently used.
func (s *Store) indexLocked(id string, size int64) {
	if e, ok := s.entries[id]; ok {
		s.totalBytes += size - e.size
		e.size = size
		s.unlinkLocked(e)
		s.pushLocked(e)
	} else {
		e := &entry{id: id, size: size}
		s.entries[id] = e
		s.totalBytes += size
		s.pushLocked(e)
	}
	s.publishLocked()
}

// touchLocked moves id to most recently used, if indexed.
func (s *Store) touchLocked(id string) {
	if e, ok := s.entries[id]; ok {
		s.unlinkLocked(e)
		s.pushLocked(e)
	}
}

// dropLocked removes id from the index without touching the disk.
func (s *Store) dropLocked(id string) {
	if e, ok := s.entries[id]; ok {
		s.unlinkLocked(e)
		delete(s.entries, id)
		s.totalBytes -= e.size
		s.publishLocked()
	}
}

func (s *Store) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) pushLocked(e *entry) {
	e.prev = s.tail
	if s.tail != nil {
		s.tail.next = e
	}
	s.tail = e
	if s.head == nil {
		s.head = e
	}
}

func (s *Store) publishLocked() {
	s.bytesGauge.Set(s.totalBytes)
	s.countGauge.Set(int64(len(s.entries)))
}

// evictOverflowLocked removes least-recently-used entries until the store
// fits its byte bound, returning the file paths to delete (deleted by the
// caller outside the lock).
func (s *Store) evictOverflowLocked() []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var paths []string
	for s.totalBytes > s.maxBytes && s.head != nil {
		e := s.head
		s.unlinkLocked(e)
		delete(s.entries, e.id)
		s.totalBytes -= e.size
		paths = append(paths, s.pathFor(e.id))
		s.evictions.Inc()
	}
	if len(paths) > 0 {
		s.publishLocked()
	}
	return paths
}

// evict removes one entry from index and disk — the corrupt-load path.
func (s *Store) evict(id string) {
	s.mu.Lock()
	s.dropLocked(id)
	s.mu.Unlock()
	os.Remove(s.pathFor(id))
}

// --- results and traces ---

// HasResult reports whether a result is stored under key, consulting the
// disk when the index misses (another process may have written it after
// this store opened). It never reads content, so a positive answer means
// "present", not "valid" — a later Load still revalidates.
func (s *Store) HasResult(key string) bool { return s.has(results.prefix + key) }

func (s *Store) has(id string) bool {
	s.mu.Lock()
	_, ok := s.entries[id]
	s.mu.Unlock()
	if ok {
		return true
	}
	info, err := os.Stat(s.pathFor(id))
	if err != nil {
		return false
	}
	s.mu.Lock()
	s.indexLocked(id, info.Size())
	s.mu.Unlock()
	return true
}

// LoadResult loads the result stored under key. ok is false on a clean
// miss. A non-nil error wrapping ErrCorrupt means the entry existed but
// failed revalidation and has been evicted; other errors are I/O
// failures.
func (s *Store) LoadResult(key string) (*sim.Result, bool, error) {
	return load(s, results, key, sim.DecodeResult)
}

// StoreResult persists r under key with the given fingerprint stamp. The
// stamp is normally r.Fingerprint(); fault injection may poison it, in
// which case every later load rejects the entry and the caller
// recomputes — the durable tier degrades to a recompute, never to
// serving bad data.
func (s *Store) StoreResult(key string, r *sim.Result, fingerprint uint64) error {
	return s.put(results, key, fingerprint, r.AppendBinary)
}

// LoadTrace loads the trace stored under key; semantics match LoadResult.
func (s *Store) LoadTrace(key string) (*trace.Trace, bool, error) {
	return load(s, traces, key, func(b []byte) (*trace.Trace, error) {
		return trace.ReadBinary(bytes.NewReader(b))
	})
}

// StoreTrace persists t under key with the given fingerprint stamp. Only
// bench/ calls it: the engine regenerates traces instead of storing them.
func (s *Store) StoreTrace(key string, t *trace.Trace, fingerprint uint64) error {
	return s.put(traces, key, fingerprint, func(b []byte) ([]byte, error) {
		buf := bytes.NewBuffer(b)
		err := trace.WriteBinary(buf, t)
		return buf.Bytes(), err
	})
}

// headerFixed is the header's fixed-width part: magic, schema, fingerprint.
const headerFixed = 4 + 1 + 8

// appendHeader appends an entry's header to b (see the package comment).
func appendHeader(b []byte, magic, key string, fingerprint uint64) []byte {
	b = append(b, magic...)
	b = append(b, SchemaVersion)
	b = binary.LittleEndian.AppendUint64(b, fingerprint)
	b = binary.AppendUvarint(b, uint64(len(key)))
	return append(b, key...)
}

// readHeader checks an entry's header against magic, this schema and key,
// and returns the stamped fingerprint and the payload that follows.
func readHeader(data []byte, magic, key string) (uint64, []byte, error) {
	if len(data) < headerFixed || string(data[:4]) != magic {
		return 0, nil, errors.New("bad header")
	}
	if data[4] != SchemaVersion {
		return 0, nil, fmt.Errorf("schema %d, want %d", data[4], SchemaVersion)
	}
	stamp := binary.LittleEndian.Uint64(data[5:headerFixed])
	rest := data[headerFixed:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return 0, nil, errors.New("bad header")
	}
	if string(rest[w:w+int(n)]) != key {
		return 0, nil, errors.New("envelope names another key")
	}
	return stamp, rest[w+int(n):], nil
}

// load reads the entry stored under key in ns, checks its header, decodes
// the payload and revalidates the decoded value's fingerprint against the
// stamp. Any failure after the read rejects the entry.
func load[T interface{ Fingerprint() uint64 }](s *Store, ns namespace, key string,
	decode func([]byte) (T, error)) (T, bool, error) {
	var v T
	id := ns.prefix + key
	data, ok, err := s.read(id)
	if !ok || err != nil {
		return v, false, err
	}
	stamp, payload, err := readHeader(data, ns.magic, key)
	if err == nil {
		v, err = decode(payload)
	}
	if err == nil && v.Fingerprint() != stamp {
		err = fmt.Errorf("fingerprint %#x, stamped %#x", v.Fingerprint(), stamp)
	}
	if err != nil {
		return *new(T), false, s.reject(id, err)
	}
	s.hit(id)
	return v, true, nil
}

// put writes the entry under key in ns: a header stamped with
// fingerprint, then the payload encode appends to it.
func (s *Store) put(ns namespace, key string, fingerprint uint64,
	encode func([]byte) ([]byte, error)) error {
	data, err := encode(appendHeader(nil, ns.magic, key, fingerprint))
	if err != nil {
		s.writeErrors.Inc()
		return fmt.Errorf("store: encode %s: %w", shortKey(key), err)
	}
	return s.write(ns.prefix+key, data)
}

// --- shared read/write machinery ---

// read returns the entry's bytes; ok is false on a clean miss (also
// repairing a stale index entry whose file another process evicted).
func (s *Store) read(id string) ([]byte, bool, error) {
	data, err := os.ReadFile(s.pathFor(id))
	if err != nil {
		s.mu.Lock()
		s.dropLocked(id)
		s.mu.Unlock()
		s.misses.Inc()
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read %s: %w", shortKey(id[2:]), err)
	}
	return data, true, nil
}

// hit records a validated load: the entry becomes most recently used.
func (s *Store) hit(id string) {
	s.hits.Inc()
	s.mu.Lock()
	if _, ok := s.entries[id]; !ok {
		// Found on disk but not yet indexed (written by another
		// process); adopt it so eviction accounting sees it.
		if info, err := os.Stat(s.pathFor(id)); err == nil {
			s.indexLocked(id, info.Size())
		}
	} else {
		s.touchLocked(id)
	}
	s.mu.Unlock()
}

// reject evicts a corrupt entry and returns the corruption error.
func (s *Store) reject(id string, cause error) error {
	s.rejected.Inc()
	s.evict(id)
	return &corruptError{key: id[2:], cause: cause}
}

// write atomically publishes data as the entry's file: temp file in the
// same directory, fsync, rename. Concurrent writers of one key are
// harmless — the key is a content address, so both rename identical
// payloads into place.
func (s *Store) write(id string, data []byte) error {
	path := s.pathFor(id)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.writeErrors.Inc()
		return fmt.Errorf("store: write %s: %w", shortKey(id[2:]), err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		s.writeErrors.Inc()
		return fmt.Errorf("store: write %s: %w", shortKey(id[2:]), err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		s.writeErrors.Inc()
		return fmt.Errorf("store: write %s: %w", shortKey(id[2:]), werr)
	}
	s.writes.Inc()
	s.mu.Lock()
	s.indexLocked(id, int64(len(data)))
	doomed := s.evictOverflowLocked()
	s.mu.Unlock()
	for _, p := range doomed {
		os.Remove(p)
	}
	return nil
}

// Stats is a snapshot of the store's population and lifetime counters.
type Stats struct {
	Dir      string `json:"dir"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes,omitempty"`

	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Rejected    int64 `json:"rejected"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	Evictions   int64 `json:"evictions"`
}

// Stats returns a snapshot of the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.totalBytes
	s.mu.Unlock()
	return Stats{
		Dir:         s.dir,
		Entries:     entries,
		Bytes:       bytes,
		MaxBytes:    s.maxBytes,
		Hits:        s.hits.Value(),
		Misses:      s.misses.Value(),
		Rejected:    s.rejected.Value(),
		Writes:      s.writes.Value(),
		WriteErrors: s.writeErrors.Value(),
		Evictions:   s.evictions.Value(),
	}
}
