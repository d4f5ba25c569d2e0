package core

import (
	"fmt"

	"dirsim/internal/trace"
)

// Checker verifies value coherence as a protocol engine runs: every read
// must observe the most recently written value of its block, regardless of
// which cache or memory supplies the data. Engines call the Checker's
// methods at the points where a real implementation would move data; the
// Checker models versions (a counter per block, bumped on every write) and
// records the first violation.
//
// A nil *Checker is valid and all methods are no-ops on it, so engines can
// call unconditionally. The five an unchecked miss or hit reaches (ReadHit,
// FillFromMemory, FillFromCache, Write, WriteBack) are a nil test that
// inlines into the caller and an out-of-line body, so an unchecked
// engine pays a compare, not a call (make inline-check keeps it so).
type Checker struct {
	latest map[trace.Block]uint64           // version produced by the last write
	memory map[trace.Block]uint64           // version main memory holds
	copies map[trace.Block]map[uint8]uint64 // version each cache holds
	err    error
}

// NewChecker returns an empty coherence checker.
func NewChecker() *Checker {
	return &Checker{
		latest: make(map[trace.Block]uint64),
		memory: make(map[trace.Block]uint64),
		copies: make(map[trace.Block]map[uint8]uint64),
	}
}

// Err returns the first coherence violation observed, or nil.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

func (c *Checker) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("coherence: "+format, args...)
	}
}

func (c *Checker) blockCopies(b trace.Block) map[uint8]uint64 {
	m := c.copies[b]
	if m == nil {
		m = make(map[uint8]uint64, 2)
		c.copies[b] = m
	}
	return m
}

// ReadHit asserts that cpu's cached copy of b carries the latest value.
func (c *Checker) ReadHit(cpu uint8, b trace.Block) {
	if c != nil {
		c.readHit(cpu, b)
	}
}

func (c *Checker) readHit(cpu uint8, b trace.Block) {
	v, ok := c.copies[b][cpu]
	if !ok {
		c.fail("read hit by cpu %d on block %#x it does not hold", cpu, b)
		return
	}
	if want := c.latest[b]; v != want {
		c.fail("cpu %d read stale version %d of block %#x (latest %d)", cpu, v, b, want)
	}
}

// FillFromMemory models a miss satisfied by main memory and asserts memory
// holds the latest value.
func (c *Checker) FillFromMemory(cpu uint8, b trace.Block) {
	if c != nil {
		c.fillFromMemory(cpu, b)
	}
}

func (c *Checker) fillFromMemory(cpu uint8, b trace.Block) {
	v := c.memory[b]
	if want := c.latest[b]; v != want {
		c.fail("memory supplied stale version %d of block %#x to cpu %d (latest %d)", v, b, cpu, want)
	}
	c.blockCopies(b)[cpu] = v
}

// FillFromCache models a miss satisfied cache-to-cache (or via a write-back
// the requester snarfs) and asserts the supplier holds the latest value.
func (c *Checker) FillFromCache(cpu, supplier uint8, b trace.Block) {
	if c != nil {
		c.fillFromCache(cpu, supplier, b)
	}
}

func (c *Checker) fillFromCache(cpu, supplier uint8, b trace.Block) {
	v, ok := c.copies[b][supplier]
	if !ok {
		c.fail("cpu %d supplied block %#x it does not hold", supplier, b)
		return
	}
	if want := c.latest[b]; v != want {
		c.fail("cpu %d supplied stale version %d of block %#x (latest %d)", supplier, v, b, want)
	}
	c.blockCopies(b)[cpu] = v
}

// Write models cpu writing b. The writer must hold a copy (engines fill
// before writing); the write produces a new latest version held by the
// writer alone unless the protocol updates sharers (see UpdateSharers).
func (c *Checker) Write(cpu uint8, b trace.Block) {
	if c != nil {
		c.write(cpu, b)
	}
}

func (c *Checker) write(cpu uint8, b trace.Block) {
	m := c.blockCopies(b)
	if _, ok := m[cpu]; !ok {
		c.fail("cpu %d wrote block %#x without holding a copy", cpu, b)
	}
	c.latest[b]++
	m[cpu] = c.latest[b]
}

// WriteThrough models the written value propagating to memory (WTI).
func (c *Checker) WriteThrough(cpu uint8, b trace.Block) {
	if c == nil {
		return
	}
	c.memory[b] = c.latest[b]
}

// WriteBack models owner flushing its copy of b to memory.
func (c *Checker) WriteBack(owner uint8, b trace.Block) {
	if c != nil {
		c.writeBack(owner, b)
	}
}

func (c *Checker) writeBack(owner uint8, b trace.Block) {
	v, ok := c.copies[b][owner]
	if !ok {
		c.fail("cpu %d wrote back block %#x it does not hold", owner, b)
		return
	}
	c.memory[b] = v
}

// Invalidate models cpu losing its copy of b.
func (c *Checker) Invalidate(cpu uint8, b trace.Block) {
	if c == nil {
		return
	}
	delete(c.copies[b], cpu)
}

// invalidateAll models every cache in victims losing its copy of b, in
// ascending CPU order.
func (c *Checker) invalidateAll(victims Set, b trace.Block) {
	if c == nil {
		return
	}
	for v := uint8(0); victims != 0; v, victims = v+1, victims>>1 {
		if victims&1 != 0 {
			c.Invalidate(v, b)
		}
	}
}

// UpdateSharers models a Dragon-style update: every cache currently holding
// b receives the latest value.
func (c *Checker) UpdateSharers(b trace.Block) {
	if c == nil {
		return
	}
	v := c.latest[b]
	for cpu := range c.copies[b] {
		c.copies[b][cpu] = v
	}
}
