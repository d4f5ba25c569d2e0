// Package cache implements a finite set-associative cache model. The
// paper's headline results use infinite caches (internal/core models those
// directly); Section 4 notes that finite-cache performance "can be
// estimated to first order by adding the costs due to the finite cache
// size". This package provides that estimate: it measures the extra
// misses a finite cache suffers beyond the infinite-cache cold misses, so
// the extension studies can add the corresponding memory traffic to any
// scheme's coherence cost.
package cache

import (
	"fmt"

	"dirsim/internal/trace"
)

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity. It must be a multiple of
	// trace.BlockBytes times Assoc.
	SizeBytes int
	// Assoc is the set associativity (1 = direct mapped).
	Assoc int
	// HashIndex selects a hashed set index (XOR-folding the high block
	// bits into the index) instead of the plain low bits. Real designs
	// use index hashing to break pathological alignments; it matters
	// here because the synthetic address-space regions are aligned to
	// large powers of two.
	HashIndex bool
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	return c.SizeBytes / (trace.BlockBytes * c.Assoc)
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	}
	if c.SizeBytes < trace.BlockBytes*c.Assoc {
		return fmt.Errorf("cache: size %d too small for associativity %d", c.SizeBytes, c.Assoc)
	}
	sets := c.Sets()
	if sets*trace.BlockBytes*c.Assoc != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of block*assoc", c.SizeBytes)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Set headers are made a page at a time, on first touch, so a cache's
// memory follows the sets a trace touches rather than its size: a 4 MiB
// direct-mapped cache has 262144 sets, 6 MiB of headers, and a 64-CPU
// simulation builds 64 of them. With a hashed index the touched sets are
// scattered, so pages are small: 64 headers, 1.5 KiB.
const (
	setPageBits = 6
	setPageSize = 1 << setPageBits
)

type setPage [setPageSize][]trace.Block

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg  Config
	mask uint64
	// pages[s>>setPageBits][s&(setPageSize-1)] holds the blocks of set
	// s in LRU order: index 0 is the most recently used. The page list
	// is made on the first Access, so an engine built only to validate
	// its scheme name pays for no set, and each page when one of its
	// sets is first filled.
	pages []*setPage
}

// New builds a cache; it panics on an invalid configuration (callers
// validate user-supplied configurations first).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{cfg: cfg, mask: uint64(cfg.Sets() - 1)}
}

// setOf returns the set index for a block.
func (c *Cache) setOf(b trace.Block) uint64 {
	v := uint64(b)
	if c.cfg.HashIndex {
		v ^= v >> 17
		v ^= v >> 33
		v *= 0x9e3779b97f4a7c15
		v ^= v >> 29
	}
	return v & c.mask
}

// ways returns the blocks of the set b maps to, or nil when no block of
// its page was ever cached.
func (c *Cache) ways(b trace.Block) []trace.Block {
	if c.pages == nil {
		return nil
	}
	s := c.setOf(b)
	if pg := c.pages[s>>setPageBits]; pg != nil {
		return pg[s&(setPageSize-1)]
	}
	return nil
}

// set returns the header of the set b maps to, making its page first if
// needed.
func (c *Cache) set(b trace.Block) *[]trace.Block {
	s := c.setOf(b)
	if c.pages == nil {
		c.pages = make([]*setPage, (c.mask>>setPageBits)+1)
	}
	pg := c.pages[s>>setPageBits]
	if pg == nil {
		pg = new(setPage)
		c.pages[s>>setPageBits] = pg
	}
	return &pg[s&(setPageSize-1)]
}

// Access touches block b, filling it on a miss. It reports whether the
// access hit, and the victim evicted to make room (evicted is false when
// an empty way was available).
func (c *Cache) Access(b trace.Block) (hit bool, victim trace.Block, evicted bool) {
	set := c.set(b)
	ways := *set
	for i, blk := range ways {
		if blk == b {
			// Move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = b
			return true, 0, false
		}
	}
	if len(ways) < c.cfg.Assoc {
		ways = append(ways, 0)
		copy(ways[1:], ways)
		ways[0] = b
		*set = ways
		return false, 0, false
	}
	victim = ways[len(ways)-1]
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = b
	return false, victim, true
}

// Contains reports whether block b is resident (without touching LRU
// state).
func (c *Cache) Contains(b trace.Block) bool {
	for _, blk := range c.ways(b) {
		if blk == b {
			return true
		}
	}
	return false
}

// Invalidate removes block b if present, reporting whether it was.
func (c *Cache) Invalidate(b trace.Block) bool {
	ways := c.ways(b)
	for i, blk := range ways {
		if blk == b {
			*c.set(b) = append(ways[:i], ways[i+1:]...)
			return true
		}
	}
	return false
}
