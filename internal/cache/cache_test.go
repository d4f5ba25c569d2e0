package cache

import (
	"testing"
	"testing/quick"

	"dirsim/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 1024, Assoc: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.Sets() != 32 {
		t.Errorf("Sets = %d, want 32", good.Sets())
	}
	bad := []Config{
		{SizeBytes: 1024, Assoc: 0},
		{SizeBytes: 8, Assoc: 1},          // smaller than one block
		{SizeBytes: 1000, Assoc: 1},       // not a multiple
		{SizeBytes: 3 * 16 * 2, Assoc: 2}, // 3 sets: not a power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid config")
		}
	}()
	New(Config{SizeBytes: 0, Assoc: 1})
}

func TestLRUExactBehaviour(t *testing.T) {
	// One set, two ways: classic LRU sequence. Blocks 0, 4, 8 all map to
	// set 0 of a 4-set direct... use a 1-set cache: 2 blocks capacity.
	c := New(Config{SizeBytes: 32, Assoc: 2}) // 1 set, 2 ways
	access := func(b trace.Block) (bool, trace.Block, bool) { return c.Access(b) }

	if hit, _, _ := access(1); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := access(2); hit {
		t.Error("cold access hit")
	}
	if hit, _, _ := access(1); !hit {
		t.Error("resident block missed")
	}
	// LRU is now 2; filling 3 must evict 2.
	hit, victim, evicted := access(3)
	if hit || !evicted || victim != 2 {
		t.Errorf("expected eviction of 2: hit=%v victim=%v evicted=%v", hit, victim, evicted)
	}
	if c.Contains(2) {
		t.Error("evicted block still resident")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("resident set wrong")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 64, Assoc: 2})
	c.Access(5)
	if !c.Invalidate(5) {
		t.Error("Invalidate missed a resident block")
	}
	if c.Invalidate(5) {
		t.Error("double invalidate reported success")
	}
	if c.Contains(5) {
		t.Error("block still present after invalidate")
	}
	if hit, _, _ := c.Access(5); hit {
		t.Error("access after invalidate hit")
	}
}

func TestAccessReportsHits(t *testing.T) {
	c := New(Config{SizeBytes: 64, Assoc: 2})
	hits := 0
	for _, b := range []trace.Block{1, 1, 2} {
		if hit, _, evicted := c.Access(b); hit {
			hits++
		} else if evicted {
			t.Errorf("access to %d evicted with a way free", b)
		}
	}
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

// resident counts the blocks the cache holds.
func resident(c *Cache) int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			for _, ways := range pg {
				n += len(ways)
			}
		}
	}
	return n
}

func TestResidentNeverExceedsCapacity(t *testing.T) {
	f := func(blocks []uint16, hashed bool) bool {
		c := New(Config{SizeBytes: 512, Assoc: 2, HashIndex: hashed}) // 32 blocks
		for _, b := range blocks {
			c.Access(trace.Block(b))
		}
		return resident(c) <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccessedBlockAlwaysResident(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New(Config{SizeBytes: 256, Assoc: 4})
		for _, b := range blocks {
			c.Access(trace.Block(b))
			if !c.Contains(trace.Block(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHashIndexSpreadsAlignedRegions(t *testing.T) {
	// Blocks that collide in the plain index (same low bits, different
	// regions) should mostly land in different sets with hashing.
	// The working set is half the cache, but eight aligned regions pile
	// eight blocks onto each plain set (four ways): constant eviction.
	plain := New(Config{SizeBytes: 32 * 1024, Assoc: 4})
	hashed := New(Config{SizeBytes: 32 * 1024, Assoc: 4, HashIndex: true})
	var plainEvicts, hashedEvicts int
	for round := 0; round < 8; round++ {
		for off := 0; off < 128; off++ {
			for region := 0; region < 8; region++ {
				b := trace.Block(uint64(region)<<20 | uint64(off))
				if _, _, evicted := plain.Access(b); evicted {
					plainEvicts++
				}
				if _, _, evicted := hashed.Access(b); evicted {
					hashedEvicts++
				}
			}
		}
	}
	if plainEvicts == 0 {
		t.Fatal("expected the plain index to thrash on aligned regions")
	}
	if hashedEvicts*4 > plainEvicts {
		t.Errorf("hashing did not help: plain %d evicts, hashed %d", plainEvicts, hashedEvicts)
	}
}

func TestMRUOrdering(t *testing.T) {
	// Re-accessing a block must protect it from the next eviction.
	c := New(Config{SizeBytes: 32, Assoc: 2}) // 1 set, 2 ways
	c.Access(1)
	c.Access(2)
	c.Access(1)                  // 1 becomes MRU
	_, victim, ev := c.Access(3) // must evict 2, not 1
	if !ev || victim != 2 {
		t.Errorf("victim = %v (evicted %v), want 2", victim, ev)
	}
}
