package core

import (
	"strings"
	"testing"

	"dirsim/internal/trace"
)

func TestCheckerNilIsSafe(t *testing.T) {
	var c *Checker
	// All methods must be no-ops on nil.
	c.ReadHit(0, 1)
	c.FillFromMemory(0, 1)
	c.FillFromCache(0, 1, 1)
	c.Write(0, 1)
	c.WriteThrough(0, 1)
	c.WriteBack(0, 1)
	c.Invalidate(0, 1)
	c.UpdateSharers(1)
	if c.Err() != nil {
		t.Error("nil checker should have no error")
	}
}

func TestCheckerHappyPath(t *testing.T) {
	c := NewChecker()
	b := trace.Block(5)
	c.FillFromMemory(0, b)
	c.Write(0, b)
	c.ReadHit(0, b)
	c.WriteBack(0, b)
	c.FillFromMemory(1, b)
	c.ReadHit(1, b)
	if err := c.Err(); err != nil {
		t.Fatalf("clean sequence flagged: %v", err)
	}
	if hv := c.copies[b]; len(hv) != 2 || hv[0] != hv[1] {
		t.Errorf("holder versions: %v", hv)
	}
}

func checkerError(t *testing.T, want string, ops func(*Checker)) {
	t.Helper()
	c := NewChecker()
	ops(c)
	err := c.Err()
	if err == nil {
		t.Fatalf("expected %q violation", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func TestCheckerCatchesStaleRead(t *testing.T) {
	checkerError(t, "stale", func(c *Checker) {
		b := trace.Block(1)
		c.FillFromMemory(0, b)
		c.FillFromMemory(1, b)
		c.Write(0, b) // cache 1 now stale; no invalidate/update issued
		c.ReadHit(1, b)
	})
}

func TestCheckerCatchesStaleMemorySupply(t *testing.T) {
	checkerError(t, "memory supplied stale", func(c *Checker) {
		b := trace.Block(2)
		c.FillFromMemory(0, b)
		c.Write(0, b)
		// No write-back, yet the protocol fills another cache from
		// memory: stale.
		c.FillFromMemory(1, b)
	})
}

func TestCheckerCatchesReadWithoutCopy(t *testing.T) {
	checkerError(t, "does not hold", func(c *Checker) {
		c.ReadHit(3, trace.Block(9))
	})
}

func TestCheckerCatchesWriteWithoutCopy(t *testing.T) {
	checkerError(t, "without holding", func(c *Checker) {
		c.Write(2, trace.Block(4))
	})
}

func TestCheckerCatchesStaleCacheSupply(t *testing.T) {
	checkerError(t, "stale", func(c *Checker) {
		b := trace.Block(7)
		c.FillFromMemory(0, b)
		c.FillFromMemory(1, b)
		c.Write(0, b)
		// Cache 1's stale copy supplies a third cache.
		c.FillFromCache(2, 1, b)
	})
}

func TestCheckerCatchesSupplierWithoutCopy(t *testing.T) {
	checkerError(t, "does not hold", func(c *Checker) {
		c.FillFromCache(0, 1, trace.Block(8))
	})
}

func TestCheckerCatchesWriteBackWithoutCopy(t *testing.T) {
	checkerError(t, "does not hold", func(c *Checker) {
		c.WriteBack(0, trace.Block(6))
	})
}

func TestCheckerInvalidateClearsCopy(t *testing.T) {
	c := NewChecker()
	b := trace.Block(3)
	c.FillFromMemory(0, b)
	c.FillFromMemory(1, b)
	c.Write(0, b)
	c.Invalidate(1, b) // the protocol did the right thing
	c.WriteBack(0, b)
	c.FillFromMemory(1, b)
	c.ReadHit(1, b)
	if err := c.Err(); err != nil {
		t.Fatalf("invalidate-then-refill flagged: %v", err)
	}
}

func TestCheckerUpdateSharers(t *testing.T) {
	c := NewChecker()
	b := trace.Block(11)
	c.FillFromMemory(0, b)
	c.FillFromMemory(1, b)
	c.Write(0, b)
	c.UpdateSharers(b) // Dragon-style update
	c.ReadHit(1, b)
	if err := c.Err(); err != nil {
		t.Fatalf("updated sharer flagged stale: %v", err)
	}
}

func TestCheckerWriteThrough(t *testing.T) {
	c := NewChecker()
	b := trace.Block(12)
	c.FillFromMemory(0, b)
	c.Write(0, b)
	c.WriteThrough(0, b)
	c.FillFromMemory(1, b) // memory is current: fine
	if err := c.Err(); err != nil {
		t.Fatalf("write-through path flagged: %v", err)
	}
}

func TestCheckerKeepsFirstError(t *testing.T) {
	c := NewChecker()
	c.ReadHit(0, 1) // first violation
	first := c.Err()
	c.Write(5, 2) // second violation
	if c.Err() != first {
		t.Error("checker should retain the first violation")
	}
}
