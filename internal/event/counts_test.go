package event

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountsAddAndPct(t *testing.T) {
	var c Counts
	c.Add(Instr, 1)
	c.Add(Instr, 1)
	c.Add(RdHit, 1)
	c.Add(WrMissClean, 1)
	if c.Total != 4 {
		t.Fatalf("Total = %d", c.Total)
	}
	if got := c.Pct(Instr); got != 50 {
		t.Errorf("Pct(Instr) = %v", got)
	}
	if got := c.Pct(RdHit); got != 25 {
		t.Errorf("Pct(RdHit) = %v", got)
	}
	if got := c.PctSum(RdHit, WrMissClean); got != 50 {
		t.Errorf("PctSum = %v", got)
	}
}

func TestCountsEmpty(t *testing.T) {
	var c Counts
	if c.Pct(Instr) != 0 || c.Reads() != 0 || c.DataMissRate() != 0 {
		t.Error("empty counts should report zeros")
	}
}

func TestCountsPartition(t *testing.T) {
	// instr + reads + writes must cover every reference.
	var c Counts
	for ty := Type(0); ty < NumTypes; ty++ {
		c.Add(ty, 1)
	}
	total := c.Pct(Instr) + c.Reads() + c.Writes()
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("partition covers %v%%, want 100%%", total)
	}
}

func TestCountsAddCounts(t *testing.T) {
	var a, b Counts
	a.Add(RdHit, 1)
	a.Add(Instr, 1)
	b.Add(RdHit, 1)
	a.AddCounts(b)
	if a.Total != 3 || a.N[RdHit] != 2 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestAggregateRates(t *testing.T) {
	var c Counts
	c.Add(RdMissClean, 1)
	c.Add(RdMissFirst, 1)
	c.Add(WrMissDirty, 1)
	c.Add(RdHit, 1)
	if got := c.ReadMisses(); got != 25 {
		t.Errorf("ReadMisses = %v, want 25 (first-refs excluded)", got)
	}
	if got := c.WriteMisses(); got != 25 {
		t.Errorf("WriteMisses = %v", got)
	}
	if got := c.DataMissRate(); got != 75 {
		t.Errorf("DataMissRate = %v, want 75 (first-refs included)", got)
	}
}

func TestCountsString(t *testing.T) {
	var c Counts
	c.Add(RdHit, 1)
	out := c.String()
	if !strings.Contains(out, "rd-hit") || !strings.Contains(out, "total") {
		t.Errorf("String() = %q", out)
	}
	if strings.Contains(out, "wh-distrib") {
		t.Error("zero-count events should be omitted")
	}
}

func TestHistObserveAndQueries(t *testing.T) {
	var h Hist
	for _, v := range []int{0, 1, 1, 1, 3} {
		h.Observe(v)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.Pct(1); got != 60 {
		t.Errorf("Pct(1) = %v", got)
	}
	if got := h.PctAtMost(1); got != 80 {
		t.Errorf("PctAtMost(1) = %v", got)
	}
	if got := h.PctAtMost(99); got != 100 {
		t.Errorf("PctAtMost(99) = %v", got)
	}
	if got := h.Mean(); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("Mean = %v, want 1.2", got)
	}
	if h.Pct(7) != 0 || h.Pct(-1) != 0 {
		t.Error("out-of-range Pct should be 0")
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Total() != 0 || h.Mean() != 0 || h.PctAtMost(3) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Observe(-1) should panic")
		}
	}()
	var h Hist
	h.Observe(-1)
}

func TestHistAddHist(t *testing.T) {
	var a, b Hist
	a.Observe(0)
	b.Observe(2)
	b.Observe(2)
	a.AddHist(b)
	if a.Total() != 3 || a.Buckets[2] != 2 {
		t.Errorf("AddHist wrong: %+v", a)
	}
}

func TestHistString(t *testing.T) {
	var h Hist
	h.Observe(1)
	h.Observe(0)
	out := h.String()
	if !strings.Contains(out, "0:") || !strings.Contains(out, "1:") {
		t.Errorf("String() = %q", out)
	}
}

func TestHistProperties(t *testing.T) {
	f := func(vals []uint8) bool {
		var h Hist
		sum := 0
		for _, v := range vals {
			h.Observe(int(v))
			sum += int(v)
		}
		if h.Total() != int64(len(vals)) {
			return false
		}
		if len(vals) > 0 {
			want := float64(sum) / float64(len(vals))
			if math.Abs(h.Mean()-want) > 1e-9 {
				return false
			}
		}
		// PctAtMost is monotone and reaches 100.
		prev := 0.0
		for v := 0; v <= 256; v++ {
			p := h.PctAtMost(v)
			if p+1e-9 < prev {
				return false
			}
			prev = p
		}
		return len(vals) == 0 || math.Abs(prev-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
