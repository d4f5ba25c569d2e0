package verify

import (
	"strings"
	"testing"

	"dirsim/internal/core"
	"dirsim/internal/event"
	"dirsim/internal/trace"
)

func TestOpAndScheduleString(t *testing.T) {
	s := Schedule{{CPU: 0, Block: 1}, {CPU: 1, Block: 0, Write: true}}
	if got := s.String(); got != "R0@1 W1@0" {
		t.Errorf("String() = %q", got)
	}
}

func TestExploreBoundsValidation(t *testing.T) {
	factory := func() core.Protocol { return core.NewDir0B(2) }
	for _, cfg := range []Config{{0, 1, 1, false}, {1, 0, 1, false}, {1, 1, 0, false}} {
		if _, err := Explore(factory, cfg); err == nil {
			t.Errorf("bounds %+v accepted", cfg)
		}
	}
}

func TestExploreCountsSchedules(t *testing.T) {
	factory := func() core.Protocol { return core.NewDir0B(2) }
	cfg := Config{CPUs: 2, Blocks: 1, Depth: 3}
	res, err := Explore(factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alphabet = 2 cpus x 1 block x {R,W} = 4; 4^3 = 64 schedules.
	if res.Schedules != 64 {
		t.Errorf("schedules = %d, want 64", res.Schedules)
	}
	if res.Ops != 64*3 {
		t.Errorf("ops = %d, want 192", res.Ops)
	}
}

// TestExploreThreeCPUs widens the alphabet at reduced depth: 3 CPUs over
// 1 block exercise every ownership-transfer interleaving.
func TestExploreThreeCPUs(t *testing.T) {
	cfg := Config{CPUs: 3, Blocks: 1, Depth: 5}
	for _, name := range []string{"Dir0B", "DirNNB", "Dragon", "MESI", "Berkeley", "Firefly", "WTI", "Dir1NB"} {
		name := name
		factory := func() core.Protocol {
			p, err := core.NewByName(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		if _, err := Explore(factory, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// brokenProtocol deliberately violates coherence: writes do not
// invalidate other copies. The explorer must find a failing schedule and
// report it.
type brokenProtocol struct {
	core.Protocol
	checker *core.Checker
	holders map[trace.Block]map[uint8]bool
}

func newBroken() core.Protocol {
	return &brokenProtocol{holders: map[trace.Block]map[uint8]bool{}}
}

func (b *brokenProtocol) Name() string               { return "Broken" }
func (b *brokenProtocol) CPUs() int                  { return 4 }
func (b *brokenProtocol) SetChecker(c *core.Checker) { b.checker = c }
func (b *brokenProtocol) CheckInvariants() error     { return b.checker.Err() }

func (b *brokenProtocol) Access(r trace.Ref) event.Result {
	blk := r.Block()
	m := b.holders[blk]
	if m == nil {
		m = map[uint8]bool{}
		b.holders[blk] = m
	}
	if !m[r.CPU] {
		b.checker.FillFromMemory(r.CPU, blk)
		m[r.CPU] = true
	} else if r.Kind == trace.Read {
		b.checker.ReadHit(r.CPU, blk)
	}
	if r.Kind == trace.Write {
		// BUG: other holders keep their now-stale copies and no
		// write-back happens.
		b.checker.Write(r.CPU, blk)
	}
	return event.Result{}
}

func TestExploreFindsInjectedBug(t *testing.T) {
	res, err := Explore(newBroken, Config{CPUs: 2, Blocks: 1, Depth: 4})
	if err == nil {
		t.Fatal("explorer missed a deliberately broken protocol")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error is %T, want *Violation", err)
	}
	if len(v.Schedule) == 0 || len(v.Schedule) > 4 {
		t.Errorf("violation schedule length %d", len(v.Schedule))
	}
	if !strings.Contains(v.Error(), "schedule") {
		t.Errorf("Violation.Error() = %q", v.Error())
	}
	// The bug needs at most: R1, W0, R1 (stale read) — found well within
	// the explored count.
	if res.Schedules == 0 && res.Ops == 0 {
		t.Error("no work recorded before the violation")
	}
}
