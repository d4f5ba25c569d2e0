package workload

import (
	"testing"

	"dirsim/internal/trace"
)

func testConfig(seed uint64) Config {
	return Config{Name: "test", CPUs: 4, Refs: 120_000, Seed: seed, Profile: POPSProfile()}
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 120_000 {
		t.Errorf("trace too short: %d", tr.Len())
	}
	if tr.Len() > 140_000 {
		t.Errorf("trace overshoots target badly: %d", tr.Len())
	}
}

// A materialized trace is retained by whichever engine generated it, so
// its backing array must not carry capacity the generator never fills:
// one batch of slack at most, and never a second allocation.
func TestGenerateCapacityIsTight(t *testing.T) {
	for _, refs := range []int{1, 100, 4_000, 200_000} {
		for _, cfg := range StandardConfigs(4, refs) {
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := refs + min(refs/8, DefaultBatchRefs); cap(tr.Refs) > want && tr.Len() <= want {
				t.Errorf("%s refs=%d: cap %d for %d references, want at most %d",
					cfg.Name, refs, cap(tr.Refs), tr.Len(), want)
			}
		}
	}
	tr, err := Generate(POPSConfig(64, 200_000))
	if err != nil {
		t.Fatal(err)
	}
	if cap(tr.Refs) != 200_000+DefaultBatchRefs {
		t.Errorf("200k-reference trace regrew or over-reserved: len %d cap %d", tr.Len(), cap(tr.Refs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Refs {
		if a.Refs[i] != b.Refs[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
	c, err := Generate(testConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == c.Len() {
		same := true
		for i := range a.Refs {
			if a.Refs[i] != c.Refs[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := []Config{
		{Name: "x", CPUs: 0, Refs: 100, Profile: POPSProfile()},
		{Name: "x", CPUs: trace.MaxCPUs + 1, Refs: 100, Profile: POPSProfile()},
		{Name: "x", CPUs: 2, Refs: 0, Profile: POPSProfile()},
		{Name: "x", CPUs: 2, Refs: 100}, // zero profile fails validation
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good := POPSProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("POPS profile invalid: %v", err)
	}
	mutations := []func(*Profile){
		func(p *Profile) { p.DataPerInstr = 0 },
		func(p *Profile) { p.PrivBlocks = 0 },
		func(p *Profile) { p.SharedObjects = 0 },
		func(p *Profile) { p.ObjBlocks = 0 },
		func(p *Profile) { p.Locks = 0 },
		func(p *Profile) { p.CSMin = 0 },
		func(p *Profile) { p.CSMax = p.CSMin - 1 },
		func(p *Profile) { p.SpinBurst = 0 },
		func(p *Profile) { p.BurstMin = 0 },
		func(p *Profile) { p.BurstMax = p.BurstMin - 1 },
		func(p *Profile) { p.CodeBlocks = 0 },
		func(p *Profile) { p.LoopLen = 0 },
		func(p *Profile) { p.LockRegionBlocks = 0 },
	}
	for i, mutate := range mutations {
		p := POPSProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the profile", i)
		}
	}
}

func TestGeneratedMix(t *testing.T) {
	// The generated traces must stay near the paper's reference mix.
	for _, tr := range Standard(4, 150_000) {
		s := trace.ComputeStats(tr)
		if instr := s.Pct(s.Instr); instr < 44 || instr > 56 {
			t.Errorf("%s: instruction share %.1f%% out of range", tr.Name, instr)
		}
		if reads := s.Pct(s.Reads); reads < 32 || reads > 50 {
			t.Errorf("%s: read share %.1f%% out of range", tr.Name, reads)
		}
		if writes := s.Pct(s.Writes); writes < 5 || writes > 16 {
			t.Errorf("%s: write share %.1f%% out of range", tr.Name, writes)
		}
	}
}

func TestSpinBehaviourPerApp(t *testing.T) {
	pops := trace.ComputeStats(POPS(4, 150_000))
	thor := trace.ComputeStats(THOR(4, 150_000))
	pero := trace.ComputeStats(PERO(4, 150_000))
	// POPS and THOR spin heavily (paper: about a third of reads).
	for _, s := range []trace.Stats{pops, thor} {
		frac := float64(s.SpinReads) / float64(s.Reads)
		if frac < 0.15 || frac > 0.5 {
			t.Errorf("%s: spin fraction of reads %.2f out of range", s.Name, frac)
		}
	}
	// PERO barely locks at all.
	if frac := float64(pero.SpinReads) / float64(pero.Reads); frac > 0.05 {
		t.Errorf("pero spins too much: %.3f", frac)
	}
	// PERO shares much less than POPS/THOR.
	peroShared := float64(pero.SharedRefs) / float64(pero.Refs)
	popsShared := float64(pops.SharedRefs) / float64(pops.Refs)
	if peroShared > popsShared/2 {
		t.Errorf("pero sharing %.3f not clearly below pops %.3f", peroShared, popsShared)
	}
}

func TestLockProtocolWellFormed(t *testing.T) {
	// Per lock address: acquires and releases must alternate, starting
	// with an acquire, and spins only occur while the lock is held by a
	// different process.
	tr := POPS(4, 150_000)
	type lockState struct {
		held  bool
		owner uint16
	}
	locks := map[trace.Block]*lockState{}
	for i, r := range tr.Refs {
		if r.Kind == trace.Write && r.Flags.Has(trace.FlagAcquire) {
			l := locks[r.Block()]
			if l == nil {
				l = &lockState{}
				locks[r.Block()] = l
			}
			if l.held {
				t.Fatalf("ref %d: acquire of a held lock", i)
			}
			l.held = true
			l.owner = r.Proc
		}
		if r.Flags.Has(trace.FlagRelease) {
			l := locks[r.Block()]
			if l == nil || !l.held {
				t.Fatalf("ref %d: release of a free lock", i)
			}
			if l.owner != r.Proc {
				t.Fatalf("ref %d: release by non-owner", i)
			}
			l.held = false
		}
		if r.Flags.Has(trace.FlagSpin) {
			l := locks[r.Block()]
			if l == nil || !l.held {
				t.Fatalf("ref %d: spin on a free lock", i)
			}
			if l.owner == r.Proc {
				t.Fatalf("ref %d: owner spinning on its own lock", i)
			}
		}
	}
	if len(locks) == 0 {
		t.Fatal("no lock activity generated")
	}
}

func TestProcessPinnedToCPU(t *testing.T) {
	for _, r := range POPS(4, 50_000).Refs {
		if uint16(r.CPU) != r.Proc {
			t.Fatalf("process %d ran on CPU %d", r.Proc, r.CPU)
		}
	}
}

func TestAddressRegionsDisjoint(t *testing.T) {
	// Private regions must never be touched by another process.
	tr := THOR(4, 100_000)
	owner := map[trace.Block]uint16{}
	for i, r := range tr.Refs {
		if r.Addr >= privBase && r.Addr < sharedBase {
			if prev, ok := owner[r.Block()]; ok && prev != r.Proc {
				t.Fatalf("ref %d: private block %#x shared by procs %d and %d",
					i, r.Block(), prev, r.Proc)
			}
			owner[r.Block()] = r.Proc
		}
	}
}

func TestSystemShare(t *testing.T) {
	s := trace.ComputeStats(THOR(4, 150_000))
	if sys := s.Pct(s.System); sys < 2 || sys > 20 {
		t.Errorf("system share %.1f%% far from the paper's ~10%%", sys)
	}
}

func TestMustGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate should panic on a bad config")
		}
	}()
	MustGenerate(Config{})
}
