package workload

import (
	"errors"
	"strings"
	"testing"

	"dirsim/internal/trace"
)

func TestPingPong(t *testing.T) {
	tr := PingPong(100)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.CPUs != 2 || tr.Len() < 100 {
		t.Fatalf("cpus=%d len=%d", tr.CPUs, tr.Len())
	}
	// Strictly alternating CPU turns of read-then-write on one block.
	b := tr.Refs[0].Block()
	for i, r := range tr.Refs {
		if r.Block() != b {
			t.Fatalf("ref %d touches a second block", i)
		}
		wantKind := trace.Read
		if i%2 == 1 {
			wantKind = trace.Write
		}
		if r.Kind != wantKind {
			t.Fatalf("ref %d kind %v", i, r.Kind)
		}
		wantCPU := uint8(i / 2 % 2)
		if r.CPU != wantCPU {
			t.Fatalf("ref %d on cpu %d, want %d", i, r.CPU, wantCPU)
		}
	}
}

func TestMigratory(t *testing.T) {
	tr := Migratory(4, 8, 12)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 12*8*2 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Each round is a single CPU touching all blocks read+write.
	for round := 0; round < 12; round++ {
		cpu := uint8(round % 4)
		for i := 0; i < 16; i++ {
			r := tr.Refs[round*16+i]
			if r.CPU != cpu {
				t.Fatalf("round %d ref %d on cpu %d", round, i, r.CPU)
			}
		}
	}
}

func TestProducerConsumer(t *testing.T) {
	tr := ProducerConsumer(4, 8, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per round: 8 writes by CPU 0 then 3*8 reads by CPUs 1..3.
	if tr.Len() != 3*(8+3*8) {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 8; i++ {
		if tr.Refs[i].Kind != trace.Write || tr.Refs[i].CPU != 0 {
			t.Fatalf("ref %d: %v", i, tr.Refs[i])
		}
	}
	for i := 8; i < 32; i++ {
		if tr.Refs[i].Kind != trace.Read || tr.Refs[i].CPU == 0 {
			t.Fatalf("ref %d: %v", i, tr.Refs[i])
		}
	}
}

func TestReadShared(t *testing.T) {
	tr := ReadShared(4, 16, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, r := range tr.Refs {
		if r.Kind == trace.Write {
			writes++
		}
	}
	if writes != 16 {
		t.Errorf("expected exactly the initializing writes, got %d", writes)
	}
}

func TestPrivateNoSharing(t *testing.T) {
	tr := Private(4, 64, 10_000)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	owner := map[trace.Block]uint8{}
	for _, r := range tr.Refs {
		if prev, ok := owner[r.Block()]; ok && prev != r.CPU {
			t.Fatalf("block %#x shared between CPUs %d and %d", r.Block(), prev, r.CPU)
		}
		owner[r.Block()] = r.CPU
	}
}

func TestSpinContention(t *testing.T) {
	tr := SpinContention(4, 50, 6)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	if s.SpinReads == 0 || s.LockWrites == 0 {
		t.Fatalf("kernel generated no lock activity: %+v", s)
	}
	// Spins come from the non-owner CPUs only.
	for i, r := range tr.Refs {
		if r.Flags.Has(trace.FlagSpin) && r.CPU == 0 {
			t.Fatalf("ref %d: owner spinning", i)
		}
	}
}

// TestNamedKernels: each kernel name resolves to a seedless, profileless
// Config whose trace is the kernel at the sizes its (cpus, refs) give.
func TestNamedKernels(t *testing.T) {
	const cpus, refs = 4, 20_000
	for name, want := range map[string]*trace.Trace{
		"pingpong":    PingPong(refs),
		"migratory":   Migratory(cpus, 8, refs/16),
		"prodcons":    ProducerConsumer(cpus, 16, refs/(16*cpus)),
		"readshared":  ReadShared(cpus, 64, refs/(64*cpus)),
		"private":     Private(cpus, 256, refs),
		"spincontend": SpinContention(cpus, refs/(8*cpus), 8),
	} {
		cfg, err := Named(" "+strings.ToUpper(name), cpus, refs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Name != name || cfg.Seed != 0 || cfg.Profile != (Profile{}) || cfg.CPUs != want.CPUs {
			t.Errorf("%s: Named gave %+v", name, cfg)
		}
		got, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Name != name || got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: Generate gave %q (fingerprint %#x), want fingerprint %#x",
				name, got.Name, got.Fingerprint(), want.Fingerprint())
		}
	}
	if _, err := Named("bogus", cpus, refs); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestKernelConfigRules: a kernel has one Config per size — no seed, and
// pingpong only at 2 CPUs — and an adopted trace's Config validates but
// is never generated or streamed.
func TestKernelConfigRules(t *testing.T) {
	for name, cfg := range map[string]Config{
		"seeded kernel":         {Name: "migratory", CPUs: 4, Refs: 100, Seed: 3},
		"4-cpu pingpong":        {Name: "pingpong", CPUs: 4, Refs: 100},
		"no profile, no kernel": {Name: "pops", CPUs: 4, Refs: 100},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted %+v", name, cfg)
		}
	}
	adopted := Config{Name: AdoptedPrefix + "pops", CPUs: 4, Refs: 100, Seed: 0xfeed}
	if err := adopted.Validate(); err != nil {
		t.Errorf("adopted Config refused: %v", err)
	}
	if _, err := Generate(adopted); !errors.Is(err, ErrNotGenerable) {
		t.Errorf("Generate(adopted) = %v, want ErrNotGenerable", err)
	}
	kernel, _ := Named("migratory", 4, 1000)
	for _, cfg := range []Config{kernel, adopted} {
		if err := StreamBatches(cfg, 0, func([]trace.Ref) error { return nil }); err == nil {
			t.Errorf("StreamBatches accepted profileless %q", cfg.Name)
		}
	}
}
