package dirsim_test

import (
	"bytes"
	"strings"
	"testing"

	"dirsim"
)

func TestExtendedSchemesViaFacade(t *testing.T) {
	tr := dirsim.Migratory(4, 4, 200)
	for _, scheme := range []string{"MESI", "Illinois", "Berkeley", "Firefly", "YenFu"} {
		res, err := dirsim.RunChecked(scheme, tr)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.PerRef(dirsim.PipelinedModel) <= 0 {
			t.Errorf("%s: migratory kernel should cost cycles", scheme)
		}
	}
}

func TestTopologiesViaFacade(t *testing.T) {
	topos := []dirsim.Topology{
		dirsim.BusTopology(8),
		dirsim.CrossbarTopology(8),
		dirsim.MeshTopology(2, 4),
		dirsim.TorusTopology(2, 4),
		dirsim.HypercubeTopology(3),
		dirsim.RingTopology(8),
	}
	for _, topo := range topos {
		if topo.Nodes != 8 {
			t.Errorf("%s: %d nodes", topo.Name, topo.Nodes)
		}
	}
	p, err := dirsim.NewScheme("DirNNB", 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := dirsim.ProducerConsumer(8, 8, 50)
	res, err := dirsim.RunProtocol(p, tr.Iterator(), dirsim.Options{Topologies: topos})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetTallies) != len(topos) {
		t.Fatalf("priced %d topologies, want %d", len(res.NetTallies), len(topos))
	}
	// Mesh traffic must exceed crossbar traffic (longer average paths).
	if res.NetTallies["mesh2x4"].PerRef() <= res.NetTallies["xbar8"].PerRef() {
		t.Error("mesh should cost more link-cycles than a crossbar")
	}
}

func TestFiniteDirViaFacade(t *testing.T) {
	p, err := dirsim.NewScheme("FiniteDirNNB:8k2w", 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := dirsim.POPS(4, 60_000)
	res, err := dirsim.RunProtocol(p, tr.Iterator(), dirsim.Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "FiniteDirNNB:8k2w" || res.CapacityMisses == 0 {
		t.Errorf("scheme = %q, %d capacity misses", res.Scheme, res.CapacityMisses)
	}
	if _, err := dirsim.NewScheme("FiniteDirNNB:0k2w", 4); err == nil {
		t.Error("zero cache size accepted")
	}
}

func TestWriteResultsCSVViaFacade(t *testing.T) {
	res, err := dirsim.Run("Dir0B", dirsim.PingPong(400))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dirsim.WriteResultsCSV(&buf, []*dirsim.Result{res}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Dir0B") {
		t.Error("CSV missing the scheme")
	}
}

func TestSchemesListIncludesComparators(t *testing.T) {
	names := strings.Join(dirsim.Schemes(), " ")
	for _, want := range []string{"mesi", "berkeley", "firefly", "yenfu", "dragon"} {
		if !strings.Contains(names, want) {
			t.Errorf("Schemes() missing %q: %s", want, names)
		}
	}
}

func TestSimulateContentionViaFacade(t *testing.T) {
	tr := dirsim.POPS(4, 40_000)
	s, txns, err := dirsim.SimulateContention("Dir0B", tr, dirsim.PaperContentionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if txns <= 0 || s.Span <= 0 {
		t.Errorf("degenerate stats: %+v (%d txns)", s, txns)
	}
	eff := s.EffectiveProcessors()
	if eff <= 1 || eff > 4 {
		t.Errorf("effective processors = %.2f, want in (1,4]", eff)
	}
	if _, _, err := dirsim.SimulateContention("NotAScheme", tr, dirsim.PaperContentionConfig()); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestConformanceViaFacade(t *testing.T) {
	err := dirsim.Conformance(func(ncpu int) dirsim.Protocol {
		p, err := dirsim.NewScheme("MESI", ncpu)
		if err != nil {
			panic(err)
		}
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVMProgramsViaFacade(t *testing.T) {
	cpus := 3
	progs := []*dirsim.VMProgram{
		dirsim.VMBarrier(dirsim.VMWord(cpus), 5),
		dirsim.VMBarrier(dirsim.VMWord(cpus), 5),
		dirsim.VMBarrier(dirsim.VMWord(cpus), 5),
	}
	m := &dirsim.VM{Programs: progs, Seed: 3}
	_, mem, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cpus; c++ {
		if mem[dirsim.VMWord(3+c)] != 5 {
			t.Errorf("cpu %d completed %d rounds", c, mem[dirsim.VMWord(3+c)])
		}
	}
	// Reduce with seeded input.
	rp := dirsim.VMReduce(4, 32)
	progs4 := []*dirsim.VMProgram{rp, rp, rp, rp}
	m2 := &dirsim.VM{Programs: progs4, Seed: 5, InitMem: dirsim.VMInitReduceMemory(32)}
	_, mem2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mem2[1] != 32*33/2 {
		t.Errorf("reduce total = %d", mem2[1])
	}
}

func TestVerifySchemeViaFacade(t *testing.T) {
	cfg := dirsim.VerifyConfig{CPUs: 2, Blocks: 1, Depth: 4}
	n, err := dirsim.VerifyScheme("Dir0B", 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 256 { // (2*1*2)^4
		t.Errorf("schedules = %d, want 256", n)
	}
}

// TestComparatorOrderingOnKernels pins down the qualitative relationships
// between the comparator protocols on kernels with known behaviour.
func TestComparatorOrderingOnKernels(t *testing.T) {
	perRef := func(scheme string, tr *dirsim.Trace) float64 {
		res, err := dirsim.Run(scheme, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRef(dirsim.PipelinedModel)
	}
	// Private read-modify-write data: MESI writes silently after its E
	// fill, Dir0B pays a directory check per upgrade.
	priv := dirsim.Private(4, 64, 20_000)
	if perRef("MESI", priv) > perRef("Dir0B", priv) {
		t.Error("MESI should beat Dir0B on private data (E state)")
	}
	// Producer-consumer: update protocols keep readers fresh.
	pc := dirsim.ProducerConsumer(4, 16, 100)
	if perRef("Firefly", pc) > perRef("MESI", pc) {
		t.Error("an update protocol should beat invalidation on producer-consumer")
	}
	// Migratory: Berkeley's dirty-sharing avoids the write-backs MESI
	// performs but pays cache-supply either way; both must beat WTI.
	mig := dirsim.Migratory(4, 8, 400)
	if perRef("Berkeley", mig) > perRef("WTI", mig) {
		t.Error("Berkeley should beat write-through on migratory data")
	}
}
