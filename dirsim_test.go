package dirsim_test

import (
	"strings"
	"testing"

	"dirsim"
)

func TestGenerateWorkload(t *testing.T) {
	for _, name := range []string{"pops", "THOR", "Pero"} {
		tr, err := dirsim.GenerateWorkload(name, 4, 50_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() < 50_000 || tr.CPUs != 4 {
			t.Errorf("%s: len=%d cpus=%d", name, tr.Len(), tr.CPUs)
		}
	}
	for name, cpus := range map[string]int{"Migratory": 4, "pingpong": 2} {
		tr, err := dirsim.GenerateWorkload(name, 4, 2_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.CPUs != cpus || tr.Name != strings.ToLower(name) {
			t.Errorf("%s: trace %q, %d cpus", name, tr.Name, tr.CPUs)
		}
	}
	if _, err := dirsim.GenerateWorkload("doom", 4, 1000); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunAndRunChecked(t *testing.T) {
	tr := dirsim.PingPong(2_000)
	res, err := dirsim.Run("Dir0B", tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRef(dirsim.PipelinedModel) <= 0 {
		t.Error("pingpong should cost bus cycles")
	}
	if _, err := dirsim.RunChecked("Dragon", tr); err != nil {
		t.Errorf("checked Dragon run failed: %v", err)
	}
	if _, err := dirsim.Run("NotAScheme", tr); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestNewSchemeAndSchemes(t *testing.T) {
	names := dirsim.Schemes()
	if len(names) < 5 {
		t.Fatalf("Schemes() = %v", names)
	}
	for _, n := range names {
		p, err := dirsim.NewScheme(n, 4)
		if err != nil {
			t.Errorf("NewScheme(%q): %v", n, err)
			continue
		}
		if p.CPUs() != 4 {
			t.Errorf("%s: cpus = %d", n, p.CPUs())
		}
	}
}

func TestRunProtocolWithFilter(t *testing.T) {
	tr := dirsim.SpinContention(4, 200, 6)
	p, err := dirsim.NewScheme("Dir1NB", 4)
	if err != nil {
		t.Fatal(err)
	}
	with, err := dirsim.RunProtocol(p, tr.Iterator(), dirsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := dirsim.NewScheme("Dir1NB", 4)
	without, err := dirsim.RunProtocol(p2, dirsim.WithoutSpins(tr.Iterator()), dirsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if without.PerRef(dirsim.PipelinedModel) >= with.PerRef(dirsim.PipelinedModel) {
		t.Error("removing spins should reduce Dir1NB's cost")
	}
}

func TestCoarseVectorViaFacade(t *testing.T) {
	p := dirsim.NewCoarseVector(8)
	tr := dirsim.Migratory(8, 4, 200)
	res, err := dirsim.RunProtocol(p, tr.Iterator(), dirsim.Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "DirCV" {
		t.Errorf("scheme = %q", res.Scheme)
	}
}

func TestBusModels(t *testing.T) {
	p, n := dirsim.Pipelined(), dirsim.NonPipelined()
	if p.Name != dirsim.PipelinedModel || n.Name != dirsim.NonPipelinedModel {
		t.Error("model names disagree with the facade constants")
	}
	if p.MemAccess >= n.MemAccess {
		t.Error("the pipelined bus should be faster")
	}
}

func TestStandardTraces(t *testing.T) {
	ts := dirsim.StandardTraces(4, 30_000)
	if len(ts) != 3 {
		t.Fatalf("got %d traces", len(ts))
	}
	names := []string{ts[0].Name, ts[1].Name, ts[2].Name}
	want := "pops thor pero"
	if strings.Join(names, " ") != want {
		t.Errorf("names = %v", names)
	}
}

func TestGenerateCustom(t *testing.T) {
	cfg := dirsim.WorkloadConfig{Name: "mini", CPUs: 2, Refs: 10_000, Seed: 7}
	if _, err := dirsim.GenerateCustom(cfg); err == nil {
		t.Error("zero profile should fail validation")
	}
	tr, err := dirsim.GenerateWorkload("pops", 2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CPUs != 2 {
		t.Error("cpu count not honoured")
	}
}

func TestExperimentsFacade(t *testing.T) {
	exps := dirsim.Experiments()
	if len(exps) < 15 {
		t.Fatalf("experiments: %d", len(exps))
	}
	ctx := dirsim.NewExperimentContext(30_000, 4)
	out, err := ctx.RunExperiment(exps[0]) // table3 is cheap
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pops") {
		t.Errorf("table3 output: %s", out)
	}
}

// TestEndToEndPaperShape is the facade-level integration test: the
// reproduction's central claims hold on freshly generated traces.
func TestEndToEndPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	perRef := map[string]float64{}
	for _, scheme := range []string{"Dir1NB", "WTI", "Dir0B", "Dragon"} {
		var totalCycles, totalRefs float64
		for _, tr := range dirsim.StandardTraces(4, 150_000) {
			res, err := dirsim.Run(scheme, tr)
			if err != nil {
				t.Fatal(err)
			}
			totalCycles += res.PerRef(dirsim.PipelinedModel) * float64(res.Counts.Total)
			totalRefs += float64(res.Counts.Total)
		}
		perRef[scheme] = totalCycles / totalRefs
	}
	if !(perRef["Dir1NB"] > perRef["WTI"] &&
		perRef["WTI"] > perRef["Dir0B"] &&
		perRef["Dir0B"] > perRef["Dragon"]) {
		t.Errorf("paper ordering broken: %v", perRef)
	}
	// Dir1NB is several times worse than Dir0B (paper: ~6.5x; accept >2.5x).
	if perRef["Dir1NB"] < 2.5*perRef["Dir0B"] {
		t.Errorf("Dir1NB/Dir0B = %.2f, expected the paper's large gap",
			perRef["Dir1NB"]/perRef["Dir0B"])
	}
}
