package service

import (
	"context"
	"encoding/json"
	"testing"

	"dirsim/internal/sim"
	"dirsim/internal/workload"
)

// TestSpecExpandKernels: a sweep names a microkernel like a paper trace.
// migratory at 8 CPUs expands and runs to the kernel's own numbers;
// pingpong at CPUs [2,4] is one 2-CPU trace, so it collapses to one spec
// per scheme; and a kernel with a seed is refused, since a seed would
// give one kernel trace two keys.
func TestSpecExpandKernels(t *testing.T) {
	schemes := []string{"Dir0B", "Dragon"}
	const refs = 8_000

	specs, meta, err := Spec{Schemes: schemes,
		Workloads: []WorkloadSpec{{Name: "pingpong", CPUs: []int{2, 4}, Refs: refs}}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(schemes) {
		t.Fatalf("pingpong at [2,4] expanded to %d specs, want %d", len(specs), len(schemes))
	}
	for i, sp := range specs {
		if sp.Trace.CPUs != 2 || meta[i].CPUs != 2 {
			t.Errorf("spec %d: trace %d cpus, meta %d cpus, want 2", i, sp.Trace.CPUs, meta[i].CPUs)
		}
	}

	seeded := Spec{Schemes: schemes,
		Workloads: []WorkloadSpec{{Name: "pingpong", CPUs: []int{2}, Refs: refs, Seed: 3}}}
	if _, _, err := seeded.Expand(); err == nil {
		t.Error("a seeded kernel expanded")
	}

	svc := newTestService(t, Config{})
	svc.Start()
	defer svc.Drain(context.Background())
	ts := startHTTP(t, svc)
	_, body := postSpec(t, ts.URL, "t", Spec{Schemes: schemes,
		Workloads: []WorkloadSpec{{Name: "migratory", CPUs: []int{8}, Refs: refs}}})
	var st ExperimentStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone || len(final.Results) != len(schemes) {
		t.Fatalf("state %s, %d results: %s", final.State, len(final.Results), final.Error)
	}
	for _, r := range final.Results {
		want, err := sim.SimulateTrace(r.Scheme, workload.Migratory(8, 8, refs/16), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.CPUs != 8 || r.Result.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s over migratory at %d cpus: fingerprint %#x, the kernel's %#x",
				r.Scheme, r.CPUs, r.Result.Fingerprint(), want.Fingerprint())
		}
	}
}
