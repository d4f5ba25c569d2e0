package service

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"dirsim/internal/core"
)

// FuzzSpecExpand: a submitted body goes through handleSubmit's decode
// (1 MiB bound, no unknown fields) and Spec.Expand without a panic.
// Every simulation a spec expands to has a machine size the simulator
// accepts and a scheme whose engine name names it again, the expansion
// stays within its cap, and the experiment's identity survives
// re-encoding the spec and decoding it again.
func FuzzSpecExpand(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		specs, meta, err := spec.Expand()
		if err != nil {
			return
		}
		if len(specs) != len(meta) || len(specs) == 0 || len(specs) > maxSpecsPerExperiment {
			t.Fatalf("%d specs, %d meta rows (cap %d)", len(specs), len(meta), maxSpecsPerExperiment)
		}
		for _, sp := range specs {
			if sp.Trace.CPUs < 1 || sp.Trace.CPUs > core.MaxCPUs {
				t.Fatalf("spec expanded to %d CPUs, outside [1, %d]", sp.Trace.CPUs, core.MaxCPUs)
			}
			// The engine's name is the scheme's canonical spelling: it
			// names the same engine again.
			p, err := core.NewByName(sp.Scheme, sp.Trace.CPUs)
			if err != nil {
				t.Fatalf("expanded scheme %q does not build: %v", sp.Scheme, err)
			}
			if q, err := core.NewByName(p.Name(), sp.Trace.CPUs); err != nil || q.Name() != p.Name() {
				t.Fatalf("canonical name %q does not round-trip: %v", p.Name(), err)
			}
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		_, meta2, err := again.Expand()
		if err != nil {
			t.Fatalf("re-encoded spec %s does not expand: %v", enc, err)
		}
		if ExperimentID(meta) != ExperimentID(meta2) {
			t.Fatalf("experiment ID changed across re-encoding: %s", enc)
		}
	})
}
