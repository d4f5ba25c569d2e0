package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"dirsim/internal/engine"
	"dirsim/internal/workload"
)

// Spec is the request body of POST /api/v1/experiments: a scheme ×
// workload × CPU-count sweep in the paper's vocabulary. The cross
// product of Schemes, Workloads and each workload's CPUs expands to one
// simulation per cell.
type Spec struct {
	// Schemes names the coherence schemes to sweep, in the paper's
	// notation ("Dir0B", "Dir1NB", "WTI", ...).
	Schemes []string `json:"schemes"`
	// Workloads names the synthetic traces to drive them with.
	Workloads []WorkloadSpec `json:"workloads"`
	// Check enables the value-coherence checker on every simulation.
	Check bool `json:"check,omitempty"`
	// BlockBytes rescales the block size, and fills are priced at it
	// (see engine.SimSpec.BlockBytes); 0 keeps the native 16 bytes.
	BlockBytes int `json:"block_bytes,omitempty"`
	// Priority orders the experiment under the priority discipline
	// (larger runs sooner); ignored under FCFS. Not part of the
	// experiment's identity.
	Priority int `json:"priority,omitempty"`
}

// WorkloadSpec selects one named workload (workload.Named) at one or
// more machine sizes.
type WorkloadSpec struct {
	// Name is a paper trace ("pops", "thor", "pero") or a microkernel
	// ("pingpong", "migratory", ...), case-insensitive.
	Name string `json:"name"`
	// CPUs lists the machine sizes to generate the trace for; pingpong
	// has 2 CPUs at every size.
	CPUs []int `json:"cpus"`
	// Refs is the approximate trace length in references.
	Refs int `json:"refs"`
	// Seed overrides a paper trace's default RNG seed when non-zero; a
	// kernel takes none.
	Seed uint64 `json:"seed,omitempty"`
}

// maxSpecsPerExperiment caps the expansion so one request cannot occupy
// the service indefinitely.
const maxSpecsPerExperiment = 256

// SpecMeta describes one expanded simulation for API responses: enough
// to identify the cell in the sweep and its engine cache key.
type SpecMeta struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	CPUs     int    `json:"cpus"`
	Refs     int    `json:"refs"`
	Seed     uint64 `json:"seed,omitempty"`
	// Key is the full engine content hash the result is stored under.
	Key string `json:"key"`
}

// Expand validates the spec and produces the simulation list plus its
// metadata, in deterministic order (workloads, then CPUs, then schemes,
// as given). Duplicate cells collapse to one simulation.
func (s Spec) Expand() ([]engine.SimSpec, []SpecMeta, error) {
	if len(s.Schemes) == 0 {
		return nil, nil, fmt.Errorf("spec: no schemes")
	}
	if len(s.Workloads) == 0 {
		return nil, nil, fmt.Errorf("spec: no workloads")
	}
	var specs []engine.SimSpec
	var meta []SpecMeta
	seen := make(map[engine.Key]bool)
	for _, w := range s.Workloads {
		if len(w.CPUs) == 0 {
			return nil, nil, fmt.Errorf("spec: workload %q has no cpus", w.Name)
		}
		if w.Refs < 1 {
			return nil, nil, fmt.Errorf("spec: workload %q has non-positive refs", w.Name)
		}
		for _, cpus := range w.CPUs {
			cfg, err := workload.Named(w.Name, cpus, w.Refs)
			if err != nil {
				return nil, nil, fmt.Errorf("spec: %w", err)
			}
			if w.Seed != 0 {
				cfg.Seed = w.Seed
			}
			for _, scheme := range s.Schemes {
				sp := engine.SimSpec{
					Trace:      cfg,
					Scheme:     scheme,
					Check:      s.Check,
					BlockBytes: s.BlockBytes,
				}
				// The engine's own admission test, so a spec it would
				// reject never reaches the queue.
				if err := sp.Validate(); err != nil {
					return nil, nil, fmt.Errorf("spec: %s at %d cpus: %w", w.Name, cpus, err)
				}
				k := sp.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				if len(specs) >= maxSpecsPerExperiment {
					return nil, nil, fmt.Errorf("spec: expands to more than %d simulations",
						maxSpecsPerExperiment)
				}
				specs = append(specs, sp)
				meta = append(meta, SpecMeta{
					Scheme:   scheme,
					Workload: cfg.Name,
					CPUs:     cfg.CPUs,
					Refs:     w.Refs,
					Seed:     w.Seed,
					Key:      engine.KeyHex(k),
				})
			}
		}
	}
	return specs, meta, nil
}

// ExperimentID derives the experiment's identity from its expanded
// content keys — tenant and priority excluded, so identical sweeps from
// different tenants dedup to one experiment and one computation.
func ExperimentID(meta []SpecMeta) string {
	keys := make([]string, len(meta))
	for i, m := range meta {
		keys[i] = m.Key
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return "exp-" + hex.EncodeToString(h.Sum(nil))[:16]
}
