package workload

import (
	"fmt"
	"strings"

	"dirsim/internal/trace"
)

// The three application models below correspond to the paper's traces
// (Table 3). Parameter values are tuned so that, at 4 CPUs, the generated
// traces land near the paper's published reference mix and event
// frequencies: about half instruction fetches, a 4:1 read/write ratio,
// roughly a third of POPS/THOR reads being lock-test spins, and PERO
// sharing far less than the other two.

// POPSProfile models POPS, a parallel implementation of the OPS5
// rule-based language: processes match rules against a shared working
// memory (read-mostly heap) and serialize updates through a small set of
// hot locks, spinning heavily while they wait.
func POPSProfile() Profile {
	return Profile{
		DataPerInstr:     1.0,
		PrivateReadFrac:  0.45,
		SharedReadFrac:   0.995,
		SharedFrac:       0.10,
		LockRate:         0.022,
		SysRate:          0.009,
		SysLen:           22,
		PrivBlocks:       700,
		GrowthRate:       0.012,
		SharedObjects:    48,
		ObjBlocks:        8,
		Locks:            4,
		LockRegionBlocks: 16,
		CSMin:            60,
		CSMax:            120,
		CSWriteFrac:      0.12,
		CSFootprint:      4,
		SpinBurst:        3,
		CodeBlocks:       256,
		LoopLen:          12,
		BurstMin:         2,
		BurstMax:         6,
	}
}

// THORProfile models THOR, a parallel logic simulator: a migratory event
// wheel protected by locks (more write-intensive critical sections than
// POPS), a widely read-shared netlist, and the same heavy spinning the
// paper reports.
func THORProfile() Profile {
	return Profile{
		DataPerInstr:     1.05,
		PrivateReadFrac:  0.48,
		SharedReadFrac:   0.99,
		SharedFrac:       0.13,
		LockRate:         0.020,
		SysRate:          0.010,
		SysLen:           25,
		PrivBlocks:       550,
		GrowthRate:       0.012,
		SharedObjects:    64,
		ObjBlocks:        6,
		Locks:            3,
		LockRegionBlocks: 20,
		CSMin:            50,
		CSMax:            110,
		CSWriteFrac:      0.18,
		CSFootprint:      5,
		SpinBurst:        3,
		CodeBlocks:       320,
		LoopLen:          10,
		BurstMin:         2,
		BurstMax:         6,
	}
}

// PEROProfile models PERO, a parallel VLSI router: each process routes in
// a mostly-private region of the grid, so sharing is light, locks are
// rarely contended, and the read ratio is high by algorithm rather than by
// spinning.
func PEROProfile() Profile {
	return Profile{
		DataPerInstr:     0.95,
		PrivateReadFrac:  0.80,
		SharedReadFrac:   0.998,
		SharedFrac:       0.05,
		LockRate:         0.0015,
		SysRate:          0.004,
		SysLen:           20,
		PrivBlocks:       900,
		GrowthRate:       0.015,
		SharedObjects:    32,
		ObjBlocks:        8,
		Locks:            8,
		LockRegionBlocks: 8,
		CSMin:            10,
		CSMax:            30,
		CSWriteFrac:      0.25,
		CSFootprint:      3,
		SpinBurst:        3,
		CodeBlocks:       384,
		LoopLen:          14,
		BurstMin:         3,
		BurstMax:         8,
	}
}

// Seeds chosen once; fixed so every run of the experiments regenerates the
// identical traces.
// Exported so tools can reproduce the standard traces from a Config.
const (
	SeedPOPS = 0x5e15_0001
	SeedTHOR = 0x5e15_0002
	SeedPERO = 0x5e15_0003
)

// ScaleProfile adapts a 4-CPU application profile to a larger machine:
// locks and shared objects grow with the processor count (a real
// application run at 64 processors partitions its work and its
// synchronization), so per-lock contention stays in the regime the 4-CPU
// profiles were tuned for rather than becoming a 63-way spin storm. At 4
// CPUs or below the profile is returned unchanged, preserving the
// headline traces exactly.
func ScaleProfile(p Profile, cpus int) Profile {
	if cpus <= 4 {
		return p
	}
	factor := cpus / 4
	p.Locks *= factor
	p.SharedObjects *= factor
	return p
}

// POPSConfig is the generation configuration of the standard POPS trace;
// the configuration (not the materialized trace) is what identifies a
// workload to the execution engine's content-addressed caches.
func POPSConfig(cpus, refs int) Config {
	return Config{Name: "pops", CPUs: cpus, Refs: refs, Seed: SeedPOPS,
		Profile: ScaleProfile(POPSProfile(), cpus)}
}

// THORConfig is the generation configuration of the standard THOR trace.
func THORConfig(cpus, refs int) Config {
	return Config{Name: "thor", CPUs: cpus, Refs: refs, Seed: SeedTHOR,
		Profile: ScaleProfile(THORProfile(), cpus)}
}

// PEROConfig is the generation configuration of the standard PERO trace.
func PEROConfig(cpus, refs int) Config {
	return Config{Name: "pero", CPUs: cpus, Refs: refs, Seed: SeedPERO,
		Profile: ScaleProfile(PEROProfile(), cpus)}
}

// StandardConfigs returns the configurations of the three paper traces at
// the given size, in paper order.
func StandardConfigs(cpus, refs int) []Config {
	return []Config{POPSConfig(cpus, refs), THORConfig(cpus, refs), PEROConfig(cpus, refs)}
}

// Named returns the configuration of the workload called name,
// case-insensitive, at the given size: a paper trace ("pops", "thor",
// "pero") or a microkernel ("pingpong", "migratory", "prodcons",
// "readshared", "private", "spincontend"; pingpong always has 2 CPUs).
// It is the one map from those names to a Config: the service, the
// library facade and cmd/dirsim resolve a workload name here, so each
// name means one trace everywhere.
func Named(name string, cpus, refs int) (Config, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	switch key {
	case "pops":
		return POPSConfig(cpus, refs), nil
	case "thor":
		return THORConfig(cpus, refs), nil
	case "pero":
		return PEROConfig(cpus, refs), nil
	case "pingpong":
		cpus = 2
	}
	if kernels[key] == nil {
		return Config{}, fmt.Errorf("unknown workload %q (want pops, thor, pero, "+
			"pingpong, migratory, prodcons, readshared, private or spincontend)", name)
	}
	return Config{Name: key, CPUs: cpus, Refs: refs}, nil
}

// POPS generates the POPS-like trace.
func POPS(cpus, refs int) *trace.Trace { return MustGenerate(POPSConfig(cpus, refs)) }

// THOR generates the THOR-like trace.
func THOR(cpus, refs int) *trace.Trace { return MustGenerate(THORConfig(cpus, refs)) }

// PERO generates the PERO-like trace.
func PERO(cpus, refs int) *trace.Trace { return MustGenerate(PEROConfig(cpus, refs)) }

// Standard returns the three paper traces at the given size. The headline
// experiments use cpus = 4 to match the ATUM machine.
func Standard(cpus, refs int) []*trace.Trace {
	return []*trace.Trace{POPS(cpus, refs), THOR(cpus, refs), PERO(cpus, refs)}
}
