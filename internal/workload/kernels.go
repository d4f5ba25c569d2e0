package workload

import "dirsim/internal/trace"

// Microkernels: tiny synthetic workloads with exactly known sharing
// behaviour. They are used by the protocol tests (where event counts can
// be predicted in closed form) and by the ablation benchmarks.

// kernels builds each microkernel that Named names from a machine size
// and an approximate length. A kernel's Config has no Profile and no
// Seed: its name and size are the whole trace. pingpong is a two-CPU
// kernel whatever size is asked for (Named fixes its CPUs).
var kernels = map[string]func(cpus, refs int) *trace.Trace{
	"pingpong":    func(_, refs int) *trace.Trace { return PingPong(refs) },
	"migratory":   func(cpus, refs int) *trace.Trace { return Migratory(cpus, 8, refs/16) },
	"prodcons":    func(cpus, refs int) *trace.Trace { return ProducerConsumer(cpus, 16, refs/(16*cpus)) },
	"readshared":  func(cpus, refs int) *trace.Trace { return ReadShared(cpus, 64, refs/(64*cpus)) },
	"private":     func(cpus, refs int) *trace.Trace { return Private(cpus, 256, refs) },
	"spincontend": func(cpus, refs int) *trace.Trace { return SpinContention(cpus, refs/(8*cpus), 8) },
}

// PingPong generates refs references in which two CPUs alternately read
// and then write the same single block — the worst case for Dir1NB and the
// textbook migratory pattern. Each "turn" is one read followed by one
// write by the same CPU.
func PingPong(refs int) *trace.Trace {
	t := trace.New("pingpong", 2)
	const addr = sharedBase
	cpu := uint8(0)
	for t.Len() < refs {
		t.Append(trace.Ref{Addr: addr, Proc: uint16(cpu), CPU: cpu, Kind: trace.Read, Flags: trace.FlagShared})
		t.Append(trace.Ref{Addr: addr, Proc: uint16(cpu), CPU: cpu, Kind: trace.Write, Flags: trace.FlagShared})
		cpu ^= 1
	}
	return t
}

// Migratory generates a token-passing pattern over cpus processors: each
// CPU in turn reads and writes every block of a region of regionBlocks
// blocks, then the region "migrates" to the next CPU. Writes to
// previously-clean blocks always find exactly one remote copy.
func Migratory(cpus, regionBlocks, rounds int) *trace.Trace {
	t := trace.New("migratory", cpus)
	for round := 0; round < rounds; round++ {
		cpu := uint8(round % cpus)
		for b := 0; b < regionBlocks; b++ {
			addr := uint64(sharedBase) + uint64(b)*trace.BlockBytes
			t.Append(trace.Ref{Addr: addr, Proc: uint16(cpu), CPU: cpu, Kind: trace.Read, Flags: trace.FlagShared})
			t.Append(trace.Ref{Addr: addr, Proc: uint16(cpu), CPU: cpu, Kind: trace.Write, Flags: trace.FlagShared})
		}
	}
	return t
}

// ProducerConsumer generates rounds in which CPU 0 writes each block of a
// buffer and every other CPU then reads all of it — the pattern where an
// update protocol shines and writes to clean blocks invalidate cpus-1
// copies.
func ProducerConsumer(cpus, bufferBlocks, rounds int) *trace.Trace {
	t := trace.New("prodcons", cpus)
	for round := 0; round < rounds; round++ {
		for b := 0; b < bufferBlocks; b++ {
			addr := uint64(sharedBase) + uint64(b)*trace.BlockBytes
			t.Append(trace.Ref{Addr: addr, Proc: 0, CPU: 0, Kind: trace.Write, Flags: trace.FlagShared})
		}
		for c := 1; c < cpus; c++ {
			for b := 0; b < bufferBlocks; b++ {
				addr := uint64(sharedBase) + uint64(b)*trace.BlockBytes
				t.Append(trace.Ref{Addr: addr, Proc: uint16(c), CPU: uint8(c), Kind: trace.Read, Flags: trace.FlagShared})
			}
		}
	}
	return t
}

// ReadShared generates a region read repeatedly by every CPU with no
// writes at all after an initializing pass by CPU 0. After the first
// round no coherence traffic of any kind should remain.
func ReadShared(cpus, regionBlocks, rounds int) *trace.Trace {
	t := trace.New("readshared", cpus)
	for b := 0; b < regionBlocks; b++ {
		addr := uint64(sharedBase) + uint64(b)*trace.BlockBytes
		t.Append(trace.Ref{Addr: addr, Proc: 0, CPU: 0, Kind: trace.Write, Flags: trace.FlagShared})
	}
	for round := 0; round < rounds; round++ {
		for c := 0; c < cpus; c++ {
			for b := 0; b < regionBlocks; b++ {
				addr := uint64(sharedBase) + uint64(b)*trace.BlockBytes
				t.Append(trace.Ref{Addr: addr, Proc: uint16(c), CPU: uint8(c), Kind: trace.Read, Flags: trace.FlagShared})
			}
		}
	}
	return t
}

// Private generates a workload with no sharing at all: each CPU reads and
// writes only its own region. Every protocol should see identical, purely
// cold-miss behaviour.
func Private(cpus, blocksPerCPU, refs int) *trace.Trace {
	t := trace.New("private", cpus)
	r := newRNG(uint64(cpus)*1e9 + uint64(blocksPerCPU))
	for t.Len() < refs {
		for c := 0; c < cpus && t.Len() < refs; c++ {
			blk := r.intn(blocksPerCPU)
			addr := privBase + uint64(c)*privStride + uint64(blk)*trace.BlockBytes
			kind := trace.Read
			if r.chance(0.25) {
				kind = trace.Write
			}
			t.Append(trace.Ref{Addr: addr, Proc: uint16(c), CPU: uint8(c), Kind: kind})
		}
	}
	return t
}

// SpinContention generates cpus-1 processors spinning on a lock while CPU
// 0 repeatedly acquires, works, and releases it — a distilled version of
// the POPS/THOR lock behaviour behind the Section 5.2 study.
func SpinContention(cpus, rounds, csLen int) *trace.Trace {
	t := trace.New("spincontend", cpus)
	lock := uint64(lockBase)
	work := uint64(lockGuard)
	for round := 0; round < rounds; round++ {
		// Owner acquires.
		t.Append(trace.Ref{Addr: lock, Proc: 0, CPU: 0, Kind: trace.Read, Flags: trace.FlagAcquire | trace.FlagShared})
		t.Append(trace.Ref{Addr: lock, Proc: 0, CPU: 0, Kind: trace.Write, Flags: trace.FlagAcquire | trace.FlagShared})
		// Waiters spin; owner works.
		for i := 0; i < csLen; i++ {
			for c := 1; c < cpus; c++ {
				t.Append(trace.Ref{Addr: lock, Proc: uint16(c), CPU: uint8(c), Kind: trace.Read, Flags: trace.FlagSpin | trace.FlagShared})
			}
			addr := work + uint64(i%4)*trace.BlockBytes
			t.Append(trace.Ref{Addr: addr, Proc: 0, CPU: 0, Kind: trace.Write, Flags: trace.FlagShared})
		}
		// Owner releases.
		t.Append(trace.Ref{Addr: lock, Proc: 0, CPU: 0, Kind: trace.Write, Flags: trace.FlagRelease | trace.FlagShared})
	}
	return t
}
