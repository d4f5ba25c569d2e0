package vm

import (
	"fmt"

	"dirsim/internal/trace"
)

// Machine executes one program per CPU against a shared word-addressed
// memory, emitting a multiprocessor trace as it runs. Scheduling is
// deterministic: round-robin turns whose lengths come from a seeded PRNG,
// mirroring the interleaving granularity of the workload generators.
type Machine struct {
	// Programs holds one program per CPU (they may share one *Program).
	Programs []*Program
	// Seed drives the deterministic turn-length scheduler.
	Seed uint64
	// TurnMin/TurnMax bound instructions per scheduling turn
	// (defaults 2 and 6).
	TurnMin, TurnMax int
	// MaxSteps bounds total executed instructions, guarding against
	// livelock in buggy programs (default 4,000,000).
	MaxSteps int
	// InitMem pre-seeds the shared memory (copied, not aliased).
	InitMem Memory
}

// Memory is the shared memory state after a run.
type Memory map[Word]Word

// cpuState is one processor's execution context.
type cpuState struct {
	prog *Program
	pc   int
	reg  [NumRegs]Word
	done bool
	// spinning marks that the CPU's last TAS failed, so its polling
	// loads are flagged as lock-test spins in the trace.
	spinning bool
}

// memBase is where VM data lives in the trace address space; code for CPU
// c occupies codeBase + c*codeStride, matching the workload layout.
const (
	vmDataBase   = 0x7000_0000
	vmCodeBase   = 0x0100_0000
	vmCodeStride = 0x0010_0000
)

// addrOf maps a VM word address to a trace byte address.
func addrOf(w Word) uint64 { return vmDataBase + uint64(w)*8 }

// Run executes until every CPU halts (or MaxSteps is hit, which is an
// error). It returns the emitted trace and the final shared memory.
func (m *Machine) Run() (*trace.Trace, Memory, error) {
	n := len(m.Programs)
	if n == 0 || n > trace.MaxCPUs {
		return nil, nil, fmt.Errorf("vm: bad CPU count %d", n)
	}
	turnMin, turnMax := m.TurnMin, m.TurnMax
	if turnMin <= 0 {
		turnMin = 2
	}
	if turnMax < turnMin {
		turnMax = turnMin + 4
	}
	maxSteps := m.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4_000_000
	}
	cpus := make([]*cpuState, n)
	for i, p := range m.Programs {
		if p == nil || len(p.Code) == 0 {
			return nil, nil, fmt.Errorf("vm: cpu %d has no program", i)
		}
		if err := p.link(); err != nil {
			return nil, nil, err
		}
		st := &cpuState{prog: p}
		st.reg[7] = Word(i) // r7 is preloaded with the CPU id
		cpus[i] = st
	}
	mem := Memory{}
	for k, v := range m.InitMem {
		mem[k] = v
	}
	t := trace.New("vm", n)
	rng := m.Seed
	if rng == 0 {
		rng = 0x9e3779b97f4a7c15
	}
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	steps := 0
	for {
		active := false
		for c, st := range cpus {
			if st.done {
				continue
			}
			active = true
			turn := turnMin + int(next()%uint64(turnMax-turnMin+1))
			for i := 0; i < turn && !st.done; i++ {
				if steps >= maxSteps {
					return nil, nil, fmt.Errorf("vm: exceeded %d steps (livelock?)", maxSteps)
				}
				steps++
				if err := m.step(uint8(c), st, mem, t); err != nil {
					return nil, nil, err
				}
			}
		}
		if !active {
			break
		}
	}
	if err := t.Validate(); err != nil {
		return nil, nil, fmt.Errorf("vm: emitted invalid trace: %w", err)
	}
	return t, mem, nil
}

// step executes one instruction for CPU c.
func (m *Machine) step(c uint8, st *cpuState, mem Memory, t *trace.Trace) error {
	if st.pc < 0 || st.pc >= len(st.prog.Code) {
		return fmt.Errorf("vm: cpu %d pc %d out of range", c, st.pc)
	}
	// Instruction fetch.
	t.Append(trace.Ref{
		Addr: vmCodeBase + uint64(c)*vmCodeStride + uint64(st.pc)*4,
		CPU:  c, Proc: uint16(c), Kind: trace.Instr,
	})
	ins := st.prog.Code[st.pc]
	st.pc++
	switch ins.Op {
	case OpLdi:
		st.reg[ins.A] = ins.Imm
	case OpAdd:
		st.reg[ins.A] = st.reg[ins.B] + st.reg[ins.C]
	case OpSub:
		st.reg[ins.A] = st.reg[ins.B] - st.reg[ins.C]
	case OpMul:
		st.reg[ins.A] = st.reg[ins.B] * st.reg[ins.C]
	case OpAnd:
		st.reg[ins.A] = st.reg[ins.B] & st.reg[ins.C]
	case OpLd:
		addr := st.reg[ins.B] + ins.Imm
		flags := trace.Flag(0)
		if st.spinning {
			flags |= trace.FlagSpin | trace.FlagShared
		}
		t.Append(trace.Ref{Addr: addrOf(addr), CPU: c, Proc: uint16(c), Kind: trace.Read, Flags: flags})
		st.reg[ins.A] = mem[addr]
	case OpSt:
		addr := st.reg[ins.B] + ins.Imm
		t.Append(trace.Ref{Addr: addrOf(addr), CPU: c, Proc: uint16(c), Kind: trace.Write})
		mem[addr] = st.reg[ins.A]
		st.spinning = false
	case OpTas:
		addr := st.reg[ins.B] + ins.Imm
		old := mem[addr]
		t.Append(trace.Ref{Addr: addrOf(addr), CPU: c, Proc: uint16(c), Kind: trace.Read,
			Flags: trace.FlagAcquire | trace.FlagShared})
		t.Append(trace.Ref{Addr: addrOf(addr), CPU: c, Proc: uint16(c), Kind: trace.Write,
			Flags: trace.FlagAcquire | trace.FlagShared})
		mem[addr] = 1
		st.reg[ins.A] = old
		// A failed TAS means the CPU is about to poll: flag its loads.
		st.spinning = old != 0
	case OpFai:
		addr := st.reg[ins.B] + ins.Imm
		old := mem[addr]
		t.Append(trace.Ref{Addr: addrOf(addr), CPU: c, Proc: uint16(c), Kind: trace.Read,
			Flags: trace.FlagAcquire | trace.FlagShared})
		t.Append(trace.Ref{Addr: addrOf(addr), CPU: c, Proc: uint16(c), Kind: trace.Write,
			Flags: trace.FlagAcquire | trace.FlagShared})
		mem[addr] = old + 1
		st.reg[ins.A] = old
	case OpBz:
		if st.reg[ins.A] == 0 {
			st.pc = int(ins.Imm)
		}
	case OpBnz:
		if st.reg[ins.A] != 0 {
			st.pc = int(ins.Imm)
		}
	case OpJmp:
		st.pc = int(ins.Imm)
	case OpDone:
		st.done = true
	default:
		return fmt.Errorf("vm: cpu %d: bad opcode %d", c, ins.Op)
	}
	return nil
}
