package report

import (
	"fmt"

	"dirsim/internal/engine"
	"dirsim/internal/trace"
	"dirsim/internal/vm"
)

// runVM cross-checks the synthetic-workload results against traces from
// the execution-driven simulator (the paper's stated future work): real
// test-and-test-and-set locks, barriers, and a parallel reduction
// actually executing on a small machine. The scheme ordering and the
// lock pathology must reproduce on these traces too.
func runVM(c *Context) (*Section, error) {
	s := &Section{ID: "vm", Title: "Execution-driven traces (real programs on the mini-machine)"}

	const cpus = 4
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon"}
	lockSchemes := []string{"Dir1NB", "Dir0B", "Dragon"}
	// The three programs, then the lock-algorithm comparison: the same
	// counter workload under test-and-test-and-set, a ticket lock, and an
	// Anderson array lock.
	runs := []struct {
		name    string
		m       *vm.Machine
		schemes []string
	}{
		{"counter", &vm.Machine{Programs: samePrograms(vm.LockedCounter(400), cpus), Seed: 21}, schemes},
		{"barrier", &vm.Machine{Programs: samePrograms(vm.Barrier(vm.Word(cpus), 120), cpus), Seed: 22}, schemes},
		{"reduce", &vm.Machine{Programs: samePrograms(vm.Reduce(vm.Word(cpus), 512), cpus), Seed: 23,
			InitMem: vm.InitReduceMemory(512)}, schemes},
		{"tas", &vm.Machine{Programs: samePrograms(vm.LockedCounter(400), cpus), Seed: 31}, lockSchemes},
		{"ticket", &vm.Machine{Programs: samePrograms(vm.TicketCounter(400), cpus), Seed: 32}, lockSchemes},
		{"anderson", &vm.Machine{Programs: samePrograms(vm.AndersonCounter(400, 8), cpus),
			InitMem: vm.InitAndersonMemory(), Seed: 33}, lockSchemes},
	}
	// Each program's trace is adopted by the engine, so its simulations
	// are keyed specs like any workload's: cached, stored and checked.
	var specs []engine.SimSpec
	var traces []*trace.Trace
	for _, run := range runs {
		tr, _, err := run.m.Run()
		if err != nil {
			return nil, fmt.Errorf("vm %s: %w", run.name, err)
		}
		tr.Name = "vm-" + run.name
		cfg, err := c.eng.Adopt(tr)
		if err != nil {
			return nil, err
		}
		for _, scheme := range run.schemes {
			specs = append(specs, engine.SimSpec{Trace: cfg, Scheme: scheme, Check: c.Check})
		}
		traces = append(traces, tr)
	}
	rs, err := c.eng.Results(c.ctx(), c.exec, specs)
	if err != nil {
		return nil, err
	}
	// cycles are run's cycles per reference, from the front of rs.
	cycles := func(run int) []Cell {
		var cells []Cell
		for _, r := range rs[:len(runs[run].schemes)] {
			cells = append(cells, cyc(r.PerRef("pipelined")))
		}
		return cells
	}

	tbl := s.table("program", append(append([]string{}, schemes...), "refs", "spin %")...)
	for i := range 3 {
		st := trace.ComputeStats(traces[i])
		tbl.row(runs[i].name, append(cycles(i), count(st.Refs), num("%.1f", st.Pct(st.SpinReads)))...)
		rs = rs[len(schemes):]
	}
	s.note("\ntraces here come from programs actually executing (final memory\n" +
		"states are asserted in the test suite), not from statistical\n" +
		"generators — and the paper's ordering Dir1NB > WTI > Dir0B > Dragon\n" +
		"reproduces wherever locks dominate, while the embarrassingly\n" +
		"parallel reduction narrows every gap.\n\n")

	s.note("same counter workload under three lock algorithms:\n")
	ltbl := s.table("lock", "Dir1NB cyc/ref", "Dir0B cyc/ref", "Dragon cyc/ref", "Dir1NB rd-miss %")
	for i := 3; i < len(runs); i++ {
		ltbl.row(runs[i].name, append(cycles(i), num("%.2f", rs[0].Counts.ReadMisses()))...)
		rs = rs[len(lockSchemes):]
	}
	s.note("\nthe paper's remedy, made concrete: waiters that spin on a shared\n" +
		"word (tas, ticket) bounce the block under Dir1NB, while the Anderson\n" +
		"array lock spins on per-waiter slots and hands the lock off with one\n" +
		"directed invalidation — 'these schemes must take special care in\n" +
		"handling locks' (Section 5.2).\n")
	return s, nil
}

// samePrograms replicates one program across n CPUs.
func samePrograms(p *vm.Program, n int) []*vm.Program {
	out := make([]*vm.Program, n)
	for i := range out {
		out[i] = p
	}
	return out
}
