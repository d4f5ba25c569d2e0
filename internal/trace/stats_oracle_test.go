package trace_test

import (
	"reflect"
	"testing"

	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// referenceStats is ComputeStats as it was before the per-block process
// sets became bit masks, kept as the oracle: a map of process ids per data
// block and a second pass over the trace for SharedRefs.
func referenceStats(t *trace.Trace) trace.Stats {
	s := trace.Stats{Name: t.Name, CPUs: t.CPUs}
	data := make(map[trace.Block]map[uint16]struct{})
	instr := make(map[trace.Block]struct{})
	for _, r := range t.Refs {
		s.Refs++
		if r.Flags.Has(trace.FlagSystem) {
			s.System++
		} else {
			s.User++
		}
		switch r.Kind {
		case trace.Instr:
			s.Instr++
			instr[r.Block()] = struct{}{}
			continue
		case trace.Read:
			s.Reads++
			if r.Flags.Has(trace.FlagSpin) {
				s.SpinReads++
			}
		case trace.Write:
			s.Writes++
			if r.Flags.Has(trace.FlagAcquire) || r.Flags.Has(trace.FlagRelease) {
				s.LockWrites++
			}
		}
		if data[r.Block()] == nil {
			data[r.Block()] = make(map[uint16]struct{}, 2)
		}
		data[r.Block()][r.Proc] = struct{}{}
	}
	s.DataBlocks = len(data)
	s.InstrBlocks = len(instr)
	maxProcs := 0
	for _, procs := range data {
		maxProcs = max(maxProcs, len(procs))
	}
	s.ProcsPerSharedBlock = make([]int, maxProcs+1)
	for _, procs := range data {
		s.ProcsPerSharedBlock[len(procs)]++
		if len(procs) > 1 {
			s.SharedBlk++
		}
	}
	for _, r := range t.Refs {
		if r.IsData() && len(data[r.Block()]) > 1 {
			s.SharedRefs++
		}
	}
	return s
}

// TestComputeStatsMatchesReference: field for field on the standard
// traces at three machine sizes, the migration study's three traces, a
// trace whose process ids straddle the 64-bit mask, and an empty one.
func TestComputeStatsMatchesReference(t *testing.T) {
	var traces []*trace.Trace
	for _, cpus := range []int{4, 16, 64} {
		for _, cfg := range workload.StandardConfigs(cpus, 60_000) {
			traces = append(traces, workload.MustGenerate(cfg))
		}
	}
	for _, rate := range []float64{0, 0.001, 0.01} {
		cfg := workload.POPSConfig(4, 60_000)
		cfg.Profile.MigrationRate = rate
		traces = append(traces, workload.MustGenerate(cfg))
	}
	wide := trace.New("wide", 4)
	for i := 0; i < 20_000; i++ {
		// Processes 0..199 over 97 blocks: most blocks are shared by
		// ids on both sides of 64, some by ids above it only.
		wide.Append(trace.Ref{Addr: uint64(i*7%97) * trace.BlockBytes, CPU: uint8(i % 4),
			Proc: uint16(i * 13 % 200), Kind: trace.Kind(i % 3)})
	}
	for p := uint16(64); p < 70; p++ {
		wide.Append(trace.Ref{Addr: 1 << 20, Proc: p, Kind: trace.Write}) // above the mask only
	}
	wide.Append(trace.Ref{Addr: 2 << 20, Proc: 300, Kind: trace.Read}) // private to one wide id
	traces = append(traces, wide, trace.New("empty", 1))
	for _, tr := range traces {
		got, want := trace.ComputeStats(tr), referenceStats(tr)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s at %d CPUs:\n got %+v\nwant %+v", tr.Name, tr.CPUs, got, want)
		}
		if tr.Len() > 0 && (want.SharedBlk == 0 || want.SharedRefs == 0) {
			t.Errorf("%s at %d CPUs shares nothing; the case tests nothing", tr.Name, tr.CPUs)
		}
	}
}
