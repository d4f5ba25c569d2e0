package trace

import (
	"fmt"
	"math/bits"
	"strings"
)

// Stats summarizes a trace in the style of the paper's Table 3, extended
// with the sharing measures the rest of the evaluation depends on.
type Stats struct {
	Name string
	CPUs int

	Refs   int // total references
	Instr  int // instruction fetches
	Reads  int // data reads
	Writes int // data writes
	User   int // user-mode references
	System int // system (OS) references

	SpinReads   int // data reads flagged as lock-test spins
	LockWrites  int // acquire/release writes
	SharedRefs  int // data references to blocks touched by >1 process
	DataBlocks  int // distinct data blocks referenced
	SharedBlk   int // data blocks touched by >1 process
	InstrBlocks int // distinct instruction blocks referenced

	// ProcsPerSharedBlock is the distribution of how many distinct
	// processes touch each shared data block (index = process count).
	ProcsPerSharedBlock []int
}

// Sharers records, per block, which ids — process or CPU numbers — touched
// it and in how many references: ids below 64 (every process of the
// standard workloads, every CPU an engine supports) as a bit mask, the
// rest in a map.
type Sharers map[Block]*sharerSet

type sharerSet struct {
	mask uint64
	more map[uint16]struct{}
	refs int
}

func (s *sharerSet) count() int { return bits.OnesCount64(s.mask) + len(s.more) }

// Touch records one reference to block b by id.
func (s Sharers) Touch(b Block, id uint16) {
	set := s[b]
	if set == nil {
		set = new(sharerSet)
		s[b] = set
	}
	set.refs++
	if id < 64 {
		set.mask |= 1 << id
		return
	}
	if set.more == nil {
		set.more = map[uint16]struct{}{}
	}
	set.more[id] = struct{}{}
}

// Shared returns the number of blocks more than one id touched.
func (s Sharers) Shared() int {
	n := 0
	for _, set := range s {
		if set.count() > 1 {
			n++
		}
	}
	return n
}

// ComputeStats scans the trace once and returns its summary.
func ComputeStats(t *Trace) Stats {
	s := Stats{Name: t.Name, CPUs: t.CPUs}
	data := Sharers{}
	instr := make(map[Block]struct{})
	for _, r := range t.Refs {
		s.Refs++
		if r.Flags.Has(FlagSystem) {
			s.System++
		} else {
			s.User++
		}
		switch r.Kind {
		case Instr:
			s.Instr++
			instr[r.Block()] = struct{}{}
			continue
		case Read:
			s.Reads++
			if r.Flags.Has(FlagSpin) {
				s.SpinReads++
			}
		case Write:
			s.Writes++
			if r.Flags.Has(FlagAcquire) || r.Flags.Has(FlagRelease) {
				s.LockWrites++
			}
		}
		data.Touch(r.Block(), r.Proc)
	}
	s.DataBlocks = len(data)
	s.InstrBlocks = len(instr)
	s.ProcsPerSharedBlock = make([]int, 1)
	for _, set := range data {
		n := set.count()
		for len(s.ProcsPerSharedBlock) <= n {
			s.ProcsPerSharedBlock = append(s.ProcsPerSharedBlock, 0)
		}
		s.ProcsPerSharedBlock[n]++
		if n > 1 {
			s.SharedBlk++
			s.SharedRefs += set.refs
		}
	}
	return s
}

// Pct returns 100*n/s.Refs, or 0 for an empty trace.
func (s Stats) Pct(n int) float64 {
	if s.Refs == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Refs)
}

// String renders the summary as a small table, one row per measure.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %-8s cpus=%d\n", s.Name, s.CPUs)
	row := func(label string, n int) {
		fmt.Fprintf(&b, "  %-14s %10d  (%5.2f%%)\n", label, n, s.Pct(n))
	}
	row("refs", s.Refs)
	row("instr", s.Instr)
	row("reads", s.Reads)
	row("writes", s.Writes)
	row("user", s.User)
	row("system", s.System)
	row("spin reads", s.SpinReads)
	row("lock writes", s.LockWrites)
	row("shared refs", s.SharedRefs)
	fmt.Fprintf(&b, "  %-14s %10d (shared %d)\n", "data blocks", s.DataBlocks, s.SharedBlk)
	return b.String()
}
