package workload

import (
	"errors"
	"fmt"
	"strings"

	"dirsim/internal/trace"
)

// Profile parameterizes the behaviour of one synthetic parallel
// application. The defaults in the POPS/THOR/PERO constructors are tuned so
// the generated traces reproduce the structural statistics of the paper's
// Table 3 and Table 4 (reference mix, spin-lock share, sharing intensity).
type Profile struct {
	// DataPerInstr is the average number of data references per
	// instruction fetch; the paper's traces average 1.0.
	DataPerInstr float64
	// PrivateReadFrac is the fraction of private data accesses that are
	// reads.
	PrivateReadFrac float64
	// SharedReadFrac is the fraction of unsynchronized shared-object
	// accesses that are reads. Keep close to 1: writes to widely
	// read-shared data invalidate many caches and the paper's Figure 1
	// shows those are rare.
	SharedReadFrac float64
	// SharedFrac is the probability that a compute-mode data reference
	// targets a shared object rather than private data.
	SharedFrac float64
	// LockRate is the per-data-reference probability of starting a
	// critical section.
	LockRate float64
	// SysRate is the per-data-reference probability of entering an
	// operating-system stretch; together with SysLen it sets the
	// roughly-10% system share of the paper's traces.
	SysRate float64
	// SysLen is the length of a system stretch in data references.
	SysLen int

	// PrivBlocks is the maximum private working set, in blocks, per
	// process. The set grows gradually (see GrowthRate) so
	// first-reference misses are spread through the trace.
	PrivBlocks int
	// GrowthRate is the per-access probability of touching a brand-new
	// private block while the working set is below PrivBlocks.
	GrowthRate float64
	// SharedObjects and ObjBlocks shape the read-shared heap: objects
	// are chosen with a hot/cold skew, blocks within uniformly.
	SharedObjects int
	ObjBlocks     int

	// Locks is the number of lock variables; acquisition is skewed so a
	// few locks are hot and contended. Each lock guards a private
	// migratory region of LockRegionBlocks blocks.
	Locks            int
	LockRegionBlocks int
	// CSMin/CSMax bound critical-section lengths in data references.
	CSMin, CSMax int
	// CSWriteFrac is the fraction of critical-section accesses to the
	// protected region that are writes (migratory read-modify-write).
	CSWriteFrac float64
	// CSFootprint is how many consecutive blocks of the protected
	// region one critical section actually visits (a window chosen at
	// acquire time). Values below LockRegionBlocks give critical
	// sections locality, which keeps the per-CS miss cost realistic.
	// Zero means the whole region.
	CSFootprint int
	// SpinBurst is how many lock-test reads a waiting process issues per
	// scheduling turn; the paper's POPS and THOR spin heavily (about a
	// third of all reads are lock tests).
	SpinBurst int

	// CodeBlocks is the per-process instruction footprint; LoopLen is
	// the number of sequential fetches between jumps.
	CodeBlocks int
	LoopLen    int

	// BurstMin/BurstMax bound the number of data references a process
	// issues per scheduling turn, i.e. the interleaving granularity.
	BurstMin, BurstMax int

	// MigrationRate is the per-turn probability that a process migrates
	// to a different CPU. The paper's traces contained a little
	// migration-induced sharing, which it deliberately excluded by
	// classifying sharing per process; this knob reproduces that
	// phenomenon. Zero (the default) pins processes, making process-
	// and processor-based classifications identical.
	MigrationRate float64
}

// Validate reports the first problem with the profile.
func (p Profile) Validate() error {
	switch {
	case p.DataPerInstr <= 0:
		return fmt.Errorf("workload: DataPerInstr must be positive")
	case p.PrivBlocks < 1:
		return fmt.Errorf("workload: PrivBlocks must be at least 1")
	case p.SharedObjects < 1 || p.ObjBlocks < 1:
		return fmt.Errorf("workload: need at least one shared object and block")
	case p.Locks < 1:
		return fmt.Errorf("workload: need at least one lock")
	case p.CSMin < 1 || p.CSMax < p.CSMin:
		return fmt.Errorf("workload: bad critical section bounds [%d,%d]", p.CSMin, p.CSMax)
	case p.SpinBurst < 1:
		return fmt.Errorf("workload: SpinBurst must be at least 1")
	case p.BurstMin < 1 || p.BurstMax < p.BurstMin:
		return fmt.Errorf("workload: bad burst bounds [%d,%d]", p.BurstMin, p.BurstMax)
	case p.CodeBlocks < 1 || p.LoopLen < 1:
		return fmt.Errorf("workload: bad code shape")
	case p.LockRegionBlocks < 1:
		return fmt.Errorf("workload: LockRegionBlocks must be at least 1")
	}
	return nil
}

// Config identifies one trace: a named profile instantiated for a
// machine size, length, and seed; or, with a zero Profile, a microkernel
// (Named) or a trace adopted from a file, whose Name carries
// AdoptedPrefix and whose Seed is the trace's fingerprint. Generate
// builds every Config but an adopted one.
type Config struct {
	Name    string
	CPUs    int
	Refs    int // approximate total references (the generator stops at or just above this)
	Seed    uint64
	Profile Profile
}

// AdoptedPrefix begins the Name of an adopted trace's Config. Named never
// returns such a name, so an adopted trace never shares a key with a
// generated one.
const AdoptedPrefix = "file:"

// ErrNotGenerable is the error Generate wraps for an adopted trace's
// Config: only the trace itself, not its Config, can supply it.
var ErrNotGenerable = errors.New("workload: an adopted trace is not generable")

// Address-space layout (byte addresses). Regions are spaced so they can
// never collide for any sane parameter choice.
const (
	codeBase   = 0x0100_0000 // + proc * codeStride
	codeStride = 0x0010_0000
	privBase   = 0x2000_0000 // + proc * privStride
	privStride = 0x0010_0000
	sharedBase = 0x4000_0000
	lockBase   = 0x5000_0000
	lockGuard  = 0x5800_0000 // migratory regions guarded by locks
	osShared   = 0x6000_0000 // read-shared kernel text/data
	osMigrate  = 0x6100_0000 // kernel scheduler state, migratory
)

const (
	osSharedBlocks  = 192
	osMigrateBlocks = 24
)

// Validate reports the first problem with the configuration. A kernel
// takes no seed, so each kernel trace has exactly one Config.
func (cfg Config) Validate() error {
	if cfg.CPUs < 1 || cfg.CPUs > trace.MaxCPUs {
		return fmt.Errorf("workload: cpu count %d out of range", cfg.CPUs)
	}
	if cfg.Refs < 1 {
		return fmt.Errorf("workload: non-positive trace length %d", cfg.Refs)
	}
	switch {
	case cfg.Profile != (Profile{}):
		return cfg.Profile.Validate()
	case strings.HasPrefix(cfg.Name, AdoptedPrefix):
		return nil
	case kernels[cfg.Name] == nil:
		return fmt.Errorf("workload: %q has no profile and names no kernel", cfg.Name)
	case cfg.Seed != 0:
		return fmt.Errorf("workload: kernel %s takes no seed (got %d)", cfg.Name, cfg.Seed)
	case cfg.Name == "pingpong" && cfg.CPUs != 2:
		return fmt.Errorf("workload: kernel pingpong has 2 cpus, not %d", cfg.CPUs)
	}
	return nil
}

// DefaultBatchRefs is the generator's batch granularity when a caller
// passes a non-positive size: references are buffered and handed to sinks
// this many at a time.
const DefaultBatchRefs = 4096

// Generate synthesizes a trace from the configuration. The result is
// deterministic in cfg. An adopted trace's Config is refused with
// ErrNotGenerable.
func Generate(cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Profile == (Profile{}) {
		if kernel := kernels[cfg.Name]; kernel != nil {
			return kernel(cfg.CPUs, cfg.Refs), nil
		}
		return nil, fmt.Errorf("%w: %q (adopt the trace again)", ErrNotGenerable, cfg.Name)
	}
	t := trace.New(cfg.Name, cfg.CPUs)
	// The generator overshoots cfg.Refs by at most the tail of one turn's
	// burst (a dozen references for the standard profiles), so a batch of
	// slack is ample; a trace is retained for as long as its engine lives,
	// and an eighth of every long one was capacity nothing ever filled.
	t.Refs = make([]trace.Ref, 0, cfg.Refs+min(cfg.Refs/8, DefaultBatchRefs))
	g := newGenerator(cfg, DefaultBatchRefs, func(batch []trace.Ref) error {
		t.Refs = append(t.Refs, batch...)
		return nil
	})
	g.run()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return t, nil
}

// StreamBatches synthesizes the reference sequence of Generate(cfg) but
// delivers it to emit in batches of up to batchRefs references (the final
// batch may be short; non-positive sizes mean DefaultBatchRefs) instead
// of materializing a trace, so arbitrarily long traces can feed
// simulators in constant memory with no per-reference callback. The batch
// slice is owned by the generator and reused between calls: emit must
// copy or fully consume it before returning. Generation stops early when
// emit returns a non-nil error, which StreamBatches returns unchanged.
// Only a profile streams: a kernel or adopted Config is refused.
func StreamBatches(cfg Config, batchRefs int, emit func([]trace.Ref) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Profile == (Profile{}) {
		return fmt.Errorf("workload: %q has no profile to stream", cfg.Name)
	}
	if batchRefs <= 0 {
		batchRefs = DefaultBatchRefs
	}
	g := newGenerator(cfg, batchRefs, emit)
	g.run()
	return g.err
}

// MustGenerate is Generate for known-good configurations; it panics on
// error. The app constructors use it.
func MustGenerate(cfg Config) *trace.Trace {
	t, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return t
}
