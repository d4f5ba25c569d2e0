package workload

import "dirsim/internal/trace"

// generator drives one synthetic run: a set of per-CPU process state
// machines scheduled round-robin with randomized burst lengths, sharing a
// global lock table and shared heap. References are written straight into
// an internal batch buffer and handed to the sink one full batch at a
// time, so the same machinery serves materialized generation (the sink
// appends to a trace) and streaming delivery (the sink feeds a channel)
// without a per-reference callback on the hot path.
type generator struct {
	cfg  Config
	prof Profile
	rng  *rng
	buf  []trace.Ref             // in-flight batch; flushed at cap(buf)
	sink func([]trace.Ref) error // receives each full batch; the slice is reused
	err  error                   // first sink error; aborts generation
	n    int                     // references emitted so far
	stop bool                    // set by flush on sink error

	procs []*proc
	locks []*lockState
}

// flush hands the buffered batch to the sink and resets the buffer. A
// sink error stops generation; the error is surfaced by run's caller.
func (g *generator) flush() {
	if len(g.buf) == 0 || g.err != nil {
		return
	}
	if err := g.sink(g.buf); err != nil {
		g.err = err
		g.stop = true
		return
	}
	g.buf = g.buf[:0]
}

// lockState is one test-and-test-and-set lock and the migratory region it
// guards.
type lockState struct {
	addr      uint64 // lock word (one block)
	guardBase uint64 // protected region base
	held      bool
	owner     int
}

// procMode is the activity a process is engaged in.
type procMode uint8

const (
	modeCompute procMode = iota
	modeSpin             // waiting on a lock
	modeCS               // inside a critical section
)

// proc is one process. By default it is pinned to the CPU of the same
// index (the paper's traces showed negligible process migration and the
// study deliberately classifies sharing per process); a non-zero
// MigrationRate lets processes swap CPUs.
type proc struct {
	id   int
	cpu  int // current CPU (== id unless migration is enabled)
	mode procMode

	pc       uint64 // next instruction address
	pcLeft   int    // fetches until the next jump
	privUsed int    // private working-set blocks touched so far
	lockIdx  int    // lock being waited on / held
	csLeft   int    // critical-section data refs remaining
	csBase   int    // first protected block this critical section visits
	sysBase  int    // locality window base for the current system stretch
	sysLeft  int    // system-stretch data refs remaining
	lastLock int    // affinity: processes tend to reuse locks

	// pendingWrite holds an address just read inside a critical section
	// that may be written next (read-modify-write), matching the paper's
	// observation that most writes land on blocks brought in by a read.
	pendingWrite uint64
	hasPending   bool
}

func newGenerator(cfg Config, batchRefs int, sink func([]trace.Ref) error) *generator {
	g := &generator{
		cfg:  cfg,
		prof: cfg.Profile,
		rng:  newRNG(cfg.Seed),
		buf:  make([]trace.Ref, 0, batchRefs),
		sink: sink,
	}
	g.locks = make([]*lockState, cfg.Profile.Locks)
	for i := range g.locks {
		g.locks[i] = &lockState{
			addr:      lockBase + uint64(i)*trace.BlockBytes,
			guardBase: lockGuard + uint64(i)*uint64(cfg.Profile.LockRegionBlocks)*trace.BlockBytes,
		}
	}
	g.procs = make([]*proc, cfg.CPUs)
	for i := range g.procs {
		g.procs[i] = &proc{
			id:       i,
			cpu:      i,
			pc:       codeBase + uint64(i)*codeStride,
			pcLeft:   cfg.Profile.LoopLen,
			privUsed: 1,
			// Everyone starts attached to the hottest lock; the
			// 40% re-pick in beginLock spreads some load to others
			// while keeping lock 0 heavily contended, as in POPS
			// and THOR.
			lastLock: 0,
		}
	}
	return g
}

// run interleaves the processes until the target length is reached (or
// the sink stops the stream), then flushes the final partial batch.
func (g *generator) run() {
	for g.n < g.cfg.Refs && !g.stop {
		for _, p := range g.procs {
			g.turn(p)
			if g.n >= g.cfg.Refs || g.stop {
				break
			}
		}
	}
	g.flush()
}

// turn lets one process issue a burst of references, possibly migrating
// to another CPU first (swapping places with the process running there,
// so the one-process-per-CPU discipline is preserved).
func (g *generator) turn(p *proc) {
	if g.prof.MigrationRate > 0 && g.rng.chance(g.prof.MigrationRate) && len(g.procs) > 1 {
		other := g.procs[g.rng.intn(len(g.procs))]
		if other != p {
			p.cpu, other.cpu = other.cpu, p.cpu
		}
	}
	if p.mode == modeSpin {
		g.spinTurn(p)
		return
	}
	burst := g.rng.rangeInt(g.prof.BurstMin, g.prof.BurstMax)
	for i := 0; i < burst && p.mode != modeSpin && !g.stop; i++ {
		g.step(p)
	}
}

// emit delivers a reference from p's context, applying the system flag.
// The reference is written field by field into the batch buffer's next
// slot — built as a value and copied in, its five narrow stores are
// reloaded as one wide move, which stalls on store forwarding — and a
// full buffer is flushed to the sink in place. The buffer is left full
// only by a failed flush, after which nothing more is buffered.
func (g *generator) emit(p *proc, kind trace.Kind, addr uint64, flags trace.Flag) {
	if p.sysLeft > 0 {
		flags |= trace.FlagSystem
	}
	n := len(g.buf)
	if n == cap(g.buf) {
		return
	}
	g.buf = g.buf[:n+1]
	r := &g.buf[n]
	r.Addr = addr
	r.Proc = uint16(p.id)
	r.CPU = uint8(p.cpu)
	r.Kind = kind
	r.Flags = flags
	g.n++
	if n+1 == cap(g.buf) {
		g.flush()
	}
}

// instr issues the instruction fetches that precede a data reference,
// maintaining sequential-with-jumps code locality.
func (g *generator) instr(p *proc) {
	n := 1
	if g.prof.DataPerInstr < 1 {
		// Fewer data refs per instruction → several fetches per datum.
		n = int(1/g.prof.DataPerInstr + 0.5)
	} else if g.prof.DataPerInstr > 1 && g.rng.chance(1-1/g.prof.DataPerInstr) {
		n = 0
	}
	for i := 0; i < n; i++ {
		g.emit(p, trace.Instr, p.pc, 0)
		p.pc += 4
		p.pcLeft--
		if p.pcLeft <= 0 {
			blk := g.rng.intn(g.prof.CodeBlocks)
			p.pc = codeBase + uint64(p.id)*codeStride + uint64(blk)*trace.BlockBytes
			p.pcLeft = g.prof.LoopLen
		}
	}
}

// step issues one instruction/data unit in the process's current mode.
func (g *generator) step(p *proc) {
	switch p.mode {
	case modeCS:
		g.csStep(p)
	default:
		g.computeStep(p)
	}
}

func (g *generator) computeStep(p *proc) {
	g.instr(p)
	if p.sysLeft > 0 {
		g.systemData(p)
		p.sysLeft--
		return
	}
	switch {
	case g.rng.chance(g.prof.LockRate):
		g.beginLock(p)
	case g.rng.chance(g.prof.SysRate):
		p.sysLeft = g.prof.SysLen
		p.sysBase = g.rng.intn(osSharedBlocks - sysWindow + 1)
		g.systemData(p)
	case g.rng.chance(g.prof.SharedFrac):
		g.sharedData(p)
	default:
		g.privateData(p)
	}
}

// privateData touches the process-private working set, growing it slowly
// so first-reference misses are spread through the trace.
func (g *generator) privateData(p *proc) {
	if p.privUsed < g.prof.PrivBlocks && g.rng.chance(g.prof.GrowthRate) {
		p.privUsed++
	}
	blk := g.rng.intn(p.privUsed)
	addr := privBase + uint64(p.id)*privStride + uint64(blk)*trace.BlockBytes +
		uint64(g.rng.intn(trace.BlockBytes/4))*4
	kind := trace.Write
	if g.rng.chance(g.prof.PrivateReadFrac) {
		kind = trace.Read
	}
	g.emit(p, kind, addr, 0)
}

// sharedData touches the read-mostly shared heap with a hot/cold skew.
func (g *generator) sharedData(p *proc) {
	obj := g.rng.zipfish(g.prof.SharedObjects)
	blk := g.rng.intn(g.prof.ObjBlocks)
	addr := sharedBase + (uint64(obj)*uint64(g.prof.ObjBlocks)+uint64(blk))*trace.BlockBytes
	kind := trace.Write
	if g.rng.chance(g.prof.SharedReadFrac) {
		kind = trace.Read
	}
	g.emit(p, kind, addr, trace.FlagShared)
}

// sysWindow is the locality window of one system stretch: a stretch reads
// a small neighbourhood of the shared kernel structures rather than
// striding across all of them, so consecutive system reads mostly hit.
const sysWindow = 8

// systemData models an operating-system stretch: mostly reads of shared
// kernel structures with stretch-local locality, plus occasional updates
// to migratory scheduler state.
func (g *generator) systemData(p *proc) {
	if g.rng.chance(0.06) {
		blk := g.rng.intn(osMigrateBlocks)
		addr := osMigrate + uint64(blk)*trace.BlockBytes
		kind := trace.Write
		if g.rng.chance(0.65) {
			kind = trace.Read
		}
		g.emit(p, kind, addr, trace.FlagShared)
		return
	}
	blk := p.sysBase + g.rng.intn(sysWindow)
	addr := osShared + uint64(blk)*trace.BlockBytes
	g.emit(p, trace.Read, addr, trace.FlagShared)
}

// beginLock starts a critical section: acquire immediately if the lock is
// free, otherwise start spinning.
func (g *generator) beginLock(p *proc) {
	// Lock choice: strong affinity for the previously used lock (data
	// structures are revisited), otherwise a hot/cold skewed pick. The
	// affinity is what makes a handful of locks heavily contended, as in
	// POPS and THOR.
	if !g.rng.chance(0.85) {
		p.lastLock = g.rng.zipfish(g.prof.Locks)
	}
	p.lockIdx = p.lastLock
	l := g.locks[p.lockIdx]
	if l.held {
		p.mode = modeSpin
		g.spinReads(p, l)
		return
	}
	g.acquire(p, l)
}

// spinTurn is one scheduling turn of a waiting process.
func (g *generator) spinTurn(p *proc) {
	l := g.locks[p.lockIdx]
	if l.held {
		g.spinReads(p, l)
		return
	}
	g.acquire(p, l)
	// Continue with a short burst inside the critical section so lock
	// handoff does not consume a whole turn.
	burst := g.rng.rangeInt(g.prof.BurstMin, g.prof.BurstMax)
	for i := 0; i < burst && p.mode == modeCS && !g.stop; i++ {
		g.step(p)
	}
}

// spinReads emits a burst of lock-test reads (the first "test" of
// test-and-test-and-set), flagged so the Section 5.2 filter can remove
// them.
func (g *generator) spinReads(p *proc, l *lockState) {
	for i := 0; i < g.prof.SpinBurst; i++ {
		g.instr(p)
		g.emit(p, trace.Read, l.addr, trace.FlagSpin|trace.FlagShared)
	}
}

// acquire emits the successful test and the test-and-set, and enters the
// critical section.
func (g *generator) acquire(p *proc, l *lockState) {
	g.instr(p)
	g.emit(p, trace.Read, l.addr, trace.FlagAcquire|trace.FlagShared)
	g.instr(p)
	g.emit(p, trace.Write, l.addr, trace.FlagAcquire|trace.FlagShared)
	l.held = true
	l.owner = p.id
	p.mode = modeCS
	p.csLeft = g.rng.rangeInt(g.prof.CSMin, g.prof.CSMax)
	fp := g.csFootprint()
	p.csBase = 0
	if fp < g.prof.LockRegionBlocks {
		p.csBase = g.rng.intn(g.prof.LockRegionBlocks - fp + 1)
	}
}

// csFootprint returns the number of protected blocks one critical section
// visits.
func (g *generator) csFootprint() int {
	fp := g.prof.CSFootprint
	if fp <= 0 || fp > g.prof.LockRegionBlocks {
		fp = g.prof.LockRegionBlocks
	}
	return fp
}

// csStep issues one access inside the critical section, releasing the lock
// when done. Protected data is accessed read-modify-write: a block is read
// first and possibly written on the next step, reproducing the paper's
// observation that most writes land on blocks a read miss brought in.
func (g *generator) csStep(p *proc) {
	l := g.locks[p.lockIdx]
	if p.csLeft > 0 {
		g.instr(p)
		if p.hasPending && g.rng.chance(g.prof.CSWriteFrac) {
			g.emit(p, trace.Write, p.pendingWrite, trace.FlagShared)
			p.hasPending = false
		} else {
			blk := p.csBase + g.rng.intn(g.csFootprint())
			addr := l.guardBase + uint64(blk)*trace.BlockBytes
			g.emit(p, trace.Read, addr, trace.FlagShared)
			p.pendingWrite = addr
			p.hasPending = true
		}
		p.csLeft--
		return
	}
	g.instr(p)
	g.emit(p, trace.Write, l.addr, trace.FlagRelease|trace.FlagShared)
	l.held = false
	p.hasPending = false
	p.mode = modeCompute
}
