package core

import (
	"testing"

	"dirsim/internal/event"
	"dirsim/internal/trace"
)

// FuzzMRSWFamily holds the family identity the shared walk rests on, one
// reference at a time, on arbitrary traces of up to 4 096 references, 8
// CPUs and 64 blocks (decodeFamilyTrace): every variant priced from the
// shared walk (Walk, View) gives exactly the result its own engine's
// Access gives, and that result is the one the variant's specification,
// refMRSW, derives from a directory that keeps its own state. The seed
// corpus is testdata/fuzz/FuzzMRSWFamily.
func FuzzMRSWFamily(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1, 64, 1, 1, 1, 2, 1, 64, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ncpu, refs := decodeFamilyTrace(data)
		ps := []Protocol{NewDir0B(ncpu), NewDiriB(ncpu, 1), NewDiriB(ncpu, 2), NewDiriB(ncpu, ncpu),
			NewDirNNB(ncpu), NewDiriNB(ncpu, ncpu), NewCoarseVector(ncpu), NewYenFu(ncpu), NewWTI(ncpu)}
		refs2 := []refMRSW{{}, {ptrs: 1}, {ptrs: 2}, {ptrs: ncpu}, {ptrs: ncpu}, {ptrs: ncpu},
			{ptrs: ncpu, coarse: true}, {ptrs: ncpu, single: true}, {wt: true}}
		views := make([]*View, len(ps))
		for i, p := range ps {
			v, ok := ViewOf(p)
			if !ok {
				t.Fatalf("%s has no view", p.Name())
			}
			views[i] = v
			Attach(p, NewChecker())
			refs2[i].ncpu, refs2[i].blocks = ncpu, map[trace.Block]*refBlock{}
		}
		walk := NewWalk(ncpu)
		var plain Plain
		var steps []Step
		for n, r := range refs {
			plain.N = [event.NumTypes]int64{}
			steps = walk.Next(refs[n:n+1], &plain, steps[:0])
			for i, p := range ps {
				var shared event.Result
				if len(steps) == 1 {
					shared = views[i].Result(steps[0])
				} else {
					for ty, k := range plain.N {
						if k == 1 {
							shared = views[i].Plain(event.Type(ty))
						}
					}
				}
				own, spec := p.Access(r), refs2[i].access(r)
				if shared != own || own != spec {
					t.Fatalf("%s, reference %d %+v: shared walk %+v, own engine %+v, specification %+v",
						p.Name(), n, r, shared, own, spec)
				}
			}
		}
		for _, p := range ps {
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// decodeFamilyTrace reads a fuzz input as a trace: the first byte's low
// three bits are the CPU count less one, then each byte pair is one
// reference — the first byte's low three bits its CPU (modulo the count)
// and its top two bits its kind (read, write, read, instruction), the
// second byte's low six bits its block.
func decodeFamilyTrace(data []byte) (int, []trace.Ref) {
	if len(data) == 0 {
		return 1, nil
	}
	ncpu := 1 + int(data[0]&7)
	var refs []trace.Ref
	for i := 1; i+1 < len(data) && len(refs) < 4096; i += 2 {
		c := data[i] & 7 % uint8(ncpu)
		kind := [...]trace.Kind{trace.Read, trace.Write, trace.Read, trace.Instr}[data[i]>>6]
		refs = append(refs, trace.Ref{Addr: blockAddr(int(data[i+1] & 63)), CPU: c, Proc: uint16(c), Kind: kind})
	}
	return ncpu, refs
}

// refMRSW is one family variant's specification as a test oracle: the
// directory entry of each block kept as the paper describes it — the
// holders, a dirty bit, and the broadcast bit a limited entry sets when
// its pointers overflow — with no state or code shared with the walk.
type refMRSW struct {
	ncpu, ptrs         int
	wt, single, coarse bool
	blocks             map[trace.Block]*refBlock
}

type refBlock struct {
	holders            Set
	seen, dirty, bcast bool
}

func (m *refMRSW) access(r trace.Ref) event.Result {
	if r.Kind == trace.Instr {
		return event.Result{Type: event.Instr}
	}
	b := m.blocks[r.Block()]
	if b == nil {
		b = &refBlock{}
		m.blocks[r.Block()] = b
	}
	c, write := r.CPU, r.Kind == trace.Write
	others := b.holders.Del(c)
	var res event.Result
	switch {
	case b.holders.Has(c) && !write:
		return event.Result{Type: event.RdHit}
	case b.holders.Has(c) && b.dirty:
		return event.Result{Type: event.WrHitOwn, Update: m.wt}
	case b.holders.Has(c):
		res = event.Result{Type: event.WrHitClean, Holders: int16(others.Count()),
			DirCheck: !m.wt && !(m.single && others.Empty())}
	default:
		res.Holders = int16(b.holders.Count())
		switch {
		case b.dirty:
			res.Type = event.RdMissDirty
			res.WriteBack, res.CacheSupply = !m.wt, !m.wt
		case !b.holders.Empty():
			res.Type = event.RdMissClean
			if m.single && b.holders.Count() == 1 {
				res.Control = 1
			}
		case b.seen:
			res.Type = event.RdMissMem
		default:
			res.Type = event.RdMissFirst
		}
		b.seen = true
		if !write {
			if n := b.holders.Count(); n > 0 && n >= m.ptrs {
				b.bcast = true
			}
			b.holders, b.dirty = b.holders.Add(c), false
			return res
		}
		res.Type += event.WrMissFirst - event.RdMissFirst
		res.Control = 0
	}
	if k := others.Count(); k > 0 {
		switch {
		case m.ptrs == 0 || b.bcast:
			res.Broadcast = true
		case m.coarse:
			res.Inval = int16(m.coarseNamed(b.holders).Del(c).Count())
		default:
			res.Inval = int16(k)
		}
	}
	b.holders, b.dirty, b.bcast = Set(0).Add(c), true, false
	res.Update = m.wt
	return res
}

// coarseNamed names every cache below ncpu whose index agrees with the
// holders' on each index bit they all share.
func (m *refMRSW) coarseNamed(holders Set) Set {
	var named Set
	for x := range m.ncpu {
		ok := true
		for k := range 6 {
			var all0, all1 = true, true
			for h := range MaxCPUs {
				if holders.Has(uint8(h)) {
					all0 = all0 && h>>k&1 == 0
					all1 = all1 && h>>k&1 == 1
				}
			}
			ok = ok && !(all0 && x>>k&1 == 1) && !(all1 && x>>k&1 == 0)
		}
		if ok {
			named = named.Add(uint8(x))
		}
	}
	return named
}
