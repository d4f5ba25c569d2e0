package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dirsim/internal/bus"
	"dirsim/internal/network"
)

// A Result's binary form is walk's field order written out: integers and
// flags (0 or 1) as 8 bytes little-endian, floats as their raw IEEE-754
// bits (so values survive bit for bit), and strings, histograms and maps
// behind their length as a minimal uvarint, map entries in ascending key
// order. The form has no version of its own: the durable store's
// envelope carries one.

// encoder is the fieldSink that appends the binary form.
type encoder struct{ b []byte }

func (e *encoder) word(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) count(n int)   { e.b = binary.AppendUvarint(e.b, uint64(n)) }
func (e *encoder) str(s string)  { e.count(len(s)); e.b = append(e.b, s...) }

func (e *encoder) hist(buckets []int64) {
	e.count(len(buckets))
	for _, v := range buckets {
		e.word(uint64(v))
	}
}

// AppendBinary appends the result's binary form to b. It never fails; the
// error satisfies encoding.BinaryAppender.
func (r *Result) AppendBinary(b []byte) ([]byte, error) {
	e := encoder{b: b}
	r.walk(&e)
	return e.b, nil
}

// decoder reads the binary form back. The first failure sticks: it
// empties the input, so every later read fails too and returns zero.
type decoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) word() uint64 {
	if len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) i64() int64     { return int64(d.word()) }
func (d *decoder) float() float64 { return math.Float64frombits(d.word()) }

// count reads a length and checks, before the caller allocates, that that
// many items of at least size bytes fit in what is left. A non-minimal
// uvarint is refused, so an accepted input has exactly one encoding.
func (d *decoder) count(size int) int {
	n, w := binary.Uvarint(d.b)
	switch {
	case w <= 0:
		d.fail(errTruncated)
	case w > 1 && d.b[w-1] == 0:
		d.fail(errors.New("non-minimal length"))
	case n > uint64((len(d.b)-w)/size):
		d.fail(fmt.Errorf("length %d overruns the %d bytes left", n, len(d.b)-w))
	default:
		d.b = d.b[w:]
		return int(n)
	}
	return 0
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// hist reads a histogram; an empty one is nil, as before any Observe.
func (d *decoder) hist() []int64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

func (d *decoder) flag() bool {
	v := d.word()
	if v > 1 {
		d.fail(fmt.Errorf("flag word %d", v))
	}
	return v == 1
}

// decodeMap reads a map whose keys must ascend strictly; value reads one
// entry's value.
func decodeMap[V any](d *decoder, value func() V) map[string]V {
	m := make(map[string]V)
	prev := ""
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("map key %q out of order", k))
		}
		m[k], prev = value(), k
	}
	return m
}

// DecodeResult reads a result from its binary form (see AppendBinary). It
// accepts only bytes AppendBinary can produce: truncation, trailing bytes,
// a length that overruns the input, a non-minimal length, a flag other
// than 0 or 1, unsorted map keys and miss causes written as all zero are
// errors. An empty NetTallies
// decodes as nil, the shape Simulate and Merge give it.
func DecodeResult(b []byte) (*Result, error) {
	d := &decoder{b: b}
	r := &Result{Scheme: d.str(), Trace: d.str()}
	for i := range r.Counts.N {
		r.Counts.N[i] = d.i64()
	}
	r.Counts.Total = d.i64()
	r.InvalClean.Buckets = d.hist()
	r.HoldersAtInval.Buckets = d.hist()
	r.Broadcasts, r.SeqInvals, r.ForcedInvals, r.WriteBacks = d.i64(), d.i64(), d.i64(), d.i64()
	r.Tallies = decodeMap(d, func() *bus.Tally {
		t := &bus.Tally{}
		m := &t.Model
		m.Name = d.str()
		for _, c := range [...]*float64{&m.MemAccess, &m.CacheAccess, &m.WriteBackFill,
			&m.WriteWord, &m.DirCheck, &m.Inval, &m.BroadcastInval, &m.Q} {
			*c = d.float()
		}
		m.DirCheckFree = d.flag()
		t.Refs, t.Transactions = d.i64(), d.i64()
		for c := range t.Cycles {
			t.Cycles[c] = d.float()
		}
		return t
	})
	net := decodeMap(d, func() *network.Tally {
		t := &network.Tally{}
		topo := &t.Topo
		topo.Name, topo.Nodes, topo.AvgDist = d.str(), int(d.i64()), d.float()
		topo.DistSum, topo.DistPairs, topo.Diameter = int(d.i64()), int(d.i64()), int(d.i64())
		topo.Broadcast, topo.FloodLinks = d.flag(), int(d.i64())
		t.CycleUnits, t.Messages, t.Floods, t.Refs = d.i64(), d.i64(), d.i64(), d.i64()
		return t
	})
	if len(net) > 0 {
		r.NetTallies = net
	}
	if d.err == nil && len(d.b) > 0 {
		r.ColdMisses, r.CoherenceMisses, r.CapacityMisses = d.i64(), d.i64(), d.i64()
		if r.ColdMisses|r.CoherenceMisses|r.CapacityMisses == 0 {
			d.fail(errors.New("miss causes written as zero"))
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("sim: decode result: %w", d.err)
	}
	return r, nil
}
