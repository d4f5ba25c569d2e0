package trace

// Checksum hashes the full content of a reference slice — every field of
// every reference, order-sensitive — into 64 bits. It is the hash under
// Trace.Fingerprint, the stamp the engine, the store and the fleet
// revalidate cached traces against. FNV-1a folded over 64-bit words costs
// a few multiplications per reference — cheap enough for verification
// mode, and never on the default hot path.
func Checksum(refs []Ref) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := range refs {
		r := &refs[i]
		h ^= r.Addr
		h *= prime64
		h ^= uint64(r.Proc) | uint64(r.CPU)<<16 | uint64(r.Kind)<<24 | uint64(r.Flags)<<32
		h *= prime64
	}
	return h
}

// Fingerprint identifies the trace's full content: its name, machine
// size, and the checksum of every reference. The execution engine uses it
// to validate trace-cache entries in verification mode — a cached trace
// whose fingerprint no longer matches the one recorded when it was stored
// is evicted and regenerated rather than served.
func (t *Trace) Fingerprint() uint64 {
	const prime64 = 1099511628211
	h := Checksum(t.Refs)
	for i := 0; i < len(t.Name); i++ {
		h ^= uint64(t.Name[i])
		h *= prime64
	}
	h ^= uint64(t.CPUs)
	h *= prime64
	h ^= uint64(len(t.Refs))
	h *= prime64
	return h
}
