package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// TestNilInjectorIsInert checks every hook on a nil receiver: no faults,
// no panics, sources returned untouched.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.JobFault("job", 0); err != nil {
		t.Errorf("nil injector returned job fault: %v", err)
	}
	if _, ok := inj.TruncateAfter("s", 1000); ok {
		t.Error("nil injector truncates")
	}
	src := workload.POPS(4, 100).Iterator()
	if got := inj.WrapSource("s", src, 100); got != src {
		t.Error("nil injector wrapped source")
	}
	if inj.PoisonStamp("k") {
		t.Error("nil injector poisons")
	}
}

// TestDeterministicSchedule replays every decision class with the same
// seed and checks the outcomes are identical, and that a different seed
// produces a different schedule somewhere.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, Panic: 0.1, Spurious: 0.2, Truncate: 0.3, Poison: 0.2}
	record := func(inj *Injector) []string {
		var out []string
		for i := 0; i < 200; i++ {
			site := "job" + string(rune('a'+i%7))
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = errors.New("panic")
					}
				}()
				return inj.JobFault(site, i)
			}()
			switch {
			case err == nil:
				out = append(out, "ok")
			default:
				out = append(out, err.Error())
			}
			if n, ok := inj.TruncateAfter(site, 10_000); ok {
				out = append(out, "trunc", string(rune(n%256)))
			}
			if inj.PoisonStamp(site) {
				out = append(out, "poison")
			}
		}
		return out
	}
	a := record(New(cfg))
	b := record(New(cfg))
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := record(New(cfg))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestJobFaultRates sanity-checks that the probabilities roughly hold and
// that attempts draw independently (a spurious failure can clear on
// retry).
func TestJobFaultRates(t *testing.T) {
	inj := New(Config{Seed: 7, Spurious: 0.5})
	failures, recovered := 0, 0
	for i := 0; i < 400; i++ {
		site := "site" + string(rune('0'+i%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i/100))
		if err := inj.JobFault(site, 0); err != nil {
			failures++
			var sp *Spurious
			if !errors.As(err, &sp) {
				t.Fatalf("unexpected error type: %T", err)
			}
			if !sp.Retryable() {
				t.Fatal("spurious error not retryable")
			}
			if inj.JobFault(site, 1) == nil {
				recovered++
			}
		}
	}
	if failures < 120 || failures > 280 {
		t.Errorf("spurious rate off: %d/400 at p=0.5", failures)
	}
	if recovered == 0 {
		t.Error("no site recovered on retry; attempts not independent")
	}
}

// TestTruncatedSource checks the wrapper cuts the stream at the scheduled
// point.
func TestTruncatedSource(t *testing.T) {
	inj := New(Config{Seed: 1, Truncate: 1})
	n, ok := inj.TruncateAfter("cut", 5000)
	if !ok {
		t.Fatal("p=1 truncation did not fire")
	}
	if n < 0 || n >= 5000 {
		t.Fatalf("cut point out of range: %d", n)
	}

	count := func(src trace.Source) int64 {
		buf := make([]trace.Ref, 512)
		var total int64
		for {
			got := src.NextBatch(buf)
			if got == 0 {
				return total
			}
			total += int64(got)
		}
	}
	tr := workload.POPS(4, 5000)
	if got := count(inj.WrapSource("cut", tr.Iterator(), 5000)); got != n {
		t.Errorf("read delivered %d refs, want %d", got, n)
	}
	if got := count(inj.WrapSource("clean", workload.POPS(4, 1000).Iterator(), 0)); got != 1000 {
		t.Errorf("zero-length hint must disable truncation, got %d refs", got)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("panic=0.05, error=0.2,truncate=0.1,poison=0.3", 99)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 99, Panic: 0.05, Spurious: 0.2, Truncate: 0.1, Poison: 0.3}
	if cfg != want {
		t.Errorf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Error("parsed config not Enabled")
	}
	wire, err := ParseSpec("drop=0.1,dropreply=0.05,dup=0.1,wirecorrupt=0.2,wiredelay=0.3,wiredelaydur=2ms,disconnect=0.1,partition=0.25,partitionwindow=16,crash=0.4", 7)
	if err != nil {
		t.Fatal(err)
	}
	wantWire := Config{Seed: 7, Drop: 0.1, DropReply: 0.05, Duplicate: 0.1,
		WireCorrupt: 0.2, WireDelay: 0.3, WireDelayDur: 2 * time.Millisecond,
		Disconnect: 0.1, Partition: 0.25, PartitionWindow: 16, Crash: 0.4}
	if wire != wantWire {
		t.Errorf("ParseSpec wire = %+v, want %+v", wire, wantWire)
	}
	if !wire.TransportEnabled() || !wire.Enabled() {
		t.Error("wire config not enabled")
	}
	if (Config{Crash: 0.5}).TransportEnabled() {
		t.Error("crash alone must not enable the transport wrapper")
	}
	empty, err := ParseSpec("  ", 5)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Enabled() {
		t.Error("empty spec enabled faults")
	}
	for _, bad := range []string{"panic", "panic=2", "panic=x", "panic=NaN", "bogus=0.1",
		"wiredelaydur=soon", "wiredelaydur=0s", "wiredelaydur=-1ms",
		"partitionwindow=0", "partitionwindow=x", "drop=1.5"} {
		if _, err := ParseSpec(bad, 0); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// Keys of fault classes that left with the code they exercised are
	// typos like any other, reported by name.
	for _, gone := range retiredSpecKeys {
		for _, val := range []string{"0.1", "1ms"} {
			_, err := ParseSpec("panic=0.1,"+gone+"="+val, 0)
			if want := fmt.Sprintf("unknown spec key %q", gone); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ParseSpec(%s=%s) = %v, want %s", gone, val, err, want)
			}
		}
	}
}

// retiredSpecKeys once selected chunk corruption, chunk delay and shard
// panics.
var retiredSpecKeys = []string{"corrupt", "slow", "slowdelay", "shardpanic"}

// FuzzParseSpec drives the -faults grammar, which arrives from a command
// line: no input panics the parser, and whatever it accepts is a schedule
// the injector can run — every probability in [0, 1], every duration and
// window that was given positive — that never came from a retired key. The seed
// corpus (testdata/fuzz) holds the documented examples, every key, the
// retired keys, and values at and past each bound.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		cfg, err := ParseSpec(spec, seed)
		if err != nil {
			if cfg != (Config{}) {
				t.Fatalf("ParseSpec(%q) failed with a non-zero Config %+v", spec, cfg)
			}
			return
		}
		if cfg.Seed != seed {
			t.Fatalf("ParseSpec(%q) seed = %d, want %d", spec, cfg.Seed, seed)
		}
		for name, p := range map[string]float64{
			"panic": cfg.Panic, "error": cfg.Spurious, "truncate": cfg.Truncate, "poison": cfg.Poison,
			"drop": cfg.Drop, "dropreply": cfg.DropReply, "dup": cfg.Duplicate,
			"wirecorrupt": cfg.WireCorrupt, "wiredelay": cfg.WireDelay,
			"disconnect": cfg.Disconnect, "partition": cfg.Partition, "crash": cfg.Crash,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted %s=%v", spec, name, p)
			}
		}
		for _, part := range strings.Split(spec, ",") {
			key, val, _ := strings.Cut(part, "=")
			key = strings.ToLower(strings.TrimSpace(key))
			for _, gone := range retiredSpecKeys {
				if key == gone {
					t.Fatalf("ParseSpec(%q) accepted retired key %s", spec, gone)
				}
			}
			// A duration or window that was given is positive; zero is
			// only ever "not given", which New replaces with its default.
			if key == "wiredelaydur" && cfg.WireDelayDur <= 0 || key == "partitionwindow" && cfg.PartitionWindow <= 0 {
				t.Fatalf("ParseSpec(%q) accepted %s=%q", spec, key, val)
			}
		}
	})
}

// TestTransportFaultDeterminism replays the full transport schedule for a
// fixed seed, checks a different seed diverges, and checks the nil
// injector and disabled classes are inert.
func TestTransportFaultDeterminism(t *testing.T) {
	cfg := Config{Seed: 11, Drop: 0.1, DropReply: 0.1, Duplicate: 0.1,
		WireCorrupt: 0.1, WireDelay: 0.1, WireDelayDur: time.Millisecond,
		Disconnect: 0.1, Partition: 0.2, PartitionWindow: 4, Crash: 0.3}
	record := func(inj *Injector) []TransportDecision {
		var out []TransportDecision
		for i := int64(0); i < 300; i++ {
			site := "w" + string(rune('0'+i%3)) + ":lease"
			d := inj.TransportFault(site, i)
			if inj.Partitioned(site, i) {
				d.Drop = true
			}
			out = append(out, d)
		}
		return out
	}
	a, b := record(New(cfg)), record(New(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transport schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 12
	c := record(New(cfg2))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical transport schedules")
	}

	var nilInj *Injector
	if d := nilInj.TransportFault("s", 0); d != (TransportDecision{}) {
		t.Errorf("nil injector faults transport: %+v", d)
	}
	if nilInj.Partitioned("s", 0) || nilInj.WorkerCrash("s", "k") {
		t.Error("nil injector partitions or crashes")
	}
	if d := New(Config{Seed: 1, Panic: 0.5}).TransportFault("s", 0); d != (TransportDecision{}) {
		t.Errorf("transport-disabled config faults transport: %+v", d)
	}
}

// TestTransportFaultClasses checks each class fires at p=1, that the
// destructive classes are mutually exclusive, and that delay composes.
func TestTransportFaultClasses(t *testing.T) {
	fired := func(cfg Config) TransportDecision {
		cfg.Seed = 5
		return New(cfg).TransportFault("site", 3)
	}
	if d := fired(Config{Drop: 1, Duplicate: 1, WireCorrupt: 1, Disconnect: 1}); !d.Drop || d.Duplicate || d.Corrupt || d.Disconnect {
		t.Errorf("drop must win over later classes: %+v", d)
	}
	if d := fired(Config{DropReply: 1}); !d.DropReply || d.Drop {
		t.Errorf("dropreply: %+v", d)
	}
	if d := fired(Config{Duplicate: 1}); !d.Duplicate {
		t.Errorf("duplicate: %+v", d)
	}
	if d := fired(Config{WireCorrupt: 1}); !d.Corrupt {
		t.Errorf("wirecorrupt: %+v", d)
	}
	if d := fired(Config{Disconnect: 1}); !d.Disconnect {
		t.Errorf("disconnect: %+v", d)
	}
	d := fired(Config{Drop: 1, WireDelay: 1, WireDelayDur: 7 * time.Millisecond})
	if !d.Drop || d.Delay != 7*time.Millisecond {
		t.Errorf("delay must compose with drop: %+v", d)
	}
}

// TestPartitionWindowing checks partitions drop whole windows of
// consecutive messages rather than flipping per-message coins.
func TestPartitionWindowing(t *testing.T) {
	inj := New(Config{Seed: 9, Partition: 0.5, PartitionWindow: 8})
	transitions, parted := 0, 0
	last := false
	const msgs = 640
	for n := int64(0); n < msgs; n++ {
		p := inj.Partitioned("w1:push", n)
		if p {
			parted++
		}
		if n > 0 && p != last {
			transitions++
			if n%8 != 0 {
				t.Fatalf("partition state flipped mid-window at message %d", n)
			}
		}
		last = p
	}
	if parted == 0 || parted == msgs {
		t.Fatalf("partition rate degenerate: %d/%d", parted, msgs)
	}
	if inj.Partitioned("w1:push", 3) != inj.Partitioned("w1:push", 3) {
		t.Error("partition decision not stable")
	}
}

// TestCorruptByteAndDisconnectAfter sanity-checks the corruption and
// disconnect shaping helpers: stable, mask never zero, cut fraction
// strictly mid-stream.
func TestCorruptByteAndDisconnectAfter(t *testing.T) {
	inj := New(Config{Seed: 21, WireCorrupt: 1, Disconnect: 1})
	for n := int64(0); n < 100; n++ {
		pos, mask := inj.CorruptByte("s", n)
		if pos < 0 || mask == 0 {
			t.Fatalf("CorruptByte(%d) = %d, %#x", n, pos, mask)
		}
		p2, m2 := inj.CorruptByte("s", n)
		if pos != p2 || mask != m2 {
			t.Fatalf("CorruptByte(%d) unstable", n)
		}
		at := inj.DisconnectAfter("s", n)
		if at < 0.1 || at > 0.9 {
			t.Fatalf("DisconnectAfter(%d) = %v out of [0.1,0.9]", n, at)
		}
	}
}

// TestWorkerCrash checks crash decisions are per (worker, job) and
// reproducible.
func TestWorkerCrash(t *testing.T) {
	inj := New(Config{Seed: 2, Crash: 0.5})
	crashed := 0
	for i := 0; i < 200; i++ {
		key := "job" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if inj.WorkerCrash("w1", key) {
			crashed++
			if !inj.WorkerCrash("w1", key) {
				t.Fatal("crash decision not stable")
			}
		}
	}
	if crashed < 50 || crashed > 150 {
		t.Errorf("crash rate off: %d/200 at p=0.5", crashed)
	}
}

func TestGoroutineLeakHelper(t *testing.T) {
	// A goroutine alive at the snapshot that exits afterwards — under load,
	// the previous test's runner still unwinding — must not offset a new one.
	old := make(chan struct{})
	go func() { <-old }()
	snap := Goroutines()
	done := make(chan struct{})
	go func() { <-done }()
	close(old)
	if err := snap.Leaked(20 * time.Millisecond); err == nil {
		t.Error("helper blind to a live extra goroutine")
	}
	close(done)
	if err := snap.Leaked(2 * time.Second); err != nil {
		t.Errorf("helper reported leak after goroutine exited: %v", err)
	}
}
