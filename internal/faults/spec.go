package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds a Config from a compact command-line spec: a
// comma-separated list of key=value pairs, e.g.
//
//	panic=0.05,error=0.2,truncate=0.1,poison=0.05
//
// Keys: panic, error (spurious failures), truncate, poison, and the
// transport class drop, dropreply, dup, wirecorrupt, wiredelay,
// disconnect, partition, crash take probabilities in [0, 1]; wiredelaydur
// takes a positive Go duration; partitionwindow takes a positive integer
// message count. The seed is supplied separately so the same fault mix
// can be replayed under different schedules. An empty spec yields a zero
// Config.
func ParseSpec(spec string, seed uint64) (Config, error) {
	cfg := Config{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var prob *float64
		switch key {
		case "wiredelaydur":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad %s %q: %w", key, val, err)
			}
			if d <= 0 {
				return Config{}, fmt.Errorf("faults: bad %s %q (want positive duration)", key, val)
			}
			cfg.WireDelayDur = d
			continue
		case "partitionwindow":
			w, err := strconv.ParseInt(val, 10, 64)
			if err != nil || w <= 0 {
				return Config{}, fmt.Errorf("faults: bad partitionwindow %q (want positive integer)", val)
			}
			cfg.PartitionWindow = w
			continue
		case "panic":
			prob = &cfg.Panic
		case "error", "spurious":
			prob = &cfg.Spurious
		case "truncate":
			prob = &cfg.Truncate
		case "poison":
			prob = &cfg.Poison
		case "drop":
			prob = &cfg.Drop
		case "dropreply":
			prob = &cfg.DropReply
		case "dup", "duplicate":
			prob = &cfg.Duplicate
		case "wirecorrupt":
			prob = &cfg.WireCorrupt
		case "wiredelay":
			prob = &cfg.WireDelay
		case "disconnect":
			prob = &cfg.Disconnect
		case "partition":
			prob = &cfg.Partition
		case "crash":
			prob = &cfg.Crash
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad probability for %s: %q", key, val)
		}
		// Written so that NaN, which compares false both ways, is refused.
		if !(p >= 0 && p <= 1) {
			return Config{}, fmt.Errorf("faults: probability for %s out of [0,1]: %v", key, p)
		}
		*prob = p
	}
	return cfg, nil
}
