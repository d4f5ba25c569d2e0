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
//	panic=0.05,error=0.2,truncate=0.1,corrupt=0.1,slow=0.01,slowdelay=1ms,poison=0.05
//
// Keys: panic, error (spurious failures), truncate, corrupt, slow, poison,
// and the transport class drop, dropreply, dup, wirecorrupt, wiredelay,
// disconnect, partition, crash take probabilities in [0, 1]; slowdelay
// and wiredelaydur take Go durations; partitionwindow takes a positive
// integer message count. The seed is supplied separately so the same
// fault mix can be replayed under different schedules. An empty spec
// yields a zero Config.
func ParseSpec(spec string, seed uint64) (Config, error) {
	cfg := Config{Seed: seed}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
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
		switch key {
		case "slowdelay", "wiredelaydur":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad %s %q: %w", key, val, err)
			}
			if key == "slowdelay" {
				cfg.SlowDelay = d
			} else {
				cfg.WireDelayDur = d
			}
			continue
		case "partitionwindow":
			w, err := strconv.ParseInt(val, 10, 64)
			if err != nil || w <= 0 {
				return Config{}, fmt.Errorf("faults: bad partitionwindow %q (want positive integer)", val)
			}
			cfg.PartitionWindow = w
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Config{}, fmt.Errorf("faults: bad probability for %s: %q", key, val)
		}
		if p < 0 || p > 1 {
			return Config{}, fmt.Errorf("faults: probability for %s out of [0,1]: %v", key, p)
		}
		switch key {
		case "panic":
			cfg.Panic = p
		case "error", "spurious":
			cfg.Spurious = p
		case "truncate":
			cfg.Truncate = p
		case "corrupt":
			cfg.Corrupt = p
		case "slow":
			cfg.Slow = p
		case "poison":
			cfg.Poison = p
		case "drop":
			cfg.Drop = p
		case "dropreply":
			cfg.DropReply = p
		case "dup", "duplicate":
			cfg.Duplicate = p
		case "wirecorrupt":
			cfg.WireCorrupt = p
		case "wiredelay":
			cfg.WireDelay = p
		case "disconnect":
			cfg.Disconnect = p
		case "partition":
			cfg.Partition = p
		case "crash":
			cfg.Crash = p
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
	}
	return cfg, nil
}
