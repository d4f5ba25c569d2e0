package verify

import (
	"strings"
	"testing"

	"dirsim/internal/core"
)

// TestAllBundledSchemesPassBattery runs the full conformance battery —
// model check, kernels, application trace — against every registered
// scheme (the coarse-vector directory among them) and against Dir_iNB
// with one pointer, whose every second copy is a forced eviction. Stage 1
// is the suite's only exhaustive exploration: every interleaving of 2
// CPUs over 2 blocks to depth 5, for each of them.
func TestAllBundledSchemesPassBattery(t *testing.T) {
	battery := map[string]func(ncpu int) core.Protocol{
		"DiriNB-one-pointer": func(ncpu int) core.Protocol { return core.NewDiriNB(ncpu, 1) },
	}
	for _, name := range append(core.Schemes(), "Dir2B", "Dir2NB", "Dir4NB") {
		battery[name] = func(ncpu int) core.Protocol {
			p, err := core.NewByName(name, ncpu)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	for name, factory := range battery {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := Battery(factory); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatteryRejectsBrokenProtocol confirms the battery fails fast on a
// protocol that skips invalidation, and names the failing stage.
func TestBatteryRejectsBrokenProtocol(t *testing.T) {
	err := Battery(func(ncpu int) core.Protocol { return newBroken() })
	if err == nil {
		t.Fatal("broken protocol passed the battery")
	}
	if !strings.Contains(err.Error(), "model check") {
		t.Errorf("failure not attributed to a stage: %v", err)
	}
}
