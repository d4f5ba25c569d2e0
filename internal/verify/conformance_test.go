package verify

import (
	"strings"
	"testing"

	"dirsim/internal/core"
)

// TestAllBundledSchemesPassBattery runs the full conformance battery —
// model check, kernels, application trace — against every registered
// scheme (the coarse-vector directory among them).
func TestAllBundledSchemesPassBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("battery is heavy")
	}
	names := core.Schemes()
	names = append(names, "Dir2B", "Dir2NB", "Dir4NB")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			err := Battery(func(ncpu int) core.Protocol {
				p, err := core.NewByName(name, ncpu)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
			if err != nil {
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
