package engine

import (
	"math"
	"reflect"
	"testing"

	"dirsim/internal/bus"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

// TestSpecModelsHaveIntegralPrices checks the premise that lets sim price
// a run once per event class, bit-identically to pricing event by event:
// every bus model a spec can be priced under charges a whole number of
// cycles for every operation, so each category is a sum of integers,
// exact in float64 in any order below 2^53. The default pair is what a
// spec at the native block size gets (models returns nil); block sizes
// run up to 1 GiB.
func TestSpecModelsHaveIntegralPrices(t *testing.T) {
	models := []bus.Model{bus.Pipelined(), bus.NonPipelined()}
	for size := trace.BlockBytes; size <= 1<<30; size *= 2 {
		spec := SimSpec{Trace: workload.POPSConfig(4, 1000), Scheme: "Dir0B", BlockBytes: size}
		if err := spec.Validate(); err != nil {
			t.Fatalf("block %d: %v", size, err)
		}
		if ms := spec.models(); size == trace.BlockBytes && ms != nil {
			t.Errorf("native block size priced under %d models, want the default", len(ms))
		} else {
			models = append(models, ms...)
		}
	}
	for _, m := range models {
		v := reflect.ValueOf(m)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 {
				if p := f.Float(); p != math.Trunc(p) || p < 0 || p >= 1<<53 {
					t.Errorf("%s %s = %v: not a whole number of cycles", m.Name, v.Type().Field(i).Name, p)
				}
			}
		}
	}
	if len(models) < 2*26 {
		t.Errorf("checked %d models", len(models))
	}
}
