// Scaling: the Section 6 study the paper motivates but could not run for
// lack of wide traces — how limited-pointer directory schemes behave as
// the machine grows, and what each organization costs in directory bits.
package main

import (
	"fmt"
	"log"

	"dirsim"
)

func main() {
	fmt.Println("Limited-pointer directories across machine sizes (THOR workload)")
	fmt.Println()
	for _, cpus := range []int{4, 8, 16, 32} {
		t := dirsim.THOR(cpus, 300_000)
		fmt.Printf("%d CPUs:\n", cpus)
		fmt.Printf("  %-8s %12s %12s %14s\n", "scheme", "cycles/ref", "rd-miss %", "bcast/1k refs")
		for _, scheme := range []string{"Dir0B", "Dir1B", "Dir2B", "Dir4B", "Dir2NB", "Dir4NB", "DirNNB"} {
			res, err := dirsim.Run(scheme, t)
			if err != nil {
				log.Fatalf("%s at %d cpus: %v", scheme, cpus, err)
			}
			fmt.Printf("  %-8s %12.4f %12.3f %14.2f\n",
				scheme,
				res.PerRef(dirsim.PipelinedModel),
				res.Counts.ReadMisses(),
				1000*float64(res.Broadcasts)/float64(res.Counts.Total))
		}
		fmt.Println()
	}

	// The storage comparison is arithmetic: the report's storage
	// experiment simulates nothing, whatever the context's trace length.
	ctx := dirsim.NewExperimentContext(1000, 4)
	for _, e := range dirsim.Experiments() {
		if e.ID != "storage" {
			continue
		}
		out, err := ctx.RunExperiment(e)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
	}
	fmt.Println("\nA couple of pointers already capture almost every invalidation")
	fmt.Println("directly; storage grows with log2(n) rather than n — the trade the")
	fmt.Println("paper proposes for scaling directories past a single bus.")
}
