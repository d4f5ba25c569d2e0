package main

// recordedDigests are the results_digest values of the full-size
// workloads for the development seed (1) and the held-out seed (2). A
// run whose digest differs is incorrect: a speed-up may not move a
// simulated statistic. Other seeds are checked op by op against the
// sequential oracle computed in set-up, like these, but have no
// recorded digest. paper_regen is seedless: the paper's inputs are fixed.
var recordedDigests = map[string]map[uint64]string{
	"sim_replay":   {1: "dcf34bc9e1735393", 2: "6be0c4673c9916f9"},
	"paper_regen":  {1: "576c7f6ce400fe26", 2: "576c7f6ce400fe26"},
	"service_warm": {1: "8d9daab25e26d078", 2: "219965e0d510eca0"},
	"fleet_cold":   {1: "21913a665c1afd85", 2: "363abaa3ec851d49"},
}

// digestMatches reports whether the run's digest is the recorded one,
// when one is recorded for its workload, sizes and seed.
func digestMatches(workload string, o options, digest string) bool {
	if o.quick {
		return true
	}
	want, ok := recordedDigests[workload][o.seed]
	return !ok || want == digest
}
