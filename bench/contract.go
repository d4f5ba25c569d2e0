package main

import (
	"encoding/json"
	"io"
)

// contract is BENCHMARK.json: the benchmark's machine-readable
// definition, generated from the tables in this package
// (go run ./bench -contract > BENCHMARK.json) and checked against them
// by the package test.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []metricSpec       `json:"end_to_end"`
	PerLayer   []metricSpec       `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the nominal timed region the contract asks the driver to
// pass as -seconds, and the flag's default.
const runSeconds = 20

func currentContract() contract {
	c := contract{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	return c
}

func writeContract(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(currentContract())
}
