package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// seeds.json records the default and the held-out seed, the schedule
// digest each federation workload produces for them, and the workloads
// whose schedule is not yet reproducible.
//
//go:embed seeds.json
var seedsJSON []byte

type seedRecord struct {
	DefaultSeed uint64                       `json:"default_seed"`
	HeldOutSeed uint64                       `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
	// Nondeterministic names the workloads whose schedule the program
	// does not yet reproduce run to run, with the cause.
	Nondeterministic map[string]string `json:"nondeterministic"`
}

func loadSeeds() seedRecord {
	var r seedRecord
	if err := json.Unmarshal(seedsJSON, &r); err != nil {
		panic("perfbench: seeds.json: " + err.Error()) // embedded at build time
	}
	return r
}

func defaultSeed() uint64 { return loadSeeds().DefaultSeed }

// recordedDigest returns the recorded schedule digest of a workload for
// seed, if one was recorded.
func recordedDigest(workload string, seed uint64) (string, bool) {
	d, ok := loadSeeds().Digests[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}
