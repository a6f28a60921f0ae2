package main

import (
	"fmt"
	"math"
)

// workload is one named traffic mix. The names are fixed: later changes
// cite them. Why each exists is recorded in README.md and BENCHMARK.json.
type workload struct {
	name string
	// levels and fusion name the detection stack (core.ParseStackSpec).
	levels, fusion string
	// attack is the target share of packages inside attack episodes.
	attack float64
	// low and high are the fixed offered rates of the latency metrics, in
	// packages per second: about 25 % and 75 % of the sustained rate of
	// the commit that defined the benchmark. They are absolute, so a later
	// change is judged at the same load.
	low, high float64
	// fleet selects the engine-only fleet workload.
	fleet bool
}

// ladderStep is the ratio between neighbouring rungs of the sustained-rate
// ladder above a workload's high rate.
const ladderStep = 1.04

// ladderRungs is the number of rungs above the high rate; the top rung is
// about 2.8 times the high rate.
const ladderRungs = 26

// ladder is the fixed ascending rate ladder sustained_pkg_s is searched
// on: the low and high rates, then geometric rungs above high.
func (w workload) ladder() []float64 {
	l := []float64{w.low, w.high}
	for k := 1; k <= ladderRungs; k++ {
		l = append(l, math.Round(w.high*math.Pow(ladderStep, float64(k))))
	}
	return l
}

var workloads = []workload{
	{
		name: "replay-paper", levels: "bloom,lstm", fusion: "first-hit",
		attack: 0.05, low: 7500, high: 22500,
	},
	{
		name: "replay-attack-wide", levels: "bloom,pca,lstm", fusion: "majority",
		attack: 0.5, low: 6000, high: 18000,
	},
	{
		name: "fleet-batch", levels: "bloom,lstm", fusion: "first-hit",
		attack: 0.05, low: 3500, high: 10000, fleet: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
