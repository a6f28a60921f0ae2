package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if tc.want > 0 && beyond(tc.want, tc.n) < minTail {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, tc.want, beyond(tc.want, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestLadderSearch(t *testing.T) {
	ladder := make([]float64, 28)
	for i := range ladder {
		ladder[i] = float64(1000 * (i + 1))
	}
	for _, tc := range []struct {
		name      string
		threshold float64 // highest passing rate
		known     int
		want      int
	}{
		{"none passes", 0, -1, -1},
		{"all pass", 1e9, -1, len(ladder) - 1},
		{"middle", 13500, -1, 12},
		{"from known rung", 20000, 1, 19},
		{"known rung is the top passing one", 2000, 1, 1},
	} {
		probes := 0
		got, err := ladderSearch(ladder, tc.known, func(rate float64) (bool, error) {
			probes++
			return rate <= tc.threshold, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: rung %d, want %d", tc.name, got, tc.want)
		}
		if limit := int(math.Ceil(math.Log2(float64(len(ladder) + 1)))); probes > limit {
			t.Errorf("%s: %d probes, want at most %d", tc.name, probes, limit)
		}
	}
}

func TestLadderIsFixedAndAscending(t *testing.T) {
	for _, w := range workloads {
		l := w.ladder()
		if l[0] != w.low || l[1] != w.high {
			t.Errorf("%s: ladder starts %v, want the low and high rates", w.name, l[:2])
		}
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Errorf("%s: rung %d (%g) not above rung %d (%g)", w.name, i, l[i], i-1, l[i-1])
			}
		}
	}
}

func TestLabel(t *testing.T) {
	steady := func(base float64) []float64 {
		return []float64{base * 0.99, base, base * 1.01, base * 0.995, base * 1.005, base, base * 0.99, base * 1.01, base, base}
	}
	noisy := []float64{50, 100, 150, 60, 140, 100, 70, 130, 100, 90}
	for _, tc := range []struct {
		name       string
		base, cand []float64
		higher     bool
		want       string
	}{
		{"lower is better and it fell", steady(100), steady(80), false, "better"},
		{"higher is better and it rose", steady(100), steady(120), true, "better"},
		{"within the bound", steady(100), steady(104), false, "unchanged"},
		{"regressed beyond the bound", steady(100), steady(115), false, "worse"},
		{"throughput fell beyond the bound", steady(100), steady(85), true, "worse"},
		{"spread wider than the bound", noisy, steady(110), false, "unresolved"},
		{"spread wide but every run better", noisy, steady(40), false, "unchanged"},
	} {
		if got := label(tc.base, tc.cand, 0.1, tc.higher); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestGrowing(t *testing.T) {
	flat := make([]int64, 400)
	rising := make([]int64, 400)
	for i := range flat {
		flat[i] = int64(100 + 30*(i%7))
		rising[i] = int64(10 * i)
	}
	if growing(flat, 20000) {
		t.Error("a fluctuating backlog was reported as growing")
	}
	if !growing(rising, 20000) {
		t.Error("a linearly growing backlog was not reported")
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// program reports, with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, defined %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, names, units, better []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: %d declared, %d reported", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit || better[i] != d.better {
				t.Errorf("%s %d: declared %s %s %s, reported %s %s %s",
					kind, i, names[i], units[i], better[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range spec.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", n, u, b, endToEnd)
	n, u, b = nil, nil, nil
	for _, m := range spec.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", n, u, b, perLayer)
}
