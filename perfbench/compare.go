package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one saved run: its workload, trace mode, result object and
// every metric line it printed (bounded or not).
type runOutput struct {
	workload string
	traced   bool
	correct  bool
	printed  map[string]float64
}

// readRuns parses every regular file in dir as one run's standard output:
// the "# perfbench" header line names the workload, every "metric" line
// gives a value, and the last line is the result object.
func readRuns(dir string) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return runs, nil
}

func readRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	r := runOutput{printed: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# perfbench ") {
			for _, field := range strings.Fields(line)[2:] {
				k, v, _ := strings.Cut(field, "=")
				switch k {
				case "workload":
					r.workload = v
				case "trace":
					r.traced = v == "true"
				}
			}
		}
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				r.printed[f[1]] = v
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	var res struct {
		Correct bool `json:"correct"`
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no '# perfbench' header line", path)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("%s: last line is not a result object: %w", path, err)
	}
	r.correct = res.Correct
	return r, nil
}

// label compares a change's runs against its parent's for one metric by
// the rule of the choosing-metrics guide (§6.5 and §8):
//   - better: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ, in its favour, by more
//     than the parent's interquartile distance;
//   - unresolved: the run-to-run spread of either side is wider than the
//     bound, unless every run of the change reads better than every run
//     of the parent;
//   - worse: the change's median is worse than the parent's by more than
//     the bound, as a share of the parent's median;
//   - unchanged: none of these; the change is within the bound.
func label(base, cand []float64, bound float64, higher bool) string {
	wins := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	mb, mc := median(base), median(cand)
	pairs, won := min(len(base), len(cand)), 0
	for i := 0; i < pairs; i++ {
		if wins(cand[i], base[i]) {
			won++
		}
	}
	q1, q3 := quartiles(base)
	if pairs > 0 && 10*won >= 9*pairs && wins(mc, mb) && math.Abs(mc-mb) > q3-q1 {
		return "better"
	}
	if math.Max(spread(base), spread(cand)) > bound {
		allBetter := true
		for _, c := range cand {
			for _, b := range base {
				allBetter = allBetter && wins(c, b)
			}
		}
		if allBetter {
			return "unchanged"
		}
		return "unresolved"
	}
	worse := (mc - mb) / math.Abs(mb)
	if higher {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "unchanged"
}

// compareMain is `perfbench compare [-bench BENCHMARK.json] A [B]`. With
// one directory of saved runs it prints each workload × metric's median,
// quartiles and spread against the metric's bound; with two it also
// labels B against A.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: compare [-bench BENCHMARK.json] RUNS_A [RUNS_B]")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	sides := make([]map[string][]runOutput, fs.NArg())
	for i, dir := range fs.Args() {
		runs, err := readRuns(dir)
		if err != nil {
			return err
		}
		sides[i] = map[string][]runOutput{}
		for _, r := range runs {
			if !r.correct {
				fmt.Fprintf(out, "note: a %s run in %s reported correct=false\n", r.workload, dir)
			}
			if !r.traced {
				sides[i][r.workload] = append(sides[i][r.workload], r)
			}
		}
	}
	var names []string
	for w := range sides[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	values := func(runs []runOutput, metric string) []float64 {
		var v []float64
		for _, r := range runs {
			if x, ok := r.printed[metric]; ok {
				v = append(v, x)
			}
		}
		return v
	}
	for _, w := range names {
		fmt.Fprintf(out, "workload %s\n", w)
		type row struct {
			name, unit, better string
			bound              float64
		}
		var rows []row
		bounded := map[string]bool{}
		for _, m := range spec.EndToEnd {
			rows = append(rows, row{m.Name, m.Unit, m.Better, m.Bound})
			bounded[m.Name] = true
		}
		var extra []string
		for name := range sides[0][w][0].printed {
			if !bounded[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		for _, name := range extra {
			rows = append(rows, row{name: name, unit: unitOf(name), better: betterOf(name)})
		}
		for _, m := range rows {
			a := values(sides[0][w], m.name)
			if len(a) == 0 {
				continue
			}
			q1, q3 := quartiles(a)
			bound := "unbounded"
			if m.bound > 0 {
				bound = fmt.Sprintf("bound %.0f %%", 100*m.bound)
			}
			line := fmt.Sprintf("  %-18s %-6s A n=%-2d median %-11.5g q1 %-11.5g q3 %-11.5g spread %5.1f %% (%s)",
				m.name, m.unit, len(a), median(a), q1, q3, 100*spread(a), bound)
			if len(sides) == 2 {
				b := values(sides[1][w], m.name)
				if len(b) == 0 {
					line += "  B: no runs"
				} else {
					bq1, bq3 := quartiles(b)
					line += fmt.Sprintf("  B n=%-2d median %-11.5g q1 %-11.5g q3 %-11.5g  %s",
						len(b), median(b), bq1, bq3, label(a, b, m.bound, m.better == "higher"))
				}
			}
			fmt.Fprintln(out, line)
		}
	}
	return nil
}
