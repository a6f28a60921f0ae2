package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// value is one reported metric with the number of samples behind it
// (0 when it is a single measurement or a count).
type value struct {
	v    float64
	unit string
	n    int
	note string
}

// report collects a run's metrics, its operation counts and the
// human-readable lines printed before the result object.
type report struct {
	metrics   map[string]value
	attempted int
	failed    int
	correct   bool
	problems  []string
	out       io.Writer
}

func newReport(out io.Writer) *report {
	return &report{metrics: make(map[string]value), correct: true, out: out}
}

// printf writes one human-readable line.
func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// set records a metric.
func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = value{v: v, unit: unit, n: n, note: note}
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.correct = false
	r.printf("CHECK FAILED: %s", msg)
}

// account adds a phase's counts to the run totals.
func (r *report) account(p phaseResult) {
	r.attempted += p.offered
	r.failed += p.failed()
	r.printf("%s", p)
}

// emit prints every metric of defs, then the result object as the last
// line.
func (r *report) emit(defs []metricDef) error {
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		name := d.name
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, m.unit, d.unit)
		}
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", name, m.v)
		}
		line := fmt.Sprintf("metric %-40s %14.6g %-8s", name, m.v, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  " + m.note
		}
		r.printf("%s", line)
		out.Metrics[name] = map[string]any{"value": m.v, "unit": m.unit}
	}
	for _, d := range printedOnly {
		if m, ok := r.metrics[d.name]; ok {
			r.printf("metric %-40s %14.6g %-8s n=%d  %s; unbounded", d.name, m.v, m.unit, m.n, m.note)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.printf("failed_frac %.6g (%d of %d offered packages failed)", frac, r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", b)
	return err
}
