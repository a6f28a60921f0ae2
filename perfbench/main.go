// Command perfbench is the repository's benchmark: open-loop
// wire-to-verdict load against the real serve.Server and batch load against
// the real engine, with every verdict checked against a sequential
// reference. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload replay-paper --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare runs/base runs/new
//
// It runs from the repository root, prints one line per phase and metric,
// and ends with one JSON object: correct, attempted, failed and metrics
// (the end-to-end metrics with --trace 0, the per-layer ones with
// --trace 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	rep := newReport(os.Stdout)
	rep.printf("# perfbench workload=%s seed=%d seconds=%g trace=%v", name, seed, seconds, traced)
	if w.fleet {
		b := &fleetBench{w: w, seed: seed, secs: seconds, traced: traced, rep: rep}
		err = b.run()
	} else {
		b := &replayBench{w: w, seed: seed, secs: seconds, traced: traced, rep: rep}
		err = b.run()
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return rep.emit(defs)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
