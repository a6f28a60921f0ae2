// Command icsbench reproduces the paper's evaluation: it generates the
// simulated gas pipeline dataset, trains the two-level framework (with and
// without probabilistic noise) plus the six baselines, and prints every
// table and figure of §VIII.
//
// Usage:
//
//	icsbench [-packages N] [-seed S] [-full] [-quiet]
//	icsbench -trainbench
//	icsbench -stackbench [-packages N] [-levels pca,lstm -fusion weighted]
//	icsbench -stackbench -precision f32 [-json]
//	icsbench -kernelbench [-json]
//	icsbench -servebench [-conns 64] [-records 2000] [-subs 8] [-json]
//
// -full runs at the original dataset's scale with the paper's 2×256 LSTM
// (slow); the default runs a scaled configuration that preserves every
// qualitative result. -trainbench skips the evaluation and instead
// measures the batched training engine against the per-window reference at
// the paper's 2×256 model scale, reporting windows/sec and the speedup.
// -stackbench measures the composable detection stacks: sequential
// throughput with per-level time share, and engine throughput with the
// per-stage micro-batch widths, across bloom / bloom,lstm /
// bloom,pca,lstm / all-levels / bloom,lstm,ae (plus an optional -levels
// custom stack);
// -precision f32 benches the stacks on the float32 inference tier,
// skipping stacks with levels that have no f32 path. Results are recorded
// in BENCH.md. -kernelbench microbenchmarks the inference kernels
// themselves — dense vs one-hot step, sequential vs batched, and the
// vectorized activations, at both f64 and f32 — under each kernel tier
// (scalar, AVX2, AVX-512). -servebench measures the wire-to-verdict
// serving path end to end: a real serve.Server on loopback TCP, -conns
// concurrent replay connections of -records each fanning out to -subs
// verdict subscribers, first at ingest burst width 1 and then at the
// default width on the same ingest path, reporting pkg/s, verdict latency
// percentiles, and the burst speedup (verdicts are cross-checked byte for
// byte between the widths). -json emits the
// -stackbench/-kernelbench/-servebench results as a machine-readable JSON
// document on stdout (progress moves to stderr); `make bench-json`
// records them as BENCH_STACK.json, BENCH_KERNELS.json and
// BENCH_SERVE.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/experiments"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/metrics"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"

	_ "icsdetect/internal/baselines"
	_ "icsdetect/internal/recon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		packages = flag.Int("packages", 0, "dataset size in packages (0 = configuration default)")
		seed     = flag.Uint64("seed", 0, "random seed (0 = configuration default)")
		full     = flag.Bool("full", false, "run at the paper's full scale (slow)")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		epochs   = flag.Int("epochs", 0, "override LSTM training epochs")
		markdown = flag.Bool("markdown", false, "emit a markdown report instead of plain tables")
		trainB   = flag.Bool("trainbench", false, "benchmark batched vs reference training at paper scale and exit")
		stackB   = flag.Bool("stackbench", false, "benchmark detection stacks (per-level time share + throughput) and exit")
		kernelB  = flag.Bool("kernelbench", false, "microbenchmark the inference kernels (dense vs one-hot × precisions × kernel tiers) and exit")
		serveB   = flag.Bool("servebench", false, "benchmark the wire-to-verdict serving path (burst width 1 vs the default width over loopback TCP) and exit")
		conns    = flag.Int("conns", 64, "with -servebench: concurrent replay connections")
		records  = flag.Int("records", 2000, "with -servebench: records replayed per connection")
		subs     = flag.Int("subs", 8, "with -servebench: verdict subscribers the hub fans out to")
		testdata = flag.String("testdata", "testdata/traces", "with -servebench: committed corpus dir holding model.fw (trains a model when absent)")
		levels   = flag.String("levels", "", "with -stackbench/-servebench: bench this custom stack")
		fusion   = flag.String("fusion", "", "with -stackbench/-servebench: fusion policy of the -levels custom stack")
		prec     = flag.String("precision", "", "with -stackbench: numeric tier to bench, f64 (default) or f32")
		jsonOut  = flag.Bool("json", false, "with -stackbench/-kernelbench/-servebench: emit results as JSON on stdout")
	)
	flag.Parse()

	if *trainB {
		return runTrainBench(*packages, *seed)
	}
	if *stackB {
		return runStackBench(*packages, *seed, *levels, *fusion, *prec, *jsonOut)
	}
	if *kernelB {
		return runKernelBench(*jsonOut)
	}
	if *serveB {
		return runServeBench(*testdata, *conns, *records, *subs, *levels, *fusion, *jsonOut)
	}
	if *jsonOut {
		return fmt.Errorf("-json applies to -stackbench, -kernelbench and -servebench")
	}
	if *prec != "" {
		return fmt.Errorf("-precision applies to -stackbench")
	}

	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.PaperScaleConfig()
	}
	if *packages > 0 {
		cfg.Packages = *packages
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *epochs > 0 {
		cfg.Core.Fit.Epochs = *epochs
	}

	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg)
		}
	}

	start := time.Now()
	env, err := experiments.BuildEnv(cfg, progress)
	if err != nil {
		return err
	}
	progress(fmt.Sprintf("environment ready in %v", time.Since(start).Round(time.Millisecond)))

	if *markdown {
		return experiments.WriteMarkdown(os.Stdout, env)
	}

	fmt.Println(experiments.RunFigure4(env).String())

	fig5, err := experiments.RunFigure5(env)
	if err != nil {
		return err
	}
	fmt.Println(fig5.String())

	fmt.Println(experiments.RunTableIII(env).String())
	fmt.Println(experiments.RunFigure6(env).String())

	fig7, err := experiments.RunFigure7(env, 10)
	if err != nil {
		return err
	}
	fmt.Println(fig7.String())

	t4, err := experiments.RunTableIV(env)
	if err != nil {
		return err
	}
	fmt.Println(t4.String())
	fmt.Println(experiments.RunTableV(t4).String())

	fmt.Printf("model memory: %d KB; total wall clock: %v\n",
		env.Framework.MemoryBytes()/1024, time.Since(start).Round(time.Millisecond))
	return nil
}

// runTrainBench measures one training epoch of the paper-scale (2×256)
// LSTM under both gradient engines on the same simulated corpus and prints
// the throughput ratio. Both engines produce bitwise-identical models (the
// equivalence is proven by the test suite and BenchmarkTrainThroughput);
// this runner exists to measure the win at larger corpus sizes.
func runTrainBench(packages int, seed uint64) error {
	if packages <= 0 {
		packages = 8000
	}
	if seed == 0 {
		seed = 1
	}
	ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(packages, seed))
	if err != nil {
		return err
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		return err
	}
	gran := signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 6, SetpointBins: 3, PIDClusters: 2,
	}
	enc, err := signature.FitEncoder(split.Train, gran, seed)
	if err != nil {
		return err
	}
	db := signature.BuildDB(enc, split.Train)
	ienc := core.NewInputEncoder(enc)
	seqs := core.BuildSequences(enc, ienc, db, split.Train, nil)
	nWindows := len(nn.MakeWindows(seqs, 32))
	fmt.Printf("training corpus: %d windows of 32, input dim %d, |S|=%d, model 2x256\n",
		nWindows, ienc.Dim, db.Size())

	rate := func(tr nn.TrainerKind) (float64, error) {
		model, err := nn.NewClassifier(ienc.Dim, []int{256, 256}, db.Size(), seed)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := nn.Train(model, seqs, nn.TrainConfig{
			Epochs: 1, Window: 32, BatchSize: 16, LR: 2e-3, ClipNorm: 5,
			Seed: seed, Workers: 1, Trainer: tr,
		}); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		r := float64(nWindows) / elapsed.Seconds()
		fmt.Printf("%-10s %8.1f windows/s  (%v/epoch)\n", tr, r, elapsed.Round(time.Millisecond))
		return r, nil
	}
	ref, err := rate(nn.TrainerReference)
	if err != nil {
		return err
	}
	bat, err := rate(nn.TrainerBatched)
	if err != nil {
		return err
	}
	fmt.Printf("speedup: %.2fx\n", bat/ref)
	return nil
}

// timedStage wraps a StageDetector and accumulates wall time per phase,
// the instrument behind the per-level time-share column of -stackbench.
// Sequential sessions drive Check/Advance directly, so the promoted batch
// methods of the inner stage are never consulted here.
type timedStage struct {
	core.StageDetector
	check, advance *time.Duration
}

func (t timedStage) Check(st core.StageState, pc *core.PackageContext, r *core.StageResult) {
	start := time.Now()
	t.StageDetector.Check(st, pc, r)
	*t.check += time.Since(start)
}

func (t timedStage) Advance(st core.StageState, pc *core.PackageContext, v *core.Verdict) {
	start := time.Now()
	t.StageDetector.Advance(st, pc, v)
	*t.advance += time.Since(start)
}

// stackBenchAll is the widest signature stack -stackbench measures: every
// promoted level plus the built-in two.
const stackBenchAll = "bloom,bf4,pca,gmm,iforest,bayesnet,svdd,lstm"

// stackBenchRecon is the reconstruction-stage row: the paper stack plus
// the LSTM autoencoder over the continuous register windows. It is f64
// only — the reconstruction family has no f32 path, so at -precision f32
// the row is skipped like any other f32-incapable built-in.
const stackBenchRecon = "bloom,lstm,ae"

// stackResult is one -stackbench row as emitted by -json.
type stackResult struct {
	Stack            string             `json:"stack"`
	Precision        string             `json:"precision"`
	SeqPkgsPerSec    float64            `json:"seq_pkgs_per_sec"`
	EnginePkgsPerSec float64            `json:"engine_pkgs_per_sec"`
	AdvanceBatch     float64            `json:"advance_batch"`
	CheckBatch       float64            `json:"check_batch"`
	LevelTimeShare   map[string]float64 `json:"level_time_share"`
}

// kernelResult is one -kernelbench cell as emitted by -json: one kernel at
// one precision on one kernel tier.
type kernelResult struct {
	Kernel    string  `json:"kernel"`
	Precision string  `json:"precision"`
	Tier      string  `json:"tier"`
	NsPerOp   float64 `json:"ns_per_op"`
}

// benchDoc is the -json document: exactly one of Stacks/Kernels/Serve is
// set, named by Benchmark.
type benchDoc struct {
	Benchmark string            `json:"benchmark"`
	Packages  int               `json:"packages,omitempty"`
	Stacks    []stackResult     `json:"stacks,omitempty"`
	Kernels   []kernelResult    `json:"kernels,omitempty"`
	Serve     *serveBenchResult `json:"serve,omitempty"`
}

func writeJSON(doc benchDoc) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runStackBench trains one framework plus every promoted level's stage
// model, then measures each stack: sequential throughput with per-level
// time share (instrumented stages), and engine throughput with the mean
// micro-batch widths of the batched Advance and Check passes. precName
// selects the numeric tier; at f32, built-in stacks containing a level
// without an f32 path are skipped (noted on stderr), while an f32-incapable
// -levels custom stack is an error.
func runStackBench(packages int, seed uint64, customLevels, customFusion, precName string, jsonOut bool) error {
	prec, err := core.ParsePrecision(precName)
	if err != nil {
		return err
	}
	progress := os.Stdout
	if jsonOut {
		progress = os.Stderr
	}
	if packages <= 0 {
		packages = 10000
	}
	if seed == 0 {
		seed = 1
	}
	ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(packages, seed))
	if err != nil {
		return err
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Granularity = signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 6, SetpointBins: 3, PIDClusters: 2,
	}
	cfg.Hidden = []int{32, 32}
	cfg.Fit.Epochs = 6
	cfg.Seed = seed
	start := time.Now()
	fw, report, err := core.Train(split, cfg)
	if err != nil {
		return err
	}
	allSpec, err := core.ParseStackSpec(stackBenchAll+",ae", "majority")
	if err != nil {
		return err
	}
	if err := fw.TrainStages(allSpec, split, seed); err != nil {
		return err
	}
	fmt.Fprintf(progress, "framework + %d stage models trained in %v (|S|=%d k=%d, test %d packages)\n",
		len(fw.Extra), time.Since(start).Round(time.Millisecond), report.Signatures,
		report.ChosenK, len(split.Test))

	stacks := []struct {
		levels, fusion string
		custom         bool
	}{
		{"bloom", "first-hit", false},
		{"bloom,lstm", "first-hit", false},
		{"bloom,pca,lstm", "first-hit", false},
		{stackBenchAll, "majority", false},
		{stackBenchRecon, "first-hit", false},
	}
	if customLevels != "" {
		stacks = append(stacks, struct {
			levels, fusion string
			custom         bool
		}{customLevels, customFusion, true})
	}
	var results []stackResult
	for _, sb := range stacks {
		spec, err := core.ParseStackSpec(sb.levels, sb.fusion)
		if err != nil {
			return err
		}
		spec.Precision = prec
		if err := spec.Validate(); err != nil {
			if sb.custom {
				return err
			}
			// Built-in list entries with no path at this tier are noted, not
			// fatal: `-precision f32` benches whatever the tier can run.
			fmt.Fprintf(os.Stderr, "skipping %s: %v\n", sb.levels, err)
			continue
		}
		res, err := benchStack(fw, spec, split.Test, jsonOut)
		if err != nil {
			return fmt.Errorf("stack %s: %w", spec, err)
		}
		results = append(results, res)
	}
	if jsonOut {
		return writeJSON(benchDoc{Benchmark: "stackbench", Packages: packages, Stacks: results})
	}
	return nil
}

// benchStack measures one stack sequentially (instrumented) and through
// the engine (16 streams on 2 shards).
func benchStack(fw *core.Framework, spec core.StackSpec, test []*dataset.Package, jsonOut bool) (stackResult, error) {
	// Repeat the test stream until the run is long enough to time.
	const targetPkgs = 60000
	reps := targetPkgs/len(test) + 1

	// Sequential, instrumented per level.
	stack, err := fw.NewStack(spec)
	if err != nil {
		return stackResult{}, err
	}
	inner := stack.Stages()
	timers := make([][2]time.Duration, len(inner))
	wrapped := make([]core.StageDetector, len(inner))
	for i, st := range inner {
		wrapped[i] = timedStage{StageDetector: st, check: &timers[i][0], advance: &timers[i][1]}
	}
	tstack, err := core.NewStackFromStages(fw, spec, wrapped)
	if err != nil {
		return stackResult{}, err
	}
	sess := tstack.NewSession()
	seqStart := time.Now()
	n := 0
	for r := 0; r < reps; r++ {
		for _, p := range test {
			sess.Classify(p)
			n++
		}
		sess.Reset()
	}
	seqWall := time.Since(seqStart)
	share := metrics.NewBreakdown()
	for i, st := range inner {
		share.Add(st.Name(), float64(timers[i][0]+timers[i][1]))
	}

	// Engine: the same packages interleaved over 16 streams on 2 shards.
	const streams = 16
	eng, err := engine.New(fw, engine.Config{Shards: 2, MaxBatch: 32, Stack: spec}, nil)
	if err != nil {
		return stackResult{}, err
	}
	keys := make([]string, streams)
	for s := range keys {
		keys[s] = fmt.Sprintf("dev-%02d", s)
	}
	engStart := time.Now()
	en := 0
	for r := 0; r < reps; r++ {
		for i := range test {
			if err := eng.SubmitBatchFor(nil, keys[i%streams], test[i:i+1]); err != nil {
				return stackResult{}, err
			}
			en++
		}
	}
	if err := eng.Barrier(); err != nil {
		return stackResult{}, err
	}
	engWall := time.Since(engStart)
	stats := eng.Stats()
	eng.Stop()

	meanCheck := 0.0
	if stats.CheckBatches > 0 {
		meanCheck = float64(stats.CheckBatched) / float64(stats.CheckBatches)
	}
	res := stackResult{
		Stack:            spec.String(),
		Precision:        spec.Precision.String(),
		SeqPkgsPerSec:    float64(n) / seqWall.Seconds(),
		EnginePkgsPerSec: float64(en) / engWall.Seconds(),
		AdvanceBatch:     stats.MeanBatch(),
		CheckBatch:       meanCheck,
		LevelTimeShare:   make(map[string]float64, len(inner)),
	}
	for _, st := range inner {
		res.LevelTimeShare[st.Name()] = share.Share(st.Name())
	}
	if !jsonOut {
		fmt.Printf("%-52s seq %7.0f pkg/s  engine %7.0f pkg/s  advance-batch %.1f  check-batch %.1f\n",
			res.Stack, res.SeqPkgsPerSec, res.EnginePkgsPerSec, res.AdvanceBatch, res.CheckBatch)
		fmt.Printf("    level time share: %s\n", share)
	}
	return res, nil
}
