package main

import (
	"fmt"
	"time"

	"icsdetect/internal/mathx"
	"icsdetect/internal/nn"
)

// runKernelBench microbenchmarks the inference kernels at the paper's model
// shape (one-hot width 138 → 32 → 32 → 49 classes): the dense and one-hot
// step paths, sequential and batched (one-hot at widths 1, 3, 8 and 63, so
// the single-stream dispatch and the padded ragged blocks show beside the
// full eight-stream block), plus the fused activation kernels —
// at both numeric tiers (f64 reference and the float32 inference snapshot)
// under every kernel tier override (scalar reference, AVX2, AVX-512).
// On machines without a tier the override is a no-op and that column
// repeats the tier below, so columns are comparable only where the
// hardware differs. With jsonOut the same matrix is emitted as one JSON
// document (kernel × precision × tier → ns/op) instead of the table.
func runKernelBench(jsonOut bool) error {
	const (
		inputDim = 138
		classes  = 49
		batch    = 8
		maxBatch = 63
	)
	c, err := nn.NewClassifier(inputDim, []int{32, 32}, classes, 7)
	if err != nil {
		return err
	}
	m32 := c.Infer32()

	// One fixed stream of one-hot index sets shaped like the detector's
	// encoder output: one active bucket per feature, ~14 actives per
	// package over the one-hot width.
	rng := mathx.NewRNG(11)
	idxs := make([][]int, 256)
	xs := make([][]float64, len(idxs))
	xs32 := make([][]float32, len(idxs))
	for i := range idxs {
		var idx []int
		for j := 0; j < inputDim; j++ {
			if rng.Bernoulli(0.1) {
				idx = append(idx, j)
			}
		}
		if len(idx) == 0 {
			idx = append(idx, rng.Intn(inputDim))
		}
		idxs[i] = idx
		x := make([]float64, inputDim)
		x32 := make([]float32, inputDim)
		for _, j := range idx {
			x[j] = 1
			x32[j] = 1
		}
		xs[i] = x
		xs32[i] = x32
	}

	state := c.NewState()
	states := make([]*nn.State, maxBatch)
	for i := range states {
		states[i] = c.NewState()
	}
	buf := c.NewBatchBuffer(maxBatch)
	scores := make([]float64, classes)
	batchScores := make([][]float64, maxBatch)
	batchIdxs := make([][]int, maxBatch)
	batchXs := make([][]float64, batch)
	for i := range batchScores {
		batchScores[i] = make([]float64, classes)
	}
	act := make([]float64, 96)
	for i := range act {
		act[i] = rng.Norm()
	}
	actDst := make([]float64, len(act))

	state32 := m32.NewState()
	states32 := make([]*nn.State32, maxBatch)
	for i := range states32 {
		states32[i] = m32.NewState()
	}
	buf32 := m32.NewBatchBuffer(maxBatch)
	scores32 := make([]float32, classes)
	batchScores32 := make([][]float32, maxBatch)
	batchXs32 := make([][]float32, batch)
	for i := range batchScores32 {
		batchScores32[i] = make([]float32, classes)
	}
	act32 := make([]float32, len(act))
	for i := range act32 {
		act32[i] = float32(act[i])
	}
	actDst32 := make([]float32, len(act32))

	// oneHot64/oneHot32 build the one-hot batched row at width w: stream
	// s of op i steps on package (i*w+s) of the fixed input stream.
	type row struct {
		name string
		prec string
		per  int // packages (or calls) per op
		op   func(i int)
	}
	oneHot64 := func(w int) row {
		return row{fmt.Sprintf("batch%d/onehot", w), "f64", w, func(i int) {
			for s := 0; s < w; s++ {
				batchIdxs[s] = idxs[(i*w+s)%len(idxs)]
			}
			c.StepBatchLogitsOneHot(buf, states[:w], batchIdxs[:w], batchScores[:w])
		}}
	}
	oneHot32 := func(w int) row {
		return row{fmt.Sprintf("batch%d/onehot", w), "f32", w, func(i int) {
			for s := 0; s < w; s++ {
				batchIdxs[s] = idxs[(i*w+s)%len(idxs)]
			}
			m32.StepBatchLogitsOneHot(buf32, states32[:w], batchIdxs[:w], batchScores32[:w])
		}}
	}

	// Each row is one kernel at one precision; the reported figure is ns
	// per package (the batch rows divide by the batch width) except the
	// act/* rows, which are ns per kernel call on a 96-wide gate block.
	rows := []row{
		{"step/dense", "f64", 1, func(i int) {
			c.StepLogits(state, xs[i%len(xs)], scores)
		}},
		{"step/onehot", "f64", 1, func(i int) {
			c.StepLogitsOneHot(state, idxs[i%len(idxs)], scores)
		}},
		{fmt.Sprintf("batch%d/dense", batch), "f64", batch, func(i int) {
			for s := 0; s < batch; s++ {
				batchXs[s] = xs[(i*batch+s)%len(xs)]
			}
			c.StepBatchLogits(buf, states[:batch], batchXs, batchScores[:batch])
		}},
		oneHot64(1), oneHot64(3), oneHot64(batch), oneHot64(maxBatch),
		{"act/vsigmoid-96", "f64", 1, func(i int) { mathx.VSigmoid(actDst, act) }},
		{"act/vtanh-96", "f64", 1, func(i int) { mathx.VTanh(actDst, act) }},
		{"act/vexp-96", "f64", 1, func(i int) { mathx.VExp(actDst, act) }},
		{"step/dense", "f32", 1, func(i int) {
			m32.StepLogits(state32, xs32[i%len(xs32)], scores32)
		}},
		{"step/onehot", "f32", 1, func(i int) {
			m32.StepLogitsOneHot(state32, idxs[i%len(idxs)], scores32)
		}},
		{fmt.Sprintf("batch%d/dense", batch), "f32", batch, func(i int) {
			for s := 0; s < batch; s++ {
				batchXs32[s] = xs32[(i*batch+s)%len(xs32)]
			}
			m32.StepBatchLogits(buf32, states32[:batch], batchXs32, batchScores32[:batch])
		}},
		oneHot32(1), oneHot32(3), oneHot32(batch), oneHot32(maxBatch),
		{"act/vsigmoid-96", "f32", 1, func(i int) { mathx.VSigmoid32(actDst32, act32) }},
		{"act/vtanh-96", "f32", 1, func(i int) { mathx.VTanh32(actDst32, act32) }},
		{"act/vexp-96", "f32", 1, func(i int) { mathx.VExp32(actDst32, act32) }},
	}
	tiers := []struct {
		name         string
		simd, avx512 bool
	}{
		{"scalar", false, false},
		{"avx2", true, false},
		{"avx512", true, true},
	}

	var results []kernelResult
	if !jsonOut {
		fmt.Printf("%-4s %-16s", "prec", "kernel")
		for _, tier := range tiers {
			fmt.Printf(" %12s", tier.name)
		}
		fmt.Println("   (ns/package; act rows ns/call)")
	}
	for _, row := range rows {
		if !jsonOut {
			fmt.Printf("%-4s %-16s", row.prec, row.name)
		}
		for _, tier := range tiers {
			prevSIMD := mathx.SetSIMDEnabled(tier.simd)
			prevAVX512 := mathx.SetAVX512Enabled(tier.avx512)
			ns := timeOp(row.op) / float64(row.per)
			mathx.SetAVX512Enabled(prevAVX512)
			mathx.SetSIMDEnabled(prevSIMD)
			if jsonOut {
				results = append(results, kernelResult{
					Kernel: row.name, Precision: row.prec, Tier: tier.name, NsPerOp: ns,
				})
			} else {
				fmt.Printf(" %12.0f", ns)
			}
		}
		if !jsonOut {
			fmt.Println()
		}
	}
	if jsonOut {
		return writeJSON(benchDoc{Benchmark: "kernelbench", Kernels: results})
	}
	return nil
}

// timeOp times op, growing the iteration count until one measurement
// window is long enough to trust, then returns ns per op for the BEST of
// three windows — the minimum is the standard noise filter on a shared
// machine, where scheduler preemption only ever inflates a window.
func timeOp(op func(i int)) float64 {
	for i := 0; i < 200; i++ {
		op(i)
	}
	n := 500
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		elapsed := time.Since(start)
		if elapsed < 20*time.Millisecond {
			n *= 4
			continue
		}
		best := elapsed
		for w := 0; w < 2; w++ {
			start = time.Now()
			for i := 0; i < n; i++ {
				op(i)
			}
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return float64(best.Nanoseconds()) / float64(n)
	}
}
