package nn

import (
	"testing"

	"icsdetect/internal/mathx"
)

// randomInputs builds T steps of n one-hot-ish input vectors.
func randomInputs(rng *mathx.RNG, t, n, dim int) [][][]float64 {
	out := make([][][]float64, t)
	for step := range out {
		out[step] = make([][]float64, n)
		for i := range out[step] {
			x := make([]float64, dim)
			x[rng.Intn(dim)] = 1
			if rng.Bernoulli(0.3) {
				x[rng.Intn(dim)] = 1
			}
			out[step][i] = x
		}
	}
	return out
}

// TestStepBatchMatchesStep drives n independent streams both through the
// sequential Step and through StepBatch and requires bitwise identical
// probabilities and hidden states at every timestep — the property the
// concurrent engine's verdict-equivalence guarantee rests on.
func TestStepBatchMatchesStep(t *testing.T) {
	const (
		dim     = 13
		classes = 9
		steps   = 25
	)
	for _, n := range []int{1, 2, 7, 32} {
		c, err := NewClassifier(dim, []int{11, 8}, classes, 42)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(uint64(n) + 1)
		inputs := randomInputs(rng, steps, n, dim)

		seqStates := make([]*State, n)
		batStates := make([]*State, n)
		batProbs := make([][]float64, n)
		for i := 0; i < n; i++ {
			seqStates[i] = c.NewState()
			batStates[i] = c.NewState()
			batProbs[i] = make([]float64, classes)
		}
		buf := c.NewBatchBuffer(n)
		seqProbs := make([]float64, classes)

		for step := 0; step < steps; step++ {
			c.StepBatch(buf, batStates, inputs[step], batProbs)
			for i := 0; i < n; i++ {
				c.Step(seqStates[i], inputs[step][i], seqProbs)
				for j := range seqProbs {
					if seqProbs[j] != batProbs[i][j] {
						t.Fatalf("n=%d step=%d stream=%d class=%d: batch prob %v != sequential %v",
							n, step, i, j, batProbs[i][j], seqProbs[j])
					}
				}
				for l := range seqStates[i].h {
					for j := range seqStates[i].h[l] {
						if seqStates[i].h[l][j] != batStates[i].h[l][j] ||
							seqStates[i].c[l][j] != batStates[i].c[l][j] {
							t.Fatalf("n=%d step=%d stream=%d layer=%d: state diverged", n, step, i, l)
						}
					}
				}
			}
		}
	}
}

// TestStepBatchLogitsRanksMatchProbs verifies that ranking over raw logits
// is identical to ranking over softmax probabilities (softmax is strictly
// monotone), so the logits fast path cannot change top-k verdicts.
func TestStepBatchLogitsRanksMatchProbs(t *testing.T) {
	const (
		dim     = 10
		classes = 12
		steps   = 30
		n       = 5
	)
	c, err := NewClassifier(dim, []int{9}, classes, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(99)
	inputs := randomInputs(rng, steps, n, dim)

	probStates := make([]*State, n)
	logitStates := make([]*State, n)
	probs := make([][]float64, n)
	logits := make([][]float64, n)
	for i := 0; i < n; i++ {
		probStates[i] = c.NewState()
		logitStates[i] = c.NewState()
		probs[i] = make([]float64, classes)
		logits[i] = make([]float64, classes)
	}
	bufA := c.NewBatchBuffer(n)
	bufB := c.NewBatchBuffer(n)

	rank := func(scores []float64, class int) int {
		p := scores[class]
		r := 0
		for i, v := range scores {
			if v > p || (v == p && i < class) {
				r++
			}
		}
		return r
	}
	for step := 0; step < steps; step++ {
		c.StepBatch(bufA, probStates, inputs[step], probs)
		c.StepBatchLogits(bufB, logitStates, inputs[step], logits)
		for i := 0; i < n; i++ {
			for class := 0; class < classes; class++ {
				if rank(probs[i], class) != rank(logits[i], class) {
					t.Fatalf("step=%d stream=%d class=%d: logit rank %d != prob rank %d",
						step, i, class, rank(logits[i], class), rank(probs[i], class))
				}
			}
		}
	}
}

// TestStepBatchNoAllocations pins the zero-allocation property of the
// batched hot paths: the dense f64 path, and the engine's one-hot path at
// both precisions on every kernel tier — at width 1, which takes the
// sequential packed-GEMV step, and at ragged widths whose padded blocks
// stage through stack scratch.
func TestStepBatchNoAllocations(t *testing.T) {
	const n = 16
	c, err := NewClassifier(12, []int{16, 16}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*State, n)
	inputs := make([][]float64, n)
	probs := make([][]float64, n)
	for i := 0; i < n; i++ {
		states[i] = c.NewState()
		inputs[i] = make([]float64, 12)
		inputs[i][i%12] = 1
		probs[i] = make([]float64, 10)
	}
	buf := c.NewBatchBuffer(n)
	allocs := testing.AllocsPerRun(50, func() {
		c.StepBatchLogits(buf, states, inputs, probs)
	})
	if allocs != 0 {
		t.Errorf("StepBatchLogits allocates %v times per call, want 0", allocs)
	}

	const maxStreams = 63
	paper, err := NewClassifier(51, []int{32, 32}, 96, 3)
	if err != nil {
		t.Fatal(err)
	}
	forEachKernelTier(t, func(t *testing.T) {
		m32 := paper.Infer32()
		buf, buf32 := paper.NewBatchBuffer(maxStreams), m32.NewBatchBuffer(maxStreams)
		states, states32 := make([]*State, maxStreams), make([]*State32, maxStreams)
		idxs := make([][]int, maxStreams)
		scores, scores32 := make([][]float64, maxStreams), make([][]float32, maxStreams)
		for i := range states {
			states[i], states32[i] = paper.NewState(), m32.NewState()
			idxs[i] = []int{i % 17, 17 + i%34}
			scores[i], scores32[i] = make([]float64, 96), make([]float32, 96)
		}
		for _, w := range []int{1, 3, 7, maxStreams} {
			if allocs := testing.AllocsPerRun(20, func() {
				paper.StepBatchLogitsOneHot(buf, states[:w], idxs[:w], scores[:w])
			}); allocs != 0 {
				t.Errorf("f64 StepBatchLogitsOneHot at width %d allocates %v times per call, want 0", w, allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				m32.StepBatchLogitsOneHot(buf32, states32[:w], idxs[:w], scores32[:w])
			}); allocs != 0 {
				t.Errorf("f32 StepBatchLogitsOneHot at width %d allocates %v times per call, want 0", w, allocs)
			}
		}
	})
}

func TestStepBatchShapePanics(t *testing.T) {
	c, err := NewClassifier(5, []int{4}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := c.NewBatchBuffer(2)
	states := []*State{c.NewState(), c.NewState(), c.NewState()}
	inputs := [][]float64{make([]float64, 5), make([]float64, 5), make([]float64, 5)}
	probs := [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)}

	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("oversized batch", func() { c.StepBatch(buf, states, inputs, probs) })
	assertPanics("input mismatch", func() { c.StepBatch(buf, states[:2], inputs[:1], probs[:2]) })

	// Empty batch is a no-op.
	c.StepBatch(buf, nil, nil, nil)
}
