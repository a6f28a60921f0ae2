// Property tests for the one-hot inference fast path: random sparse
// encodings driven through StepLogitsOneHot / StepBatchLogitsOneHot must be
// bitwise-identical — logits, hidden states and cell states — to the dense
// StepLogits / StepBatchLogits on the equivalent one-hot vectors, for every
// layer shape the detection stacks use and on every kernel tier. The
// batched test drives ragged widths (a different subset of streams each
// step), the shape the engine produces when streams join and leave shards.
package nn

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// forEachKernelTier runs f under each kernel tier override; on machines
// without the hardware the override is a no-op and the sub-test exercises
// the next tier down.
func forEachKernelTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range []struct {
		name         string
		simd, avx512 bool
	}{
		{"avx512", true, true},
		{"avx2", true, false},
		{"scalar", false, false},
	} {
		t.Run(tier.name, func(t *testing.T) {
			prevSIMD := mathx.SetSIMDEnabled(tier.simd)
			prevAVX512 := mathx.SetAVX512Enabled(tier.avx512)
			defer func() {
				mathx.SetAVX512Enabled(prevAVX512)
				mathx.SetSIMDEnabled(prevSIMD)
			}()
			f(t)
		})
	}
}

// onehotShapes covers the layer geometries the stacks instantiate: the
// paper's 2x32 model over the gas-pipeline one-hot width, a single narrow
// layer, a deep ragged pyramid, and hidden sizes that are not multiples of
// the 4/8-wide kernel blocks.
var onehotShapes = []struct {
	name    string
	in      int
	hidden  []int
	classes int
}{
	{"paper-2x32", 138, []int{32, 32}, 49},
	{"single-16", 57, []int{16}, 11},
	{"deep-24-16-8", 91, []int{24, 16, 8}, 23},
	{"odd-13-7", 45, []int{13, 7}, 9},
}

// randomOneHot draws a strictly ascending active-index set over dim
// columns, dense enough that aligned gather groups often hold several
// actives, never empty (the encoder always sets at least one bucket).
func randomOneHot(rng *mathx.RNG, dim int) []int {
	var idx []int
	for j := 0; j < dim; j++ {
		if rng.Bernoulli(0.12) {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		idx = append(idx, rng.Intn(dim))
	}
	return idx
}

func denseOneHot(dim int, idx []int) []float64 {
	x := make([]float64, dim)
	for _, j := range idx {
		x[j] = 1
	}
	return x
}

func requireBitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: sparse %x dense %x", what, i, a[i], b[i])
		}
	}
}

func requireStatesEqual(t *testing.T, a, b *State) {
	t.Helper()
	for l := range a.h {
		requireBitsEqual(t, "h", a.h[l], b.h[l])
		requireBitsEqual(t, "c", a.c[l], b.c[l])
	}
}

// TestStepLogitsOneHotMatchesDense: the sequential sparse fast path against
// the dense StepLogits, stepped as one stream over many random packages.
func TestStepLogitsOneHotMatchesDense(t *testing.T) {
	const steps = 60
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 1234)
				if err != nil {
					t.Fatal(err)
				}
				rng := mathx.NewRNG(99)
				sparseState, denseState := c.NewState(), c.NewState()
				sparseScores := make([]float64, shape.classes)
				denseScores := make([]float64, shape.classes)
				for s := 0; s < steps; s++ {
					idx := randomOneHot(rng, shape.in)
					c.StepLogitsOneHot(sparseState, idx, sparseScores)
					c.StepLogits(denseState, denseOneHot(shape.in, idx), denseScores)
					requireBitsEqual(t, "logits", sparseScores, denseScores)
					requireStatesEqual(t, sparseState, denseState)
				}
			})
		})
	}
}

// TestStepBatchLogitsOneHotMatchesDense: the batched sparse path against
// both the batched dense path and the sequential sparse path, under ragged
// batch widths — each step advances a different prefix of the streams, so
// batch rows, GEMM tile edges, padded tail blocks and gather groups all
// shift between steps. Width 1 takes the sequential step itself, so there
// the dense batched pass is the independent reference.
func TestStepBatchLogitsOneHotMatchesDense(t *testing.T) {
	const maxStreams = 63
	widths := []int{1, 9, 4, 7, 2, 8, 3, 12, 1, 5, 17, 6, maxStreams, 9}
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 4321)
				if err != nil {
					t.Fatal(err)
				}
				rng := mathx.NewRNG(7)
				buf := c.NewBatchBuffer(maxStreams)
				denseBuf := c.NewBatchBuffer(maxStreams)
				sparse := make([]*State, maxStreams)
				dense := make([]*State, maxStreams)
				seq := make([]*State, maxStreams)
				for i := range sparse {
					sparse[i], dense[i], seq[i] = c.NewState(), c.NewState(), c.NewState()
				}
				seqScores := make([]float64, shape.classes)
				for _, n := range widths {
					idxs := make([][]int, n)
					xs := make([][]float64, n)
					sparseScores := make([][]float64, n)
					denseScores := make([][]float64, n)
					for i := 0; i < n; i++ {
						idxs[i] = randomOneHot(rng, shape.in)
						xs[i] = denseOneHot(shape.in, idxs[i])
						sparseScores[i] = make([]float64, shape.classes)
						denseScores[i] = make([]float64, shape.classes)
					}
					c.StepBatchLogitsOneHot(buf, sparse[:n], idxs, sparseScores)
					c.StepBatchLogits(denseBuf, dense[:n], xs, denseScores)
					for i := 0; i < n; i++ {
						c.StepLogitsOneHot(seq[i], idxs[i], seqScores)
						requireBitsEqual(t, "batch-vs-dense logits", sparseScores[i], denseScores[i])
						requireBitsEqual(t, "batch-vs-seq logits", sparseScores[i], seqScores)
						requireStatesEqual(t, sparse[i], dense[i])
						requireStatesEqual(t, sparse[i], seq[i])
					}
				}
			})
		})
	}
}
