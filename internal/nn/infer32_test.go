// Tests for the float32 inference snapshot: conversion must be
// deterministic and leave the f64 model untouched; within f32 the sparse,
// dense, sequential and batched paths must be bitwise-identical on every
// kernel tier (the same contract the f64 paths carry); and f32 logits may
// drift from the f64 reference only within a small bound — the property
// backing the verdict-parity gate in the conformance suite.
package nn

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

func denseOneHot32(dim int, idx []int) []float32 {
	x := make([]float32, dim)
	for _, j := range idx {
		x[j] = 1
	}
	return x
}

func requireBits32Equal(t *testing.T, what string, a, b []float32) {
	t.Helper()
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s[%d]: %x vs %x", what, i, a[i], b[i])
		}
	}
}

func requireStates32Equal(t *testing.T, a, b *State32) {
	t.Helper()
	for l := range a.h {
		requireBits32Equal(t, "h", a.h[l], b.h[l])
		requireBits32Equal(t, "c", a.c[l], b.c[l])
	}
}

// classifierBits flattens every parameter tensor's raw bits, for asserting
// the f64 model is untouched by conversion.
func classifierBits(c *Classifier) []uint64 {
	var bits []uint64
	for _, p := range c.Params() {
		for _, v := range p.Data {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestInfer32ConversionDeterministic: converting the same model twice
// yields bitwise-identical f32 weights, and the f64 source is never
// mutated — so Framework fingerprints are unaffected by f32 inference.
func TestInfer32ConversionDeterministic(t *testing.T) {
	c, err := NewClassifier(91, []int{24, 16}, 23, 555)
	if err != nil {
		t.Fatal(err)
	}
	before := classifierBits(c)
	m1 := c.Infer32()
	if c.Infer32() != m1 {
		t.Fatal("Infer32 did not cache the snapshot")
	}
	c.InvalidateInference()
	m2 := c.Infer32()
	if m1 == m2 {
		t.Fatal("InvalidateInference did not drop the f32 snapshot")
	}
	for li := range m1.layers {
		a, b := m1.layers[li], m2.layers[li]
		requireBits32Equal(t, "W", a.w.Data, b.w.Data)
		requireBits32Equal(t, "U", a.u.Data, b.u.Data)
		requireBits32Equal(t, "B", a.b, b.b)
		requireBits32Equal(t, "Wt", a.wt.Data, b.wt.Data)
	}
	requireBits32Equal(t, "Out.W", m1.out.w.Data, m2.out.w.Data)
	requireBits32Equal(t, "Out.B", m1.out.b, m2.out.b)
	after := classifierBits(c)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("f64 parameter bits changed at flat index %d", i)
		}
	}
}

// TestInfer32OneHotMatchesDense: the f32 sparse fast path against the f32
// dense step, bitwise, per tier.
func TestInfer32OneHotMatchesDense(t *testing.T) {
	const steps = 60
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 1234)
				if err != nil {
					t.Fatal(err)
				}
				m := c.Infer32()
				rng := mathx.NewRNG(99)
				sparseState, denseState := m.NewState(), m.NewState()
				sparseScores := make([]float32, shape.classes)
				denseScores := make([]float32, shape.classes)
				for s := 0; s < steps; s++ {
					idx := randomOneHot(rng, shape.in)
					m.StepLogitsOneHot(sparseState, idx, sparseScores)
					m.StepLogits(denseState, denseOneHot32(shape.in, idx), denseScores)
					requireBits32Equal(t, "logits", sparseScores, denseScores)
					requireStates32Equal(t, sparseState, denseState)
				}
			})
		})
	}
}

// TestInfer32BatchMatchesSequential: the batched f32 paths against the
// sequential f32 step under ragged widths, bitwise, per tier — full and
// padded 8- and 16-stream blocks included.
func TestInfer32BatchMatchesSequential(t *testing.T) {
	const maxStreams = 63
	widths := []int{1, 9, 4, 7, 2, 8, 3, 12, 1, 5, 17, 6, maxStreams, 9}
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 4321)
				if err != nil {
					t.Fatal(err)
				}
				m := c.Infer32()
				rng := mathx.NewRNG(7)
				buf := m.NewBatchBuffer(maxStreams)
				denseBuf := m.NewBatchBuffer(maxStreams)
				sparse := make([]*State32, maxStreams)
				dense := make([]*State32, maxStreams)
				seq := make([]*State32, maxStreams)
				for i := range sparse {
					sparse[i], dense[i], seq[i] = m.NewState(), m.NewState(), m.NewState()
				}
				seqScores := make([]float32, shape.classes)
				for _, n := range widths {
					idxs := make([][]int, n)
					xs := make([][]float32, n)
					sparseScores := make([][]float32, n)
					denseScores := make([][]float32, n)
					for i := 0; i < n; i++ {
						idxs[i] = randomOneHot(rng, shape.in)
						xs[i] = denseOneHot32(shape.in, idxs[i])
						sparseScores[i] = make([]float32, shape.classes)
						denseScores[i] = make([]float32, shape.classes)
					}
					m.StepBatchLogitsOneHot(buf, sparse[:n], idxs, sparseScores)
					m.StepBatchLogits(denseBuf, dense[:n], xs, denseScores)
					for i := 0; i < n; i++ {
						m.StepLogitsOneHot(seq[i], idxs[i], seqScores)
						requireBits32Equal(t, "batch-vs-dense logits", sparseScores[i], denseScores[i])
						requireBits32Equal(t, "batch-vs-seq logits", sparseScores[i], seqScores)
						requireStates32Equal(t, sparse[i], dense[i])
						requireStates32Equal(t, sparse[i], seq[i])
					}
				}
			})
		})
	}
}

// TestInfer32DriftVsF64 bounds the f32-vs-f64 logit divergence over long
// recurrent runs: the property that makes verdict parity plausible rather
// than accidental. The bound is scale-relative (logits are O(1) here) and
// holds with an order of magnitude of headroom in practice.
func TestInfer32DriftVsF64(t *testing.T) {
	const steps = 120
	const tol = 1e-3
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 2025)
			if err != nil {
				t.Fatal(err)
			}
			m := c.Infer32()
			rng := mathx.NewRNG(31)
			s64 := c.NewState()
			s32 := m.NewState()
			l64 := make([]float64, shape.classes)
			l32 := make([]float32, shape.classes)
			for s := 0; s < steps; s++ {
				idx := randomOneHot(rng, shape.in)
				c.StepLogitsOneHot(s64, idx, l64)
				m.StepLogitsOneHot(s32, idx, l32)
				scale := 1.0
				for _, v := range l64 {
					if a := math.Abs(v); a > scale {
						scale = a
					}
				}
				for j := range l64 {
					if d := math.Abs(float64(l32[j]) - l64[j]); d > tol*scale {
						t.Fatalf("step %d logit %d drift %g exceeds %g (f32=%g f64=%g)",
							s, j, d, tol*scale, l32[j], l64[j])
					}
				}
			}
		})
	}
}
