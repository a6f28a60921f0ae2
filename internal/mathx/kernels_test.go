package mathx

import (
	"math"
	"testing"
)

// forEachTier runs f under each kernel tier override (on machines without
// the hardware the override is a no-op and the sub-tests all exercise the
// same lower tier — still a valid equivalence check).
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range []struct {
		name         string
		simd, avx512 bool
	}{
		{"avx512", true, true},
		{"avx2", true, false},
		{"scalar", false, false},
	} {
		t.Run(tier.name, func(t *testing.T) {
			prevSIMD := SetSIMDEnabled(tier.simd)
			prevAVX512 := SetAVX512Enabled(tier.avx512)
			defer func() {
				SetAVX512Enabled(prevAVX512)
				SetSIMDEnabled(prevSIMD)
			}()
			f(t)
		})
	}
}

// bitsEqual is the strict equality the goldens rest on: identical bit
// patterns, ±0 distinguished.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomActives picks a random ascending index set over n columns, dense
// enough that aligned four-column groups frequently hold several actives —
// the case where a naive flat gather would diverge from Dot's association.
func randomActives(rng *RNG, n int) []int {
	var idx []int
	for j := 0; j < n; j++ {
		if rng.Float64() < 0.35 {
			idx = append(idx, j)
		}
	}
	return idx
}

func denseFromActives(n int, idx []int) []float64 {
	x := make([]float64, n)
	for _, j := range idx {
		x[j] = 1
	}
	return x
}

// TestOneHotDotMatchesDot: the sparse dot over an implicit one-hot vector
// must be bitwise-identical to the dense Dot, including when several active
// columns share an aligned four-column group and in the sequential tail.
func TestOneHotDotMatchesDot(t *testing.T) {
	rng := NewRNG(71)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(48)
		row := randomVec(rng, n)
		idx := randomActives(rng, n)
		x := denseFromActives(n, idx)
		want := Dot(row, x)
		got := OneHotDot(row, idx)
		if !bitsEqual(got, want) {
			t.Fatalf("trial %d (n=%d, actives=%v): OneHotDot %v, Dot %v", trial, n, idx, got, want)
		}
	}
}

// TestMulVecOneHotMatchesMulVec covers the row-major sparse GEMV reference.
func TestMulVecOneHotMatchesMulVec(t *testing.T) {
	rng := NewRNG(72)
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(48)
		m := randomMatrix(rng, rows, cols)
		idx := randomActives(rng, cols)
		x := denseFromActives(cols, idx)
		want := make([]float64, rows)
		m.MulVec(want, x)
		got := make([]float64, rows)
		m.MulVecOneHot(got, idx)
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("trial %d row %d: sparse %v, dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestOneHotGatherMatchesMulVec: the transposed-layout gather — the actual
// inference fast path — must match the dense product bitwise, empty index
// sets included.
func TestOneHotGatherMatchesMulVec(t *testing.T) {
	rng := NewRNG(73)
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(48)
		m := randomMatrix(rng, rows, cols)
		wt := m.Transpose()
		idx := randomActives(rng, cols)
		if trial%10 == 0 {
			idx = nil // empty set: gather must zero dst
		}
		x := denseFromActives(cols, idx)
		want := make([]float64, rows)
		m.MulVec(want, x)
		got := randomVec(rng, rows) // stale contents: gather must overwrite
		OneHotGather(got, wt, idx)
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("trial %d row %d (actives %v): gather %v, dense %v", trial, i, idx, got[i], want[i])
			}
		}
	}
}

// TestPackedGEMVMatchesMulVec: Apply must be bitwise-identical to the
// MulVec / MulVecAdd + bias-loop reference in all four epilogue modes, on
// every kernel tier, across shapes with row tails (rows % lanes) and odd
// column counts.
func TestPackedGEMVMatchesMulVec(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(74)
		for trial := 0; trial < 80; trial++ {
			rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
			m := randomMatrix(rng, rows, cols)
			p := PackGEMV(m)
			x := randomVec(rng, cols)
			bias := randomVec(rng, rows)
			base := randomVec(rng, rows)
			for mode := GemvSet; mode <= GemvSetBias; mode++ {
				want := make([]float64, rows)
				copy(want, base)
				switch mode {
				case GemvSet:
					m.MulVec(want, x)
				case GemvAdd:
					m.MulVecAdd(want, x)
				case GemvAddBias:
					m.MulVecAdd(want, x)
					for i := range want {
						want[i] += bias[i]
					}
				case GemvSetBias:
					m.MulVec(want, x)
					for i := range want {
						want[i] += bias[i]
					}
				}
				got := make([]float64, rows)
				copy(got, base)
				p.Apply(got, x, bias, mode)
				for i := range want {
					if !bitsEqual(got[i], want[i]) {
						t.Fatalf("trial %d mode %d row %d (%dx%d): packed %v, reference %v",
							trial, mode, i, rows, cols, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestPackedGEMVStale: a tier override after packing must mark the pack
// stale so cached layouts rebuild for the new tier.
func TestPackedGEMVStale(t *testing.T) {
	rng := NewRNG(75)
	m := randomMatrix(rng, 8, 8)
	p := PackGEMV(m)
	if p.Stale() {
		t.Fatal("fresh pack reported stale")
	}
	prev := SetSIMDEnabled(false)
	defer SetSIMDEnabled(prev)
	if !p.Stale() {
		t.Fatal("pack not stale after kernel-tier override")
	}
	// A stale pack still computes identical bits (the association is
	// tier-independent); staleness only signals the wrong tier would run.
	x := randomVec(rng, 8)
	want := make([]float64, 8)
	m.MulVec(want, x)
	got := make([]float64, 8)
	p.Apply(got, x, nil, GemvSet)
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("stale pack row %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMulRowsTWideBatches: every batch width from one stream past two full
// eight-stream blocks, plus 63 and 64, must stay bitwise-identical to one
// MulVec per stream on every tier — full blocks and padded ragged blocks on
// the SIMD tiers, the four-stream tile plus Dot on the scalar tier. The
// 150×300 shape runs the padded lanes through two weight-row tiles and the
// column-chunk carry. dst starts with stale values the product must
// overwrite.
func TestMulRowsTWideBatches(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64}
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(76)
		for _, streams := range widths {
			for _, sh := range [][2]int{{1 + rng.Intn(40), 1 + rng.Intn(40)}, {150, 300}} {
				rows, cols := sh[0], sh[1]
				m := randomMatrix(rng, rows, cols)
				xs := make([][]float64, streams)
				for i := range xs {
					xs[i] = randomVec(rng, cols)
				}
				got := randomVec(rng, streams*rows)
				m.MulRowsT(got, xs)
				for i := 0; i < streams; i++ {
					want := make([]float64, rows)
					m.MulVec(want, xs[i])
					for j := range want {
						if !bitsEqual(got[i*rows+j], want[j]) {
							t.Fatalf("streams=%d stream %d row %d (%dx%d): batched %v, MulVec %v",
								streams, i, j, rows, cols, got[i*rows+j], want[j])
						}
					}
				}
			}
		}
	})
}
