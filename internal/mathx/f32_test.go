package mathx

import (
	"math"
	"testing"
)

// The f32 tier's numeric contract: one f32 algorithm, implemented
// identically in scalar Go and in the AVX2/AVX-512 kernels, so the three
// kernel tiers are bitwise-identical to each other in float32 (accuracy vs
// f64 is gated separately, at the verdict level). These tests pin that
// contract: every kernel's output under avx512 and avx2 must match the
// scalar tier bit for bit.

func bits32Equal(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

func randVec32(rng *RNG, n int, scale float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Norm()) * scale
	}
	return v
}

func randMatrix32(rng *RNG, r, c int) *Matrix32 {
	m := NewMatrix32(r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.Norm())
	}
	return m
}

// withScalarTier32 runs f under the scalar tier and restores the previous
// overrides.
func withScalarTier32(f func()) {
	prevSIMD := SetSIMDEnabled(false)
	prevAVX512 := SetAVX512Enabled(false)
	defer func() {
		SetAVX512Enabled(prevAVX512)
		SetSIMDEnabled(prevSIMD)
	}()
	f()
}

func TestDot32MatchesScalarChain(t *testing.T) {
	rng := NewRNG(7)
	for _, n := range []int{0, 1, 3, 4, 7, 8, 31, 96, 129} {
		a := randVec32(rng, n, 1)
		b := randVec32(rng, n, 1)
		var want float32
		m := n &^ 3
		for i := 0; i < m; i += 4 {
			want += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
		}
		for i := m; i < n; i++ {
			want += a[i] * b[i]
		}
		if got := Dot32(a, b); !bits32Equal(got, want) {
			t.Fatalf("n=%d: Dot32 = %x, want %x", n, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestMulRowsT32TiersBitwise: the batched f32 GEMM must equal the per-row
// scalar MulVec bitwise on every tier, for every batch width (full 16- and
// 8-stream SIMD blocks, padded ragged blocks, and on the scalar tier the
// 4-stream tile plus singles). The 150×300 shape runs padded lanes through
// two weight-row tiles and the column-chunk carry.
func TestMulRowsT32TiersBitwise(t *testing.T) {
	rng := NewRNG(11)
	shapes := []struct{ r, c int }{{1, 1}, {3, 5}, {16, 16}, {33, 7}, {128, 138}, {96, 300}, {150, 300}}
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 33, 60, 63, 64}
	for _, sh := range shapes {
		m := randMatrix32(rng, sh.r, sh.c)
		for _, w := range widths {
			xs := make([][]float32, w)
			for i := range xs {
				xs[i] = randVec32(rng, sh.c, 1)
			}
			want := make([]float32, w*sh.r)
			withScalarTier32(func() {
				for i, x := range xs {
					m.MulVec(want[i*sh.r:(i+1)*sh.r], x)
				}
			})
			forEachTier(t, func(t *testing.T) {
				got := randVec32(rng, w*sh.r, 1) // stale values the product must overwrite
				m.MulRowsT(got, xs)
				for i := range got {
					if !bits32Equal(got[i], want[i]) {
						t.Fatalf("%dx%d width %d: elem %d = %x, want %x (tier %s)",
							sh.r, sh.c, w, i, math.Float32bits(got[i]), math.Float32bits(want[i]), SIMDTier())
					}
				}
			})
		}
	}
}

// TestPackedGEMM32TiersBitwise: the row-pair packed GEMM must equal the
// per-row scalar MulVec bitwise on every tier — the AVX-512 pair kernel
// full and padded, the odd-final-row Dot32 tail, the >chunk column carry,
// the multi-tile padded rows (151×300) and the delegated lower-tier paths
// all preserve the Dot32 association.
func TestPackedGEMM32TiersBitwise(t *testing.T) {
	rng := NewRNG(19)
	shapes := []struct{ r, c int }{{1, 5}, {2, 4}, {3, 5}, {33, 7}, {49, 32}, {128, 138}, {96, 300}, {151, 300}}
	widths := []int{1, 2, 5, 7, 8, 9, 12, 15, 16, 17, 24, 31, 33, 60, 63, 64}
	for _, sh := range shapes {
		m := randMatrix32(rng, sh.r, sh.c)
		p := PackGEMM32(m)
		for _, w := range widths {
			xs := make([][]float32, w)
			for i := range xs {
				xs[i] = randVec32(rng, sh.c, 1)
			}
			want := make([]float32, w*sh.r)
			withScalarTier32(func() {
				for i, x := range xs {
					m.MulVec(want[i*sh.r:(i+1)*sh.r], x)
				}
			})
			forEachTier(t, func(t *testing.T) {
				got := randVec32(rng, w*sh.r, 1) // stale values the product must overwrite
				p.MulRowsT(got, xs)
				for i := range got {
					if !bits32Equal(got[i], want[i]) {
						t.Fatalf("%dx%d width %d: elem %d = %x, want %x (tier %s)",
							sh.r, sh.c, w, i, math.Float32bits(got[i]), math.Float32bits(want[i]), SIMDTier())
					}
				}
			})
		}
	}
}

// TestVCombine32TiersBitwise: the fused combine must equal the scalar
// (dst+u)+b loop bitwise on every tier, for widths exercising the SIMD
// body and the scalar tail.
func TestVCombine32TiersBitwise(t *testing.T) {
	rng := NewRNG(23)
	for _, n := range []int{1, 7, 8, 9, 96, 128, 131} {
		dst0 := randVec32(rng, n, 1)
		u := randVec32(rng, n, 1)
		b := randVec32(rng, n, 1)
		want := make([]float32, n)
		for i := range want {
			want[i] = (dst0[i] + u[i]) + b[i]
		}
		forEachTier(t, func(t *testing.T) {
			dst := append([]float32(nil), dst0...)
			VCombine32(dst, u, b)
			for i := range dst {
				if !bits32Equal(dst[i], want[i]) {
					t.Fatalf("n=%d elem %d = %x, want %x (tier %s)",
						n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]), SIMDTier())
				}
			}
		})
	}
}

// TestPackedGEMV32TiersBitwise: Apply must match the scalar MulVec plus the
// mode epilogue bitwise on every tier, including the row tail, for all four
// modes.
func TestPackedGEMV32TiersBitwise(t *testing.T) {
	rng := NewRNG(13)
	shapes := []struct{ r, c int }{{1, 4}, {8, 8}, {15, 7}, {16, 32}, {17, 32}, {31, 5}, {64, 138}, {130, 96}}
	for _, sh := range shapes {
		m := randMatrix32(rng, sh.r, sh.c)
		x := randVec32(rng, sh.c, 1)
		bias := randVec32(rng, sh.r, 1)
		prev := randVec32(rng, sh.r, 1)
		mv := make([]float32, sh.r)
		withScalarTier32(func() { m.MulVec(mv, x) })
		want := map[int][]float32{
			GemvSet:     make([]float32, sh.r),
			GemvAdd:     make([]float32, sh.r),
			GemvAddBias: make([]float32, sh.r),
			GemvSetBias: make([]float32, sh.r),
		}
		for i := 0; i < sh.r; i++ {
			want[GemvSet][i] = mv[i]
			want[GemvAdd][i] = prev[i] + mv[i]
			want[GemvAddBias][i] = (prev[i] + mv[i]) + bias[i]
			want[GemvSetBias][i] = mv[i] + bias[i]
		}
		forEachTier(t, func(t *testing.T) {
			p := PackGEMV32(m)
			for _, mode := range []int{GemvSet, GemvAdd, GemvAddBias, GemvSetBias} {
				dst := make([]float32, sh.r)
				copy(dst, prev)
				var b []float32
				if mode == GemvAddBias || mode == GemvSetBias {
					b = bias
				}
				p.Apply(dst, x, b, mode)
				for i := range dst {
					if !bits32Equal(dst[i], want[mode][i]) {
						t.Fatalf("%dx%d mode %d row %d: %x, want %x (tier %s)",
							sh.r, sh.c, mode, i, math.Float32bits(dst[i]), math.Float32bits(want[mode][i]), SIMDTier())
					}
				}
			}
		})
	}
}

// TestPackedGEMV32Stale: a pack built under one tier reports stale after a
// tier flip and still computes correctly through the scalar fallback.
func TestPackedGEMV32Stale(t *testing.T) {
	rng := NewRNG(17)
	m := randMatrix32(rng, 32, 16)
	x := randVec32(rng, 16, 1)
	want := make([]float32, 32)
	withScalarTier32(func() { m.MulVec(want, x) })

	p := PackGEMV32(m)
	prev := SetSIMDEnabled(false)
	defer SetSIMDEnabled(prev)
	if gemvLanes32() != 0 && !p.Stale() {
		t.Fatal("pack not stale after tier flip")
	}
	dst := make([]float32, 32)
	p.Apply(dst, x, nil, GemvSet)
	for i := range dst {
		if !bits32Equal(dst[i], want[i]) {
			t.Fatalf("stale apply row %d: %x, want %x", i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
		}
	}
}

// TestOneHotGather32MatchesMulVec: the f32 gather must be bitwise-identical
// to the dense product against the one-hot encoding, on every tier (the
// gather itself is scalar, but the contract ties it to Dot32's grouping).
func TestOneHotGather32MatchesMulVec(t *testing.T) {
	rng := NewRNG(19)
	for _, sh := range []struct{ r, c int }{{9, 16}, {64, 96}, {138, 128}} {
		w := randMatrix32(rng, sh.c, sh.r) // W: out x in
		wt := w.Transpose()
		for trial := 0; trial < 20; trial++ {
			idx := randomActives(NewRNG(uint64(100*trial+1)), sh.r)
			dense := make([]float32, sh.r)
			for _, j := range idx {
				dense[j] = 1
			}
			want := make([]float32, sh.c)
			w.MulVec(want, dense)
			got := make([]float32, sh.c)
			OneHotGather32(got, wt, idx)
			for i := range got {
				if !bits32Equal(got[i], want[i]) {
					t.Fatalf("trial %d out %d: gather %x, dense %x", trial, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			if got2 := make([]float32, sh.c); true {
				w.MulVecOneHot(got2, idx)
				for i := range got2 {
					if !bits32Equal(got2[i], want[i]) {
						t.Fatalf("MulVecOneHot out %d: %x, want %x", i,
							math.Float32bits(got2[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestVAct32TiersBitwise: the f32 activations must be bitwise-identical to
// their scalar references on every tier, including fallback lanes
// mid-slice and the branch boundaries.
func TestVAct32TiersBitwise(t *testing.T) {
	rng := NewRNG(23)
	src := randVec32(rng, 256, 4)
	// Branch boundaries and fallback-triggering values, scattered so some
	// land mid-block: the vector kernels must early-out and hand the rest to
	// the scalar loop.
	special := []float32{0, float32(math.Copysign(0, -1)), 0.625, -0.625, 1, -1,
		44.014845, -44.014845, 44.015, -44.015, 88, -88, 89, -89, 100, -100, 150,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		1e-30, -1e-30, 87.3, -87.3, 127.5, -126.5}
	for i, v := range special {
		src[(i*37)%len(src)] = v
	}
	cases := []struct {
		name   string
		vec    func(dst, src []float32)
		scalar func(float32) float32
	}{
		{"exp", VExp32, Exp32},
		{"sigmoid", VSigmoid32, Sigmoid32},
		{"tanh", VTanh32, Tanh32},
	}
	for _, tc := range cases {
		want := make([]float32, len(src))
		for i, v := range src {
			want[i] = tc.scalar(v)
		}
		forEachTier(t, func(t *testing.T) {
			got := make([]float32, len(src))
			tc.vec(got, src)
			for i := range got {
				if !bits32Equal(got[i], want[i]) {
					t.Fatalf("%s(%v) elem %d = %x, want %x (tier %s)", tc.name,
						src[i], i, math.Float32bits(got[i]), math.Float32bits(want[i]), SIMDTier())
				}
			}
		})
	}
}

// TestAct32Accuracy bounds the f32 activations against the f64 references:
// a few f32 ulps over the ranges the LSTM actually drives them through.
func TestAct32Accuracy(t *testing.T) {
	for x := float32(-20); x <= 20; x += 0.0137 {
		if e64 := math.Exp(float64(x)); e64 > 1e-30 {
			rel := math.Abs(float64(Exp32(x))-e64) / e64
			if rel > 4e-7 {
				t.Fatalf("Exp32(%v): rel err %.3g", x, rel)
			}
		}
		s64 := 1 / (1 + math.Exp(-float64(x)))
		if d := math.Abs(float64(Sigmoid32(x)) - s64); d > 4e-7 {
			t.Fatalf("Sigmoid32(%v): abs err %.3g", x, d)
		}
		t64 := math.Tanh(float64(x))
		if d := math.Abs(float64(Tanh32(x)) - t64); d > 6e-7 {
			t.Fatalf("Tanh32(%v): abs err %.3g", x, d)
		}
	}
	// Saturation and passthrough identities.
	if Tanh32(0) != 0 || math.Signbit(float64(Tanh32(float32(math.Copysign(0, -1))))) != true {
		t.Fatal("Tanh32 does not preserve signed zero")
	}
	if Tanh32(100) != 1 || Tanh32(-100) != -1 {
		t.Fatal("Tanh32 does not saturate to ±1")
	}
	if !math.IsNaN(float64(Tanh32(float32(math.NaN())))) {
		t.Fatal("Tanh32(NaN) != NaN")
	}
	if Sigmoid32(200) != 1 || Sigmoid32(-200) != 0 {
		t.Fatalf("Sigmoid32 tails: %v, %v", Sigmoid32(200), Sigmoid32(-200))
	}
	if Exp32(0) != 1 {
		t.Fatal("Exp32(0) != 1")
	}
	if !math.IsInf(float64(Exp32(1000)), 1) || Exp32(-1000) != 0 {
		t.Fatalf("Exp32 overflow/underflow: %v, %v", Exp32(1000), Exp32(-1000))
	}
}

// TestScoreBatch32MatchesScalar: the f32 batched score kernels must equal
// their scalar siblings bitwise for every batch width.
func TestScoreBatch32MatchesScalar(t *testing.T) {
	rng := NewRNG(29)
	D := 53
	mu := randVec32(rng, D, 1)
	va := make([]float32, D)
	for d := range va {
		va[d] = float32(rng.Float64()) + 0.5
	}
	p := randMatrix32(rng, 6, D)
	proj := make([]float32, 4*p.Rows)
	recon := make([]float32, 4*p.Cols)
	for _, n := range []int{0, 1, 3, 4, 5, 8, 11} {
		xs := make([][]float32, n)
		for i := range xs {
			xs[i] = randVec32(rng, D, 1)
		}
		wantSq := make([]float32, n)
		wantRe := make([]float32, n)
		for i, x := range xs {
			wantSq[i] = ScaledSqDist32(x, mu, va)
			wantRe[i] = p.ReconResidual(x, proj[:p.Rows], recon[:p.Cols])
		}
		gotSq := make([]float32, n)
		ScaledSqDistBatch32(gotSq, xs, mu, va)
		gotRe := make([]float32, n)
		p.ReconResidualBatch(gotRe, xs, proj, recon)
		for i := 0; i < n; i++ {
			if !bits32Equal(gotSq[i], wantSq[i]) {
				t.Fatalf("sqdist n=%d row %d: %x, want %x", n, i,
					math.Float32bits(gotSq[i]), math.Float32bits(wantSq[i]))
			}
			if !bits32Equal(gotRe[i], wantRe[i]) {
				t.Fatalf("recon n=%d row %d: %x, want %x", n, i,
					math.Float32bits(gotRe[i]), math.Float32bits(wantRe[i]))
			}
		}
	}
}

// TestToMatrix32Deterministic: the f64→f32 conversion is a pure elementwise
// rounding — converting twice gives identical bits.
func TestToMatrix32Deterministic(t *testing.T) {
	rng := NewRNG(31)
	m := NewMatrix(17, 23)
	for i := range m.Data {
		m.Data[i] = rng.Norm()
	}
	a, b := ToMatrix32(m), ToMatrix32(m)
	for i := range a.Data {
		if !bits32Equal(a.Data[i], b.Data[i]) {
			t.Fatalf("elem %d differs between conversions", i)
		}
		if want := float32(m.Data[i]); !bits32Equal(a.Data[i], want) {
			t.Fatalf("elem %d: %x, want single rounding %x", i,
				math.Float32bits(a.Data[i]), math.Float32bits(want))
		}
	}
}
