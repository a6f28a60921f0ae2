//go:build amd64

package mathx

// cpuHasAVX reports AVX support with OS-enabled YMM state (implemented in
// gemm_amd64.s).
func cpuHasAVX() bool

// cpuHasAVX512 reports AVX-512F support with OS-enabled ZMM and opmask
// state (implemented in gemm_amd64.s).
func cpuHasAVX512() bool

// gemm4avx is the AVX microkernel behind MulRowsT (gemm_amd64.s): four
// streams per ymm lane, Dot-identical association per lane.
//
//go:noescape
func gemm4avx(w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool)

// gemm8avx512 is the AVX-512 microkernel behind MulRowsT (gemm_amd64.s):
// eight streams per zmm lane, Dot-identical association per lane. It is the
// 512-bit twin of gemm4avx — same packed-column layout, twice the streams.
//
//go:noescape
func gemm8avx512(w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool)

// chain4avx is the AVX microkernel behind chain4 (gemm_amd64.s): four
// accumulator chains (dst rows, stride c) advance over n vectorizable
// columns, one rounded multiply-add per step per element, steps ascending.
//
//go:noescape
func chain4avx(dst *float64, scal *float64, vp *float64, steps, n, c int)

// gemv4avx runs the packed single-vector product (gemm_amd64.s): tiles of
// four output rows per ymm, Dot-identical association per lane, epilogue
// selected by mode (see pack.go's Gemv* constants).
//
//go:noescape
func gemv4avx(p *float64, tiles, cols int, x *float64, dst *float64, bias *float64, mode int)

// gemv8avx512 is the 512-bit twin of gemv4avx: eight output rows per zmm.
//
//go:noescape
func gemv8avx512(p *float64, tiles, cols int, x *float64, dst *float64, bias *float64, mode int)

// Kernel-tier state: the cpu* flags are immutable hardware facts, the
// *Enabled flags are test/benchmark overrides, and hasAVX/hasAVX512 are the
// effective tier the kernels consult. Overrides are not safe to flip
// concurrently with kernel use (they exist so equivalence suites can pin a
// tier); every flip bumps simdEpoch so cached packed layouts rebuild.
var (
	cpuAVX    = cpuHasAVX()
	cpuAVX512 = cpuHasAVX512()

	simdEnabled   = true
	avx512Enabled = true

	hasAVX    = cpuAVX
	hasAVX512 = cpuAVX512
)

func recomputeTier() {
	hasAVX = simdEnabled && cpuAVX
	hasAVX512 = simdEnabled && avx512Enabled && cpuAVX512
	simdEpoch.Add(1)
}

// SetSIMDEnabled force-disables (false) or re-enables (true, subject to CPU
// support) every SIMD kernel — AVX-512 included — returning the previous
// state. It exists so equivalence tests and benchmarks can cover the
// assembly and pure-Go paths on the same machine; it is not safe to call
// concurrently with kernel use.
func SetSIMDEnabled(on bool) bool {
	prev := simdEnabled
	simdEnabled = on
	recomputeTier()
	return prev
}

// SetAVX512Enabled force-disables (false) or re-enables (true, subject to
// CPU support and the master SetSIMDEnabled switch) the AVX-512 kernels
// only, returning the previous state. With AVX-512 off the kernels drop to
// the AVX2 tier — the combination pins each of the three tiers:
// scalar (SetSIMDEnabled(false)), avx2 (SIMD on, AVX-512 off), avx512
// (both on). Same concurrency caveat as SetSIMDEnabled.
func SetAVX512Enabled(on bool) bool {
	prev := avx512Enabled
	avx512Enabled = on
	recomputeTier()
	return prev
}

// SIMDTier names the effective kernel tier: "avx512", "avx2" or "scalar".
func SIMDTier() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX:
		return "avx2"
	default:
		return "scalar"
	}
}

// gemvLanes returns the packed-GEMV tile height for the effective tier.
func gemvLanes() int {
	switch {
	case hasAVX512:
		return 8
	case hasAVX:
		return 4
	default:
		return 0
	}
}

// gemvSIMD dispatches the packed single-vector product to the tier the pack
// was built for; it reports false (pack unusable, caller falls back to the
// scalar rows) when that tier is no longer enabled.
func gemvSIMD(p *PackedGEMV, dst, x, bias []float64, mode int, tiles int) bool {
	if p.cols == 0 {
		return false
	}
	bp := &dst[0] // unread by modes without a bias; keeps the asm branch-free
	if bias != nil {
		bp = &bias[0]
	}
	switch p.lanes {
	case 8:
		if !hasAVX512 {
			return false
		}
		gemv8avx512(&p.data[0], tiles, p.cols, &x[0], &dst[0], bp, mode)
	case 4:
		if !hasAVX {
			return false
		}
		gemv4avx(&p.data[0], tiles, p.cols, &x[0], &dst[0], bp, mode)
	default:
		return false
	}
	return true
}

// gemmChunkK is the packed-column chunk size: 4 lanes × 256 columns = 8 KB
// of stack scratch per call (16 KB for the 8-lane kernel).
const gemmChunkK = 256

// gemmTailRows is the weight-row tile of a padded block: the kernel writes
// every lane, real or absent, into a lanes × gemmTailRows stack tile, and
// only the real lanes are copied out to dst. 128 rows cover the gate
// products of a 32-unit layer in one tile.
const gemmTailRows = 128

// mulRowsSIMD runs the whole batched product dst = X·mᵀ on the SIMD tier
// and reports false on the scalar tier (and for an empty inner dimension,
// where the kernels would leave dst unwritten) so MulRowsT runs its Go
// loops instead. Full blocks of the widest kernel come first; the streams
// left over run through the narrowest kernel that holds them in one pass,
// absent lanes zero-filled. Lanes never mix, so every real lane keeps Dot's
// association whichever block carries it.
func mulRowsSIMD(m *Matrix, dst []float64, xs [][]float64) bool {
	if !hasAVX || m.Cols == 0 {
		return false
	}
	R := m.Rows
	for i := 0; i < len(xs); {
		t := len(xs) - i
		if hasAVX512 && t > 4 {
			t = min(t, 8)
			mulRows8SIMD(m, dst[i*R:(i+t)*R], xs[i:i+t])
		} else {
			t = min(t, 4)
			mulRows4SIMD(m, dst[i*R:(i+t)*R], xs[i:i+t])
		}
		i += t
	}
	return true
}

// mulRows4SIMD computes up to four streams with the AVX kernel; the packed
// columns live on this frame, so a four-lane block zeroes half the scratch
// an eight-lane one does.
func mulRows4SIMD(m *Matrix, dst []float64, xs [][]float64) {
	var xt [4 * gemmChunkK]float64
	mulRowsBlock(m, dst, xs, xt[:], 4)
}

// mulRows8SIMD computes up to eight streams with the AVX-512 kernel.
func mulRows8SIMD(m *Matrix, dst []float64, xs [][]float64) {
	var xt [8 * gemmChunkK]float64
	mulRowsBlock(m, dst, xs, xt[:], 8)
}

// mulRowsBlock computes dst(t×R, lane stride R) = [xs0;…]·mᵀ for
// t = len(xs) ≤ lanes streams with the lanes-wide kernel, packing columns
// into xt (zeroed, lanes·gemmChunkK long) as xt[lanes*k+lane]. Columns
// beyond gemmChunkK are processed in aligned chunks with the accumulator
// carried through the output, so the per-element association still matches
// Dot exactly. Only the overwriting form is provided: accumulate-into-dst
// would need a different association (dst + full-dot), which the chunked
// kernel cannot reproduce — batched callers compute separate products and
// combine them elementwise instead.
//
// A full block writes dst directly. A ragged one (t < lanes) leaves the
// absent lanes of xt zero and lets the kernel write all lanes into a stack
// tile of gemmTailRows weight rows, from which the t real lanes are copied
// out; the column chunks run inside each row tile, so the carry stays in
// the tile.
func mulRowsBlock(m *Matrix, dst []float64, xs [][]float64, xt []float64, lanes int) {
	R, C := m.Rows, m.Cols
	pack := func(kc, kn int) {
		for l, x := range xs {
			x = x[kc : kc+kn]
			for k, v := range x {
				xt[lanes*k+l] = v
			}
		}
	}
	if len(xs) == lanes {
		for kc := 0; kc < C; kc += gemmChunkK {
			kn := min(C-kc, gemmChunkK)
			pack(kc, kn)
			gemmAVX(lanes, &m.Data[kc], C, R, &xt[0], kn, &dst[0], R, kc > 0)
		}
		return
	}
	var out [8 * gemmTailRows]float64
	for r0 := 0; r0 < R; r0 += gemmTailRows {
		rn := min(R-r0, gemmTailRows)
		for kc := 0; kc < C; kc += gemmChunkK {
			kn := min(C-kc, gemmChunkK)
			if r0 == 0 || C > gemmChunkK {
				pack(kc, kn)
			}
			gemmAVX(lanes, &m.Data[r0*C+kc], C, rn, &xt[0], kn, &out[0], rn, kc > 0)
		}
		for l := range xs {
			copy(dst[l*R+r0:l*R+r0+rn], out[l*rn:(l+1)*rn])
		}
	}
}

// gemmAVX calls the lanes-wide GEMM microkernel directly (a func value
// would hide the kernels' noescape contract and move the stack scratch to
// the heap).
func gemmAVX(lanes int, w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool) {
	if lanes == 8 {
		gemm8avx512(w, stride, rows, xt, kn, dst, dstStride, cont)
	} else {
		gemm4avx(w, stride, rows, xt, kn, dst, dstStride, cont)
	}
}

// chain4SIMD runs the four-chain tile with the AVX microkernel, delegating
// the column tail (c % 4) to the scalar tile; it reports false when AVX is
// unavailable so chain4 falls back to pure Go.
func chain4SIMD(dst []float64, scal, vp []float64, steps, c int) bool {
	if !hasAVX || steps == 0 || c == 0 {
		return false
	}
	n := c &^ 3
	if n > 0 {
		chain4avx(&dst[0], &scal[0], &vp[0], steps, n, c)
	}
	if n < c {
		chain4cols(dst, scal, vp, steps, c, n)
	}
	return true
}
