//go:build amd64

package mathx

// gemm8f32avx is the AVX2 microkernel behind Matrix32.MulRowsT
// (gemm32_amd64.s): eight streams per ymm lane, Dot32-identical association
// per lane.
//
//go:noescape
func gemm8f32avx(w *float32, stride, rows int, xt *float32, kn int, dst *float32, dstStride int, cont bool)

// gemm16f32avx512 is the AVX-512 microkernel behind Matrix32.MulRowsT:
// sixteen streams per zmm lane, Dot32-identical association per lane.
//
//go:noescape
func gemm16f32avx512(w *float32, stride, rows int, xt *float32, kn int, dst *float32, dstStride int, cont bool)

// gemm8x2f32avx512 is the row-pair AVX-512 microkernel behind
// PackedGEMM32.MulRowsT: eight streams × two adjacent weight rows per zmm
// (lane 2s = stream s row j, lane 2s+1 = stream s row j+1), fed by
// VBROADCASTSD of the packed 64-bit weight pair. Each lane accumulates its
// (stream, row) product chain in Dot32's exact association — the pairing
// only doubles how much work one broadcast feeds, it never reorders a sum.
//
//go:noescape
func gemm8x2f32avx512(wp *float32, stride, pairs int, xt *float32, kn int, dst *float32, dstStride int, cont bool)

// gemv8f32avx runs the packed f32 single-vector product (gemm32_amd64.s):
// tiles of eight output rows per ymm, Dot32-identical association per lane,
// epilogue selected by mode (pack.go's Gemv* constants).
//
//go:noescape
func gemv8f32avx(p *float32, tiles, cols int, x *float32, dst *float32, bias *float32, mode int)

// gemv16f32avx512 is the 512-bit twin of gemv8f32avx: sixteen output rows
// per zmm.
//
//go:noescape
func gemv16f32avx512(p *float32, tiles, cols int, x *float32, dst *float32, bias *float32, mode int)

// vcombine8f32 is the fused elementwise combine kernel (gemm32_amd64.s):
// dst = (dst + u) + b, eight lanes per step, returning how many elements
// it handled (len&^7). Elementwise, so lane width never changes bits.
//
//go:noescape
func vcombine8f32(dst, u, b *float32, n int) int

// vcombine32SIMD runs the fused combine over the SIMD-divisible prefix and
// reports how much it covered; the caller finishes the tail.
func vcombine32SIMD(dst, u, b []float32) int {
	if !hasAVX || len(dst) < 8 {
		return 0
	}
	return vcombine8f32(&dst[0], &u[0], &b[0], len(dst))
}

// vgroupadd8f32 is the one-hot gather group kernel (gemm32_amd64.s):
// dst = [dst +] ((r0 + r1) + r2) + r3 truncated to rows addends, eight
// lanes per step over the 8-divisible prefix; returns the count handled.
//
//go:noescape
func vgroupadd8f32(dst, r0, r1, r2, r3 *float32, rows, n int, assign bool) int

// vgroupAdd32SIMD runs the gather-group combine over the SIMD-divisible
// prefix and reports how much it covered; the caller finishes the tail
// with the identical per-element expression.
func vgroupAdd32SIMD(dst, r0, r1, r2, r3 []float32, rows int, assign bool) int {
	if !hasAVX || len(dst) < 8 {
		return 0
	}
	return vgroupadd8f32(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], rows, len(dst), assign)
}

// gemvLanes32 returns the f32 packed-GEMV tile height for the effective
// tier — the full native f32 lane width, double gemvLanes's.
func gemvLanes32() int {
	switch {
	case hasAVX512:
		return 16
	case hasAVX:
		return 8
	default:
		return 0
	}
}

// gemv32SIMD dispatches the packed f32 single-vector product to the tier
// the pack was built for; it reports false (pack unusable, caller falls
// back to the scalar rows) when that tier is no longer enabled.
func gemv32SIMD(p *PackedGEMV32, dst, x, bias []float32, mode int, tiles int) bool {
	if p.cols == 0 {
		return false
	}
	bp := &dst[0] // unread by modes without a bias; keeps the asm branch-free
	if bias != nil {
		bp = &bias[0]
	}
	switch p.lanes {
	case 16:
		if !hasAVX512 {
			return false
		}
		gemv16f32avx512(&p.data[0], tiles, p.cols, &x[0], &dst[0], bp, mode)
	case 8:
		if !hasAVX {
			return false
		}
		gemv8f32avx(&p.data[0], tiles, p.cols, &x[0], &dst[0], bp, mode)
	default:
		return false
	}
	return true
}

// gemmChunkK32 is the packed-column chunk size for the f32 GEMM kernels:
// 8 lanes × 256 columns × 4 bytes = 8 KB of stack scratch per call (16 KB
// for the 16-lane kernels).
const gemmChunkK32 = 256

// mulRows32SIMD is mulRowsSIMD for Matrix32.MulRowsT: full sixteen-stream
// zmm blocks on the AVX-512 tier, eight-stream ymm blocks below it, and the
// streams left over through the narrowest kernel that holds them in one
// pass with absent lanes zero-filled. It reports false on the scalar tier
// and for an empty inner dimension.
func mulRows32SIMD(m *Matrix32, dst []float32, xs [][]float32) bool {
	if !hasAVX || m.Cols == 0 {
		return false
	}
	R := m.Rows
	for i := 0; i < len(xs); {
		t := len(xs) - i
		if hasAVX512 && t > 8 {
			t = min(t, 16)
			mulRows16f32SIMD(m, dst[i*R:(i+t)*R], xs[i:i+t])
		} else {
			t = min(t, 8)
			mulRows8f32SIMD(m, dst[i*R:(i+t)*R], xs[i:i+t])
		}
		i += t
	}
	return true
}

// mulRowsPacked32SIMD is the AVX-512 dispatch of PackedGEMM32.MulRowsT:
// sixteen-stream blocks run the plain zmm kernel (at full occupancy it
// already amortizes its broadcasts over sixteen lanes), and up to eight
// streams run the row-pair kernel over the interleaved weights, padded when
// ragged. It reports false below AVX-512, where the row-pair layout has no
// kernel and the matrix's own MulRowsT runs.
func mulRowsPacked32SIMD(p *PackedGEMM32, dst []float32, xs [][]float32) bool {
	if !hasAVX512 || p.m.Cols == 0 {
		return false
	}
	R := p.m.Rows
	for i := 0; i < len(xs); {
		t := len(xs) - i
		if t > 8 {
			t = min(t, 16)
			mulRows16f32SIMD(p.m, dst[i*R:(i+t)*R], xs[i:i+t])
		} else {
			mulRows8x2f32SIMD(p, dst[i*R:(i+t)*R], xs[i:i+t])
		}
		i += t
	}
	return true
}

// mulRows8f32SIMD computes up to eight streams with the AVX2 kernel.
func mulRows8f32SIMD(m *Matrix32, dst []float32, xs [][]float32) {
	var xt [8 * gemmChunkK32]float32
	mulRows32Block(m, dst, xs, xt[:], 8)
}

// mulRows16f32SIMD computes up to sixteen streams with the AVX-512 kernel.
func mulRows16f32SIMD(m *Matrix32, dst []float32, xs [][]float32) {
	var xt [16 * gemmChunkK32]float32
	mulRows32Block(m, dst, xs, xt[:], 16)
}

// mulRows32Block is mulRowsBlock at f32: dst(t×R, lane stride R) =
// [xs0;…]·mᵀ for t = len(xs) ≤ lanes streams, columns packed as
// xt[lanes*k+lane] in gemmChunkK32 chunks with the accumulator carried
// through the output, so each lane is exactly Dot32's chain. A ragged block
// leaves its absent lanes zero and stages all lanes through a stack tile of
// gemmTailRows weight rows, copying out the real ones.
func mulRows32Block(m *Matrix32, dst []float32, xs [][]float32, xt []float32, lanes int) {
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
		for kc := 0; kc < C; kc += gemmChunkK32 {
			kn := min(C-kc, gemmChunkK32)
			pack(kc, kn)
			gemm32AVX(lanes, &m.Data[kc], C, R, &xt[0], kn, &dst[0], R, kc > 0)
		}
		return
	}
	var out [16 * gemmTailRows]float32
	for r0 := 0; r0 < R; r0 += gemmTailRows {
		rn := min(R-r0, gemmTailRows)
		for kc := 0; kc < C; kc += gemmChunkK32 {
			kn := min(C-kc, gemmChunkK32)
			if r0 == 0 || C > gemmChunkK32 {
				pack(kc, kn)
			}
			gemm32AVX(lanes, &m.Data[r0*C+kc], C, rn, &xt[0], kn, &out[0], rn, kc > 0)
		}
		for l := range xs {
			copy(dst[l*R+r0:l*R+r0+rn], out[l*rn:(l+1)*rn])
		}
	}
}

// gemm32AVX calls the lanes-wide f32 GEMM microkernel directly, keeping the
// kernels' noescape contract visible to escape analysis.
func gemm32AVX(lanes int, w *float32, stride, rows int, xt *float32, kn int, dst *float32, dstStride int, cont bool) {
	if lanes == 16 {
		gemm16f32avx512(w, stride, rows, xt, kn, dst, dstStride, cont)
	} else {
		gemm8f32avx(w, stride, rows, xt, kn, dst, dstStride, cont)
	}
}

// mulRows8x2f32SIMD computes up to eight streams with the row-pair AVX-512
// kernel over p's interleaved weights — same chunking and association
// contract as mulRows32Block at double the rows per pass, each stream's
// value duplicated into its lane pair. A ragged block stages all lanes
// through a stack tile of gemmTailRows weight rows like mulRows32Block. An
// odd final weight row is computed in Go with Dot32 itself, which IS the
// contract association.
func mulRows8x2f32SIMD(p *PackedGEMM32, dst []float32, xs [][]float32) {
	R, C := p.m.Rows, p.m.Cols
	var xt [16 * gemmChunkK32]float32
	pack := func(kc, kn int) {
		for s, x := range xs {
			x = x[kc : kc+kn]
			for k, v := range x {
				xt[16*k+2*s] = v
				xt[16*k+2*s+1] = v
			}
		}
	}
	P := R / 2 // weight-row pairs
	if len(xs) == 8 {
		for kc := 0; kc < C && P > 0; kc += gemmChunkK32 {
			kn := min(C-kc, gemmChunkK32)
			pack(kc, kn)
			gemm8x2f32avx512(&p.pairs[2*kc], 2*C, P, &xt[0], kn, &dst[0], R, kc > 0)
		}
	} else {
		var out [8 * gemmTailRows]float32
		const tilePairs = gemmTailRows / 2
		for p0 := 0; p0 < P; p0 += tilePairs {
			pn := min(P-p0, tilePairs)
			for kc := 0; kc < C; kc += gemmChunkK32 {
				kn := min(C-kc, gemmChunkK32)
				if p0 == 0 || C > gemmChunkK32 {
					pack(kc, kn)
				}
				gemm8x2f32avx512(&p.pairs[p0*2*C+2*kc], 2*C, pn, &xt[0], kn, &out[0], 2*pn, kc > 0)
			}
			for s := range xs {
				copy(dst[s*R+2*p0:s*R+2*(p0+pn)], out[s*2*pn:(s+1)*2*pn])
			}
		}
	}
	if R&1 == 1 {
		row := p.m.Data[(R-1)*C : R*C]
		for s, x := range xs {
			dst[s*R+R-1] = Dot32(row, x[:C])
		}
	}
}
