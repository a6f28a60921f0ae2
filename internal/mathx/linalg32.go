package mathx

import "fmt"

// Float32 mirrors of the inference-side linear algebra. The f32 tier is a
// separate numeric contract from the f64 kernels: every f32 kernel — scalar
// Go, AVX2 and AVX-512 assembly alike — computes the SAME single-precision
// algorithm with the SAME summation association (Dot32's aligned groups of
// four summed left-to-right, then a sequential tail), so the three kernel
// tiers are bitwise-identical to each other in float32. Against the f64
// reference the results differ by rounding only; the detection stack gates
// that difference at the verdict level (see the f32 conformance suite).
//
// None of the f32 kernels use FMA: Go does not contract x*y+z on amd64, so
// the scalar mul-then-add chains match VMULPS/VADDPS exactly, and emulating
// an f32 FMA through float64 would double-round.

// Matrix32 is a dense row-major matrix of float32 values, the inference
// mirror of Matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix32 allocates a zeroed rows x cols matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ToMatrix32 converts m elementwise with one float64→float32 rounding per
// element — the deterministic weight conversion behind the f32 inference
// snapshot.
func ToMatrix32(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// At returns the element at (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes dst = m * x (GEMV), the f32 mirror of Matrix.MulVec.
func (m *Matrix32) MulVec(dst, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: f32 gemv shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot32(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MulVecAdd computes dst += m * x without zeroing dst first.
func (m *Matrix32) MulVecAdd(dst, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: f32 gemv shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] += Dot32(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MulVecT computes dst = mᵀ * x: dst[j] = Σ_i m[i,j]*x[i], accumulated as a
// plain sequential chain per output element exactly like Matrix.MulVecT.
func (m *Matrix32) MulVecT(dst, x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mathx: f32 gemv-T shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		Axpy32(dst, x[i], m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// MulRowsT computes the batched product dst = X·mᵀ where the rows of X are
// the slices xs: dst[i*m.Rows+j] = Σ_k m[j,k]·xs[i][k], the f32 mirror of
// Matrix.MulRowsT. Every output element is accumulated in exactly Dot32's
// association, so the result is bitwise identical to MulVec per row on
// every kernel tier. On the SIMD tiers every width runs in stream blocks
// (sixteen per zmm, eight per ymm), the leftover streams through the
// narrowest block kernel that holds them with absent lanes zero-filled; the
// scalar tier keeps the Go four-stream tile plus a Dot32 per leftover
// stream. Like the f64 kernel, only the overwriting form exists; batched
// callers combine separate products elementwise.
func (m *Matrix32) MulRowsT(dst []float32, xs [][]float32) {
	R, C := m.Rows, m.Cols
	if len(dst) != len(xs)*R {
		panic(fmt.Sprintf("mathx: f32 gemm shape mismatch (%d rows of %d into %d)",
			len(xs), R, len(dst)))
	}
	if mulRows32SIMD(m, dst, xs) {
		return
	}
	n := C &^ 3
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		// Cache-tiled scalar path: four streams advance together per weight
		// row, four independent accumulator chains, each in Dot32's exact
		// association. Reslice to C so the bounds-check eliminator can prove
		// every k+3 access in bounds.
		x0, x1, x2, x3 := xs[i][:C], xs[i+1][:C], xs[i+2][:C], xs[i+3][:C]
		d0 := dst[i*R : (i+1)*R]
		d1 := dst[(i+1)*R : (i+2)*R]
		d2 := dst[(i+2)*R : (i+3)*R]
		d3 := dst[(i+3)*R : (i+4)*R]
		for j := 0; j < R; j++ {
			row := m.Data[j*C : (j+1)*C : (j+1)*C][:C]
			var s0, s1, s2, s3 float32
			for k := 0; k+3 < C; k += 4 {
				w0, w1, w2, w3 := row[k], row[k+1], row[k+2], row[k+3]
				s0 += w0*x0[k] + w1*x0[k+1] + w2*x0[k+2] + w3*x0[k+3]
				s1 += w0*x1[k] + w1*x1[k+1] + w2*x1[k+2] + w3*x1[k+3]
				s2 += w0*x2[k] + w1*x2[k+1] + w2*x2[k+2] + w3*x2[k+3]
				s3 += w0*x3[k] + w1*x3[k+1] + w2*x3[k+2] + w3*x3[k+3]
			}
			for k := n; k < C; k++ {
				w := row[k]
				s0 += w * x0[k]
				s1 += w * x1[k]
				s2 += w * x2[k]
				s3 += w * x3[k]
			}
			d0[j] = s0
			d1[j] = s1
			d2[j] = s2
			d3[j] = s3
		}
	}
	for ; i < len(xs); i++ {
		x := xs[i]
		d := dst[i*R : (i+1)*R]
		for j := 0; j < R; j++ {
			d[j] = Dot32(m.Data[j*C:(j+1)*C], x)
		}
	}
}

// PackedGEMM32 is a Matrix32 plus a row-pair interleaved copy of its data,
// the layout of the 8-stream AVX-512 GEMM kernel: pairs[p*2C+2k] = m[2p,k],
// pairs[p*2C+2k+1] = m[2p+1,k], so one 64-bit broadcast yields the weight
// pair for two adjacent output rows across all eight stream lane-pairs.
// The packing is tier-independent (kernels that cannot use it fall back to
// the matrix itself), and the matrix must not be mutated after packing —
// the inference snapshot that owns these weights never does.
type PackedGEMM32 struct {
	m     *Matrix32
	pairs []float32 // (Rows&^1)*Cols values; an odd final row stays unpaired
}

// PackGEMM32 builds the row-pair packing of m.
func PackGEMM32(m *Matrix32) *PackedGEMM32 {
	R, C := m.Rows, m.Cols
	p := &PackedGEMM32{m: m, pairs: make([]float32, (R&^1)*C)}
	for pr := 0; pr < R/2; pr++ {
		r0 := m.Data[(2*pr)*C : (2*pr+1)*C]
		r1 := m.Data[(2*pr+1)*C : (2*pr+2)*C]
		out := p.pairs[pr*2*C : (pr+1)*2*C]
		for k := 0; k < C; k++ {
			out[2*k] = r0[k]
			out[2*k+1] = r1[k]
		}
	}
	return p
}

// MulRowsT is Matrix32.MulRowsT with the same shape contract and the same
// per-element Dot32 association, but on the AVX-512 tier blocks of up to
// eight streams — ragged ones padded — run the row-pair kernel (two weight
// rows per zmm) instead of the 256-bit eight-lane kernel. Results are
// bitwise-identical to the matrix's own MulRowsT on every tier.
func (p *PackedGEMM32) MulRowsT(dst []float32, xs [][]float32) {
	if len(dst) != len(xs)*p.m.Rows {
		panic(fmt.Sprintf("mathx: f32 gemm shape mismatch (%d rows of %d into %d)",
			len(xs), p.m.Rows, len(dst)))
	}
	if !mulRowsPacked32SIMD(p, dst, xs) {
		p.m.MulRowsT(dst, xs)
	}
}

// Transpose returns mᵀ as a fresh matrix (the layout OneHotGather32 wants).
func (m *Matrix32) Transpose() *Matrix32 {
	out := NewMatrix32(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Dot32 returns the inner product of a and b in float32, with the same
// 4-way-unrolled association as the f64 Dot — the association every f32
// SIMD kernel replicates lane for lane.
func Dot32(a, b []float32) float32 {
	var s float32
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy32 computes dst += a*x elementwise in float32.
func Axpy32(dst []float32, a float32, x []float32) {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += a * x[i]
	}
}

// VCombine32 computes dst[i] = (dst[i] + u[i]) + b[i] in exactly that
// operand order — the batched LSTM combine epilogue (wx + uh) + b. The
// operation is purely elementwise, so the SIMD path is bitwise-identical
// to the scalar loop by construction; no association contract is needed.
func VCombine32(dst, u, b []float32) {
	if len(u) < len(dst) || len(b) < len(dst) {
		panic(fmt.Sprintf("mathx: f32 combine shape mismatch (%d with %d, %d)",
			len(dst), len(u), len(b)))
	}
	i := vcombine32SIMD(dst, u, b)
	for ; i < len(dst); i++ {
		dst[i] = (dst[i] + u[i]) + b[i]
	}
}

// Fill32 assigns v to every element of dst.
func Fill32(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// ArgMax32 returns the index of the maximum element, or -1 for empty input.
func ArgMax32(v []float32) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
