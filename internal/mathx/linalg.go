package mathx

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values. The zero value is an
// empty matrix; use NewMatrix to allocate one with a shape.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element by a in place.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddInPlace accumulates other into m. It panics on shape mismatch since that
// is always a programming error inside this module.
func (m *Matrix) AddInPlace(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mathx: add shape mismatch (%dx%d vs %dx%d)",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// MulVec computes dst = m * x (GEMV). dst must have length m.Rows and x
// length m.Cols. The inner loop is written to be auto-vectorization friendly.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: gemv shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		dst[i] = Dot(row, x)
	}
}

// MulVecAdd computes dst += m * x without zeroing dst first.
func (m *Matrix) MulVecAdd(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: gemv shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		dst[i] += Dot(row, x)
	}
}

// MulVecT computes dst = mᵀ * x, i.e. dst[j] = Σ_i m[i,j]*x[i]. dst must have
// length m.Cols and x length m.Rows. Used for gradient backpropagation.
//
// Every output element is a plain sequential chain — dst[j] starts at zero
// and one rounded term x[i]*m[i,j] is added per row, i ascending, with no
// data-dependent skips. MulRows reproduces exactly this association for a
// batch of x vectors, which is what makes the batched trainer bitwise
// identical to the per-window reference.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mathx: gemv-T shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		Axpy(dst, x[i], row)
	}
}

// MulRowsT computes the matrix-matrix product dst = X·mᵀ where the rows of
// X are the slices xs: dst[i*m.Rows+j] = Σ_k m[j,k]·xs[i][k]. dst is
// row-major with stride m.Rows and must have length len(xs)*m.Rows; every
// row of xs must have length m.Cols.
//
// Every output element is accumulated in exactly Dot's association (groups
// of four summed left-to-right, then a sequential tail), so the result is
// bitwise identical to calling MulVec once per row of X — the batched
// inference path depends on this for exact verdict equivalence. What makes
// it a genuine GEMM rather than repeated GEMV is the register tiling:
// several input rows advance together per weight row, so each weight
// element is loaded once per block of dot products and the independent
// accumulator chains hide floating-point add latency. On the SIMD tiers
// every width runs in stream blocks (eight per zmm, four per ymm); the
// streams left after the full blocks run through the narrowest block kernel
// that holds them, absent lanes zero-filled, so a ragged batch costs one
// padded pass rather than one scalar Dot per stream. The scalar tier keeps
// the Go four-stream register tile plus a Dot per leftover stream.
// Only the overwriting form exists: an accumulate-into-dst variant would
// need a different summation association (dst + full dot) that the chunked
// SIMD kernel cannot reproduce bitwise, so batched callers that need a sum
// of products (like the LSTM's Wx + Uh) compute separate products and
// combine them elementwise instead (see nn.StepBatchLogits).
func (m *Matrix) MulRowsT(dst []float64, xs [][]float64) {
	R, C := m.Rows, m.Cols
	if len(dst) != len(xs)*R {
		panic(fmt.Sprintf("mathx: gemm shape mismatch (%d rows of %d into %d)",
			len(xs), R, len(dst)))
	}
	if mulRowsSIMD(m, dst, xs) {
		return
	}
	n := C &^ 3
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		// Reslice to exactly C elements so the bounds-check eliminator can
		// prove every k+3 access below in bounds.
		x0, x1, x2, x3 := xs[i][:C], xs[i+1][:C], xs[i+2][:C], xs[i+3][:C]
		d0 := dst[i*R : (i+1)*R]
		d1 := dst[(i+1)*R : (i+2)*R]
		d2 := dst[(i+2)*R : (i+3)*R]
		d3 := dst[(i+3)*R : (i+4)*R]
		for j := 0; j < R; j++ {
			row := m.Data[j*C : (j+1)*C : (j+1)*C][:C]
			var s0, s1, s2, s3 float64
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
			d[j] = Dot(m.Data[j*C:(j+1)*C], x)
		}
	}
}

// AddOuter accumulates the outer product a*u*vᵀ into m:
// m[i,j] += a*u[i]*v[j]. Used for weight-gradient accumulation.
//
// Like MulVecT this is a pure sequential per-element chain (one rounded
// fl(a*u[i]) * v[j] added per call, no data-dependent skips), so a sequence
// of AddOuter calls has a well-defined association that AddOuterSeq can
// reproduce bitwise.
func (m *Matrix) AddOuter(a float64, u, v []float64) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: outer shape mismatch (%dx%d vs %dx%d)",
			m.Rows, m.Cols, len(u), len(v)))
	}
	for i, ui := range u {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		Axpy(row, a*ui, v)
	}
}

// Dot returns the inner product of a and b. Lengths must match.
func Dot(a, b []float64) float64 {
	var s float64
	// 4-way unroll: measurably faster for the LSTM hot loops.
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst += a*x elementwise.
func Axpy(dst []float64, a float64, x []float64) {
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

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Fill assigns v to every element of dst.
func Fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// ArgMax returns the index of the maximum element, or -1 for empty input.
func ArgMax(v []float64) int {
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

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// MinMax returns the minimum and maximum of v. It returns (0, 0) for empty
// input.
func MinMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
