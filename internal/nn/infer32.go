package nn

import (
	"fmt"
	"sync/atomic"

	"icsdetect/internal/mathx"
)

// InferModel32 is the frozen float32 inference snapshot of a Classifier:
// every weight converted f64→f32 once (a single elementwise rounding, the
// source model untouched), plus the f32 derived layouts the hot paths want
// — packed GEMV tiles at full f32 lane width and the transposed first-layer
// W the one-hot gather walks. The snapshot shares the f64 tier's structure
// step for step (fused bias epilogues, fused gate/cell update, batched
// GEMM with per-stream combine), so its f32 results are bitwise-identical
// across {scalar, avx2, avx512} and between the sequential and batched
// paths; only the rounding differs from the f64 reference, which the
// detection stack gates at the verdict level.
//
// Snapshots are cached on the Classifier behind an atomic pointer, built
// lazily by Infer32 and dropped by InvalidateInference alongside the f64
// inference caches.
type InferModel32 struct {
	layers []*inferLayer32
	out    *dense32
}

// lstmPacks32 is one layer's packed f32 inference weights.
type lstmPacks32 struct {
	w, u *mathx.PackedGEMV32
}

// inferLayer32 is the frozen f32 mirror of one LSTMLayer.
type inferLayer32 struct {
	inputSize  int
	hiddenSize int
	w, u       *mathx.Matrix32
	b          []float32
	wt         *mathx.Matrix32 // Wᵀ for the one-hot gather
	// wg/ug are the batched-path row-pair GEMM packings of w/u; unlike the
	// GEMV packs their layout is tier-independent, so they are built once at
	// snapshot time and never go stale.
	wg, ug *mathx.PackedGEMM32
	packs  atomic.Pointer[lstmPacks32]
}

// dense32 is the frozen f32 mirror of the Dense head.
type dense32 struct {
	inputSize  int
	outputSize int
	w          *mathx.Matrix32
	wg         *mathx.PackedGEMM32
	b          []float32
	pack       atomic.Pointer[mathx.PackedGEMV32]
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// newInferModel32 converts the classifier's weights. Deterministic: every
// element is one float64→float32 rounding, so repeated conversions of the
// same model are bitwise-identical, and the f64 model (and its
// fingerprint) is never mutated.
func newInferModel32(c *Classifier) *InferModel32 {
	m := &InferModel32{}
	for _, l := range c.Layers {
		il := &inferLayer32{
			inputSize:  l.InputSize,
			hiddenSize: l.HiddenSize,
			w:          mathx.ToMatrix32(l.W),
			u:          mathx.ToMatrix32(l.U),
			b:          toF32(l.B),
		}
		il.wt = il.w.Transpose()
		il.wg = mathx.PackGEMM32(il.w)
		il.ug = mathx.PackGEMM32(il.u)
		m.layers = append(m.layers, il)
	}
	m.out = &dense32{
		inputSize:  c.Out.InputSize,
		outputSize: c.Out.OutputSize,
		w:          mathx.ToMatrix32(c.Out.W),
		b:          toF32(c.Out.B),
	}
	m.out.wg = mathx.PackGEMM32(m.out.w)
	return m
}

// Infer32 returns the classifier's f32 inference snapshot, converting on
// first use. The snapshot is valid until the next InvalidateInference.
func (c *Classifier) Infer32() *InferModel32 {
	m := c.m32.Load()
	if m == nil {
		m = newInferModel32(c)
		c.m32.Store(m)
	}
	return m
}

// InputSize returns the expected input vector length.
func (m *InferModel32) InputSize() int { return m.layers[0].inputSize }

// Classes returns |S|, the logit width.
func (m *InferModel32) Classes() int { return m.out.outputSize }

// inferPacks returns the layer's packed f32 weights, building them on
// first use or after a kernel-tier change.
func (l *inferLayer32) inferPacks() *lstmPacks32 {
	p := l.packs.Load()
	if p == nil || p.w.Stale() {
		p = &lstmPacks32{w: mathx.PackGEMV32(l.w), u: mathx.PackGEMV32(l.u)}
		l.packs.Store(p)
	}
	return p
}

// inferPack returns the head's packed f32 weights.
func (d *dense32) inferPack() *mathx.PackedGEMV32 {
	p := d.pack.Load()
	if p == nil || p.Stale() {
		p = mathx.PackGEMV32(d.w)
		d.pack.Store(p)
	}
	return p
}

// forwardInfer computes logits = W·h + b with the bias add fused into the
// GEMV epilogue.
func (d *dense32) forwardInfer(dst, h []float32) {
	d.inferPack().Apply(dst, h, d.b, mathx.GemvSetBias)
}

// State32 is the f32 recurrent state of a streaming session running on an
// InferModel32 — the mirror of State.
type State32 struct {
	h, c [][]float32
	z    [][]float32
}

// NewState returns a zero f32 state for the snapshot.
func (m *InferModel32) NewState() *State32 {
	s := &State32{
		h: make([][]float32, len(m.layers)),
		c: make([][]float32, len(m.layers)),
		z: make([][]float32, len(m.layers)),
	}
	for i, l := range m.layers {
		s.h[i] = make([]float32, l.hiddenSize)
		s.c[i] = make([]float32, l.hiddenSize)
		s.z[i] = make([]float32, numGates*l.hiddenSize)
	}
	return s
}

// Reset zeroes the state in place (fragment boundaries).
func (s *State32) Reset() {
	for i := range s.h {
		mathx.Fill32(s.h[i], 0)
		mathx.Fill32(s.c[i], 0)
	}
}

// Clone deep-copies the state.
func (s *State32) Clone() *State32 {
	out := &State32{
		h: make([][]float32, len(s.h)),
		c: make([][]float32, len(s.c)),
		z: make([][]float32, len(s.z)),
	}
	for i := range s.h {
		out.h[i] = append([]float32(nil), s.h[i]...)
		out.c[i] = append([]float32(nil), s.c[i]...)
		out.z[i] = make([]float32, len(s.z[i]))
	}
	return out
}

// gatesCellUpdate is the f32 fused gate epilogue: the exact structure of
// the f64 gatesCellUpdate over the f32 activation kernels.
func (l *inferLayer32) gatesCellUpdate(z, h, c []float32) {
	H := l.hiddenSize
	mathx.VSigmoid32(z[:3*H], z[:3*H])
	mathx.VTanh32(z[3*H:4*H], z[3*H:4*H])
	zi := z[gateI*H : gateI*H+H]
	zf := z[gateF*H : gateF*H+H]
	zo := z[gateO*H : gateO*H+H]
	zg := z[gateG*H : gateG*H+H]
	for j := 0; j < H; j++ {
		c[j] = zf[j]*c[j] + zi[j]*zg[j]
	}
	// The i-gate block is consumed, so it doubles as the tanh(c) scratch.
	mathx.VTanh32(zi, c[:H])
	for j := 0; j < H; j++ {
		h[j] = zo[j] * zi[j]
	}
}

// combineGatesCellUpdate fuses the batched epilogue: (wx + uh) + b in the
// f64 path's exact operand order (VCombine32 is elementwise, so its SIMD
// path preserves that order bitwise), then the gate/cell update.
func (l *inferLayer32) combineGatesCellUpdate(row, urow, h, c []float32) {
	mathx.VCombine32(row, urow, l.b)
	l.gatesCellUpdate(row, h, c)
}

// stepInfer advances one timestep on the packed f32 weights.
func (l *inferLayer32) stepInfer(z, x, h, c []float32) {
	p := l.inferPacks()
	p.w.Apply(z, x, nil, mathx.GemvSet)
	p.u.Apply(z, h, l.b, mathx.GemvAddBias)
	l.gatesCellUpdate(z, h, c)
}

// stepInferOneHot is stepInfer for a one-hot input given as its active
// column indices (strictly ascending).
func (l *inferLayer32) stepInferOneHot(z []float32, idx []int, h, c []float32) {
	mathx.OneHotGather32(z, l.wt, idx)
	l.inferPacks().u.Apply(z, h, l.b, mathx.GemvAddBias)
	l.gatesCellUpdate(z, h, c)
}

// StepLogits advances the recurrent state with dense input x and writes
// the raw f32 logit vector into scores — the f32 mirror of
// Classifier.StepLogits.
func (m *InferModel32) StepLogits(state *State32, x, scores []float32) {
	cur := x
	for i, l := range m.layers {
		l.stepInfer(state.z[i], cur, state.h[i], state.c[i])
		cur = state.h[i]
	}
	m.out.forwardInfer(scores, cur)
}

// StepLogitsOneHot is StepLogits with the first layer's input given as
// one-hot active-column indices — the f32 streaming hot path.
func (m *InferModel32) StepLogitsOneHot(state *State32, idx []int, scores []float32) {
	m.layers[0].stepInferOneHot(state.z[0], idx, state.h[0], state.c[0])
	cur := state.h[0]
	for i := 1; i < len(m.layers); i++ {
		l := m.layers[i]
		l.stepInfer(state.z[i], cur, state.h[i], state.c[i])
		cur = state.h[i]
	}
	m.out.forwardInfer(scores, cur)
}

// BatchBuffer32 is the reusable f32 scratch for the batched paths — the
// mirror of BatchBuffer, usable only with the snapshot that allocated it.
type BatchBuffer32 struct {
	maxBatch int
	z, zu    [][]float32
	logits   []float32
	xs       [][]float32
}

// NewBatchBuffer allocates f32 scratch for batches of up to maxBatch
// streams.
func (m *InferModel32) NewBatchBuffer(maxBatch int) *BatchBuffer32 {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &BatchBuffer32{
		maxBatch: maxBatch,
		z:        make([][]float32, len(m.layers)),
		zu:       make([][]float32, len(m.layers)),
		logits:   make([]float32, maxBatch*m.out.outputSize),
		xs:       make([][]float32, maxBatch),
	}
	for i, l := range m.layers {
		b.z[i] = make([]float32, maxBatch*numGates*l.hiddenSize)
		b.zu[i] = make([]float32, maxBatch*numGates*l.hiddenSize)
	}
	return b
}

// MaxBatch returns the batch width the buffer was sized for.
func (b *BatchBuffer32) MaxBatch() int { return b.maxBatch }

// StepBatchLogits advances n = len(states) independent f32 states through
// one batched forward pass, writing each stream's raw logit vector into
// scores[i]. Bitwise-identical to calling StepLogits once per stream, by
// the same association contract as the f64 batched path.
func (m *InferModel32) StepBatchLogits(buf *BatchBuffer32, states []*State32, inputs [][]float32, scores [][]float32) {
	n := len(states)
	if n == 0 {
		return
	}
	if len(inputs) != n || len(scores) != n {
		panic(fmt.Sprintf("nn: f32 batch size mismatch (states=%d inputs=%d scores=%d)",
			n, len(inputs), len(scores)))
	}
	if n > buf.maxBatch {
		panic(fmt.Sprintf("nn: f32 batch of %d exceeds buffer capacity %d", n, buf.maxBatch))
	}
	xs := buf.xs[:n]
	copy(xs, inputs)
	m.stepBatchLayers(buf, states, n, 0)
	m.stepBatchHead(buf, scores, n)
}

// StepBatchLogitsOneHot is StepBatchLogits with the first layer's inputs
// given as one-hot active-column index sets — the batched f32 engine hot
// path. Like the f64 path, a batch of one runs the sequential packed-GEMV
// step, which is bitwise-equal.
func (m *InferModel32) StepBatchLogitsOneHot(buf *BatchBuffer32, states []*State32, idxs [][]int, scores [][]float32) {
	n := len(states)
	if n == 0 {
		return
	}
	if len(idxs) != n || len(scores) != n {
		panic(fmt.Sprintf("nn: f32 batch size mismatch (states=%d inputs=%d scores=%d)",
			n, len(idxs), len(scores)))
	}
	if n > buf.maxBatch {
		panic(fmt.Sprintf("nn: f32 batch of %d exceeds buffer capacity %d", n, buf.maxBatch))
	}
	if n == 1 {
		m.StepLogitsOneHot(states[0], idxs[0], scores[0])
		return
	}
	l0 := m.layers[0]
	H := l0.hiddenSize
	z := buf.z[0][:n*numGates*H]
	for i := 0; i < n; i++ {
		mathx.OneHotGather32(z[i*numGates*H:(i+1)*numGates*H], l0.wt, idxs[i])
		buf.xs[i] = states[i].h[0]
	}
	zu := buf.zu[0][:n*numGates*H]
	l0.ug.MulRowsT(zu, buf.xs[:n])
	for i := 0; i < n; i++ {
		row := z[i*numGates*H : (i+1)*numGates*H]
		urow := zu[i*numGates*H : (i+1)*numGates*H]
		l0.combineGatesCellUpdate(row, urow, states[i].h[0], states[i].c[0])
		buf.xs[i] = states[i].h[0]
	}
	m.stepBatchLayers(buf, states, n, 1)
	m.stepBatchHead(buf, scores, n)
}

// stepBatchLayers advances layers [from, len) for a batch of n streams.
func (m *InferModel32) stepBatchLayers(buf *BatchBuffer32, states []*State32, n, from int) {
	for li := from; li < len(m.layers); li++ {
		l := m.layers[li]
		H := l.hiddenSize
		z := buf.z[li][:n*numGates*H]
		zu := buf.zu[li][:n*numGates*H]
		l.wg.MulRowsT(z, buf.xs[:n])
		for i := 0; i < n; i++ {
			buf.xs[i] = states[i].h[li]
		}
		l.ug.MulRowsT(zu, buf.xs[:n])
		for i := 0; i < n; i++ {
			row := z[i*numGates*H : (i+1)*numGates*H]
			urow := zu[i*numGates*H : (i+1)*numGates*H]
			l.combineGatesCellUpdate(row, urow, states[i].h[li], states[i].c[li])
			buf.xs[i] = states[i].h[li]
		}
	}
}

// stepBatchHead runs the batched f32 dense head.
func (m *InferModel32) stepBatchHead(buf *BatchBuffer32, scores [][]float32, n int) {
	K := m.out.outputSize
	logits := buf.logits[:n*K]
	m.out.wg.MulRowsT(logits, buf.xs[:n])
	for i := 0; i < n; i++ {
		row := logits[i*K : (i+1)*K]
		for j := range row {
			row[j] += m.out.b[j]
		}
		copy(scores[i], row)
	}
}
