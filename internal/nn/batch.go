package nn

import (
	"fmt"

	"icsdetect/internal/mathx"
)

// BatchBuffer is the reusable scratch memory for StepBatch: per-layer gate
// buffers and the batched logits, sized once for a maximum batch width.
// Owning one buffer per worker goroutine removes every per-step allocation
// from the batched inference path; a buffer must not be shared between
// concurrent StepBatch calls.
type BatchBuffer struct {
	maxBatch int
	// z[l] holds the concatenated 4H gate pre-activations of layer l for the
	// whole batch, row-major with stride 4H (one row per stream); zu[l] is
	// the recurrent U·h product, combined into z elementwise so both
	// products can use the overwriting GEMM kernel.
	z, zu [][]float64
	// logits holds the batched dense-head outputs, stride Classes().
	logits []float64
	// xs collects the per-stream input slices handed to the GEMM kernels.
	xs [][]float64
}

// NewBatchBuffer allocates scratch for batches of up to maxBatch streams.
func (c *Classifier) NewBatchBuffer(maxBatch int) *BatchBuffer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &BatchBuffer{
		maxBatch: maxBatch,
		z:        make([][]float64, len(c.Layers)),
		zu:       make([][]float64, len(c.Layers)),
		logits:   make([]float64, maxBatch*c.Out.OutputSize),
		xs:       make([][]float64, maxBatch),
	}
	for i, l := range c.Layers {
		b.z[i] = make([]float64, maxBatch*numGates*l.HiddenSize)
		b.zu[i] = make([]float64, maxBatch*numGates*l.HiddenSize)
	}
	return b
}

// MaxBatch returns the batch width the buffer was sized for.
func (b *BatchBuffer) MaxBatch() int { return b.maxBatch }

// StepBatch advances n = len(states) independent recurrent states through
// one batched forward pass and writes each stream's class probability
// vector into probs[i] (len = Classes()). inputs[i] is stream i's input
// vector; states are updated in place. It is the batched equivalent of
// calling Step once per stream, and by construction produces bitwise
// identical hidden states and probabilities: every output element is the
// same mathx.Dot in the same order, only the loop nesting changes so that
// each weight row is streamed from memory once per batch instead of once
// per stream (one matrix-matrix pass per layer instead of n matrix-vector
// passes).
//
// buf must come from NewBatchBuffer on this classifier with
// MaxBatch() >= n, and must not be used concurrently.
func (c *Classifier) StepBatch(buf *BatchBuffer, states []*State, inputs [][]float64, probs [][]float64) {
	c.StepBatchLogits(buf, states, inputs, probs)
	for i := range probs {
		mathx.Softmax(probs[i], probs[i])
	}
}

// StepBatchLogits is StepBatch without the final softmax: scores[i]
// receives stream i's raw logit vector. Softmax is strictly monotone and
// shared across one prediction, so top-k ranks computed over logits equal
// ranks over probabilities; hot inference paths that only need ranks use
// this variant to skip Classes() exponentials per stream per step.
func (c *Classifier) StepBatchLogits(buf *BatchBuffer, states []*State, inputs [][]float64, scores [][]float64) {
	n := len(states)
	if n == 0 {
		return
	}
	if len(inputs) != n || len(scores) != n {
		panic(fmt.Sprintf("nn: batch size mismatch (states=%d inputs=%d scores=%d)",
			n, len(inputs), len(scores)))
	}
	if n > buf.maxBatch {
		panic(fmt.Sprintf("nn: batch of %d exceeds buffer capacity %d", n, buf.maxBatch))
	}

	xs := buf.xs[:n]
	copy(xs, inputs)
	c.stepBatchLayers(buf, states, n, 0)
	c.stepBatchHead(buf, scores, n)
}

// StepBatchLogitsOneHot is StepBatchLogits with the first layer's inputs
// given as one-hot active-column index sets instead of dense vectors — the
// batched engine's per-package hot path. The W GEMM of layer 0 becomes one
// column gather per stream (a handful of contiguous vector adds each); the
// recurrent product, combine and gate epilogue are the shared batched code,
// so the verdicts stay bitwise-identical to the dense batched pass and to
// the sequential StepLogitsOneHot. A batch of one is that sequential step:
// with no second stream to share a weight load, the packed GEMV (vectorized
// across output rows) beats a GEMM block with one real lane.
func (c *Classifier) StepBatchLogitsOneHot(buf *BatchBuffer, states []*State, idxs [][]int, scores [][]float64) {
	n := len(states)
	if n == 0 {
		return
	}
	if len(idxs) != n || len(scores) != n {
		panic(fmt.Sprintf("nn: batch size mismatch (states=%d inputs=%d scores=%d)",
			n, len(idxs), len(scores)))
	}
	if n > buf.maxBatch {
		panic(fmt.Sprintf("nn: batch of %d exceeds buffer capacity %d", n, buf.maxBatch))
	}
	if n == 1 {
		c.StepLogitsOneHot(states[0], idxs[0], scores[0])
		return
	}

	l0 := c.Layers[0]
	H := l0.HiddenSize
	z := buf.z[0][:n*numGates*H]
	wt := l0.wtrans()
	for i := 0; i < n; i++ {
		mathx.OneHotGather(z[i*numGates*H:(i+1)*numGates*H], wt, idxs[i])
		buf.xs[i] = states[i].h[0]
	}
	zu := buf.zu[0][:n*numGates*H]
	l0.U.MulRowsT(zu, buf.xs[:n])
	for i := 0; i < n; i++ {
		row := z[i*numGates*H : (i+1)*numGates*H]
		urow := zu[i*numGates*H : (i+1)*numGates*H]
		l0.combineGatesCellUpdate(row, urow, states[i].h[0], states[i].c[0])
		buf.xs[i] = states[i].h[0]
	}
	c.stepBatchLayers(buf, states, n, 1)
	c.stepBatchHead(buf, scores, n)
}

// stepBatchLayers advances layers [from, len) for a batch of n streams.
// buf.xs must hold each stream's input to layer `from`; on return it holds
// the top layer's fresh hidden vectors.
func (c *Classifier) stepBatchLayers(buf *BatchBuffer, states []*State, n, from int) {
	for li := from; li < len(c.Layers); li++ {
		l := c.Layers[li]
		H := l.HiddenSize
		z := buf.z[li][:n*numGates*H]
		zu := buf.zu[li][:n*numGates*H]

		// Gate pre-activations for the whole batch: z = X·Wᵀ + H_prev·Uᵀ + B.
		// The two products run as separate overwriting GEMMs and combine
		// elementwise in Step's exact order (Wx, then +Uh, then +B), so the
		// SIMD kernel applies to both and the sums stay bitwise identical.
		l.W.MulRowsT(z, buf.xs[:n])
		for i := 0; i < n; i++ {
			buf.xs[i] = states[i].h[li]
		}
		l.U.MulRowsT(zu, buf.xs[:n])

		// Combine, activations and cell update, in place on each stream's
		// state. The pre-activations for the whole layer are complete, so
		// overwriting h/c here cannot feed back into this layer's gates.
		for i := 0; i < n; i++ {
			row := z[i*numGates*H : (i+1)*numGates*H]
			urow := zu[i*numGates*H : (i+1)*numGates*H]
			l.combineGatesCellUpdate(row, urow, states[i].h[li], states[i].c[li])
			// The next layer reads this layer's fresh hidden vector.
			buf.xs[i] = states[i].h[li]
		}
	}
}

// combineGatesCellUpdate fuses the batched epilogue into one pass per
// stream: combine the two GEMM products with the bias ((wx + uh) + b, the
// exact order of the unfused loops), activate the four gates and update
// c/h — without a second traversal of the 4H pre-activation rows and
// without writing activated gates back. Per element the operation chain is
// identical to the unfused form, so the fusion is bitwise-free.
func (l *LSTMLayer) combineGatesCellUpdate(row, urow, h, c []float64) {
	for j := range row {
		row[j] = (row[j] + urow[j]) + l.B[j]
	}
	l.gatesCellUpdate(row, h, c)
}

// stepBatchHead runs the batched dense head: logits = H_top·Wᵀ + B, reading
// the top hidden vectors from buf.xs.
func (c *Classifier) stepBatchHead(buf *BatchBuffer, scores [][]float64, n int) {
	K := c.Out.OutputSize
	logits := buf.logits[:n*K]
	c.Out.W.MulRowsT(logits, buf.xs[:n])
	for i := 0; i < n; i++ {
		row := logits[i*K : (i+1)*K]
		for j := range row {
			row[j] += c.Out.B[j]
		}
		copy(scores[i], row)
	}
}
