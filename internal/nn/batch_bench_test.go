package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchSetup(b *testing.B) (*Classifier, *BatchBuffer, []*State, [][]float64, [][]int, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	c, err := NewClassifier(138, []int{32, 32}, 49, 11)
	if err != nil {
		b.Fatal(err)
	}
	const n = 8
	buf := c.NewBatchBuffer(n)
	states := make([]*State, n)
	dense := make([][]float64, n)
	idxs := make([][]int, n)
	scores := make([][]float64, n)
	for i := range states {
		states[i] = c.NewState()
		dense[i] = make([]float64, 138)
		for f := 0; f < 13; f++ {
			col := f*10 + rng.Intn(10)
			dense[i][col] = 1
			idxs[i] = append(idxs[i], col)
		}
		scores[i] = make([]float64, 49)
	}
	return c, buf, states, dense, idxs, scores
}

func BenchmarkStepBatchDense(b *testing.B) {
	c, buf, states, dense, _, scores := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StepBatchLogits(buf, states, dense, scores)
	}
}

func BenchmarkStepBatchOneHot(b *testing.B) {
	c, buf, states, _, idxs, scores := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StepBatchLogitsOneHot(buf, states, idxs, scores)
	}
}

func BenchmarkStepSeqOneHot(b *testing.B) {
	c, _, states, _, idxs, scores := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.StepLogitsOneHot(states[i%8], idxs[i%8], scores[i%8])
	}
}

// BenchmarkStepBatchWidth times one batched one-hot step across the
// micro-batch widths the engine flushes, on the paper's model (51→32→32→96)
// and the fleet's (51→256→256→96), at both precisions. ns/stream divides
// the step by the width, so the rows show what a ragged width costs per
// package against the full SIMD blocks around it.
func BenchmarkStepBatchWidth(b *testing.B) {
	const in, classes = 51, 96
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33, 60, 63, 64}
	for _, hidden := range []int{32, 256} {
		c, err := NewClassifier(in, []int{hidden, hidden}, classes, 7)
		if err != nil {
			b.Fatal(err)
		}
		m32 := c.Infer32()
		rng := rand.New(rand.NewSource(7))
		maxW := widths[len(widths)-1]
		idxs := make([][]int, maxW)
		for i := range idxs {
			for col := 0; col < in; col++ {
				if rng.Intn(6) == 0 {
					idxs[i] = append(idxs[i], col)
				}
			}
		}
		for _, w := range widths {
			b.Run(fmt.Sprintf("h%d/f64/w%d", hidden, w), func(b *testing.B) {
				buf := c.NewBatchBuffer(w)
				states := make([]*State, w)
				scores := make([][]float64, w)
				for i := range states {
					states[i], scores[i] = c.NewState(), make([]float64, classes)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.StepBatchLogitsOneHot(buf, states, idxs[:w], scores)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w), "ns/stream")
			})
			b.Run(fmt.Sprintf("h%d/f32/w%d", hidden, w), func(b *testing.B) {
				buf := m32.NewBatchBuffer(w)
				states := make([]*State32, w)
				scores := make([][]float32, w)
				for i := range states {
					states[i], scores[i] = m32.NewState(), make([]float32, classes)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m32.StepBatchLogitsOneHot(buf, states, idxs[:w], scores)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w), "ns/stream")
			})
		}
	}
}
