package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
	"icsdetect/internal/trace"
)

// layerPackages caps the packages the isolated per-layer calls run over.
const layerPackages = 20000

// layerReps is how many timed passes each isolated call gets; the figure
// is their median.
const layerReps = 5

// isolated times the public calls of each module on a workload's packages,
// from outside the program, and records them as per-layer metrics and
// spans. fw and spec are the workload's model and stack.
type isolated struct {
	rep   *report
	spans *spanLog
	fw    *core.Framework
	spec  core.StackSpec
	pkgs  []*dataset.Package
}

// timePasses runs pass layerReps times and returns the median ns per item.
func (iso *isolated) timePasses(name string, items int, pass func()) float64 {
	ns := make([]float64, layerReps)
	start := iso.spans.clock()
	for i := range ns {
		t0 := time.Now()
		pass()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(items)
	}
	iso.spans.add(name, -1, start, iso.spans.clock(), "", items*layerReps)
	return median(ns)
}

// decode times the serve plane's record decode: trace.Reader.NextInto and
// trace.Decoder.Decode over the generated wire bytes.
func (iso *isolated) decode(t *traffic) error {
	n := min(len(t.offs)-1, layerPackages)
	var head bytes.Buffer
	tw, err := trace.NewWriter(&head, t.header)
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		return err
	}
	stream := append(head.Bytes(), t.records(0, n)...)
	var failed error
	ns := iso.timePasses("layer.trace.decode", n, func() {
		tr, err := trace.NewReader(bytes.NewReader(stream))
		if err != nil {
			failed = err
			return
		}
		dec := trace.NewDecoder(tr.Header())
		var rec trace.Record
		var buf []byte
		for {
			if buf, err = tr.NextInto(&rec, buf); err != nil {
				if err != io.EOF {
					failed = err
				}
				return
			}
			if _, err := dec.Decode(&rec); err != nil {
				failed = err
				return
			}
		}
	})
	iso.rep.set("trace.decode_ns_per_rec", ns, "ns", n, "reader plus decoder, isolated")
	return failed
}

// encode times the signature layer: discretize, spell and intern.
func (iso *isolated) encode() {
	enc, db := iso.fw.Encoder, iso.fw.DB
	c := make([]int, enc.Dim())
	var sig []byte
	ns := iso.timePasses("layer.signature.encode", len(iso.pkgs), func() {
		var prev *dataset.Package
		for _, p := range iso.pkgs {
			enc.EncodeInto(c, prev, p)
			sig = signature.AppendSignature(sig[:0], c)
			db.Intern(sig)
			prev = p
		}
	})
	iso.rep.set("signature.encode_ns_per_pkg", ns, "ns", len(iso.pkgs), "EncodeInto + AppendSignature + Intern, isolated")
}

// stageTimer accumulates one stage's wall time per phase and counts the
// timed calls.
type stageTimer struct {
	check, advance time.Duration
	calls          int
}

// timedStage wraps a stage in a stageTimer. A sequential session drives
// Check and Advance directly.
type timedStage struct {
	core.StageDetector
	t *stageTimer
}

func (s timedStage) Check(st core.StageState, pc *core.PackageContext, r *core.StageResult) {
	start := time.Now()
	s.StageDetector.Check(st, pc, r)
	s.t.check += time.Since(start)
	s.t.calls++
}

func (s timedStage) Advance(st core.StageState, pc *core.PackageContext, v *core.Verdict) {
	start := time.Now()
	s.StageDetector.Advance(st, pc, v)
	s.t.advance += time.Since(start)
	s.t.calls++
}

// clockCost is the wall time one timedStage wrapper adds around its inner
// call: two clock reads and the bookkeeping, measured in a tight loop.
func clockCost() float64 {
	var t stageTimer
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		t.check += time.Since(s)
		t.calls++
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// coreTolerance bounds the core layer-sum check: stage times plus
// core.self_ns_per_pkg, both from the stage-wrapped session, against
// core.classify_ns_per_pkg from the plain session. The two sessions are
// separate passes, so the gap holds pass-to-pass noise and whatever the
// wrappers cost beyond their calibrated clock reads.
const coreTolerance = 0.2

// classify times sequential sessions over the packages: plain passes give
// core.classify_ns_per_pkg, passes with every stage wrapped in a timer
// give the stage times and core.self_ns_per_pkg (the wrapped pass minus
// its stage times and minus the wrappers' calibrated clock cost). Plain
// and wrapped passes alternate so a slow stretch of the machine hits both.
func (iso *isolated) classify(stages []string) error {
	stack, err := iso.fw.NewStack(iso.spec)
	if err != nil {
		return err
	}
	inner := stack.Stages()
	timers := make([]stageTimer, len(inner))
	wrapped := make([]core.StageDetector, len(inner))
	for i, st := range inner {
		wrapped[i] = timedStage{StageDetector: st, t: &timers[i]}
	}
	cost := clockCost()
	tstack, err := core.NewStackFromStages(iso.fw, iso.spec, wrapped)
	if err != nil {
		return err
	}
	n := float64(len(iso.pkgs))
	levels := make(map[core.Level]int)
	var plain, self []float64
	stageNs := make([][2][]float64, len(inner))
	start := iso.spans.clock()
	for rep := 0; rep < layerReps; rep++ {
		sess := stack.NewSession()
		t0 := time.Now()
		for _, p := range iso.pkgs {
			v := sess.Classify(p)
			if rep == 0 {
				levels[v.Level]++
			}
		}
		plain = append(plain, float64(time.Since(t0).Nanoseconds())/n)

		for i := range timers {
			timers[i] = stageTimer{}
		}
		sess = tstack.NewSession()
		t0 = time.Now()
		for _, p := range iso.pkgs {
			sess.Classify(p)
		}
		total := float64(time.Since(t0).Nanoseconds()) / n
		for i, t := range timers {
			c, a := float64(t.check.Nanoseconds())/n, float64(t.advance.Nanoseconds())/n
			stageNs[i][0] = append(stageNs[i][0], c)
			stageNs[i][1] = append(stageNs[i][1], a)
			total -= c + a + float64(t.calls)*cost/n
		}
		self = append(self, total)
	}
	iso.spans.add("layer.core.classify", -1, start, iso.spans.clock(), "", 2*layerReps*len(iso.pkgs))

	classify := median(plain)
	iso.rep.set("core.classify_ns_per_pkg", classify, "ns", len(iso.pkgs), "sequential session, isolated")
	iso.rep.set("core.self_ns_per_pkg", median(self), "ns", len(iso.pkgs),
		fmt.Sprintf("wrapped classify minus stage times and %.0f ns of clock per timed call: encode and fusion", cost))
	sum := median(self)
	byName := map[string]int{}
	for i, st := range inner {
		byName[st.Name()] = i
	}
	for _, name := range stages {
		c, a := 0.0, 0.0
		if i, ok := byName[name]; ok {
			c, a = median(stageNs[i][0]), median(stageNs[i][1])
		}
		sum += c + a
		iso.rep.set("stage."+name+".check_ns_per_pkg", c, "ns", len(iso.pkgs), "")
		iso.rep.set("stage."+name+".advance_ns_per_pkg", a, "ns", len(iso.pkgs), "")
	}
	gap := math.Abs(sum-classify) / classify
	iso.rep.printf("layer-sum check (core): stages + self = %.1f ns, classify = %.1f ns, gap %.1f %% (tolerance %.0f %%)",
		sum, classify, 100*gap, 100*coreTolerance)
	if gap > coreTolerance {
		iso.rep.fail("core layer sum is off by %.1f %%", 100*gap)
	}

	// Useful-work ratio: the share of packages decided at each level.
	iso.rep.set("core.level_share.clean", float64(levels[core.LevelNone])/n, "share", len(iso.pkgs), "")
	for _, name := range stages {
		share := 0.0
		if i, ok := byName[name]; ok {
			share = float64(levels[inner[i].Level()]) / n
		}
		iso.rep.set("core.level_share."+name, share, "share", len(iso.pkgs), "")
	}
	return nil
}

// sparseInputs returns the one-hot step inputs (active column indices) of
// the packages, as the LSTM stage builds them.
func (iso *isolated) sparseInputs(count int) [][]int {
	enc := iso.fw.Encoder
	c := make([]int, enc.Dim())
	out := make([][]int, 0, count)
	var prev *dataset.Package
	for _, p := range iso.pkgs[:min(count, len(iso.pkgs))] {
		enc.EncodeInto(c, prev, p)
		out = append(out, iso.fw.Input.EncodeSparse(nil, c, false))
		prev = p
	}
	return out
}

// step times one width-1 LSTM step at f64 (the replay workloads' shape).
func (iso *isolated) step(name string) {
	m := iso.fw.Series.Model
	idxs := iso.sparseInputs(len(iso.pkgs))
	scores := make([]float64, m.Classes())
	ns := iso.timePasses("layer."+name, len(idxs), func() {
		st := m.NewState()
		for _, idx := range idxs {
			m.StepLogitsOneHot(st, idx, scores)
		}
	})
	iso.rep.set(name, ns, "ns", len(idxs), "StepLogitsOneHot, isolated")
}

// stepBatch times one batched step of width w at f64 and at f32 (the
// fleet's shape), in ns per batched call.
func (iso *isolated) stepBatch(w int, f64Name, f32Name string) {
	m := iso.fw.Series.Model
	const steps = 64
	idxs := iso.sparseInputs(w * steps)
	m32 := m.Infer32()
	buf, buf32 := m.NewBatchBuffer(w), m32.NewBatchBuffer(w)
	states, states32 := make([]*nn.State, w), make([]*nn.State32, w)
	scores, scores32 := make([][]float64, w), make([][]float32, w)
	for i := 0; i < w; i++ {
		states[i], states32[i] = m.NewState(), m32.NewState()
		scores[i], scores32[i] = make([]float64, m.Classes()), make([]float32, m.Classes())
	}
	ns := iso.timePasses("layer."+f64Name, steps, func() {
		for s := 0; s < steps; s++ {
			m.StepBatchLogitsOneHot(buf, states, idxs[s*w:(s+1)*w], scores)
		}
	})
	iso.rep.set(f64Name, ns, "ns", steps, fmt.Sprintf("StepBatchLogitsOneHot at width %d, isolated", w))
	ns = iso.timePasses("layer."+f32Name, steps, func() {
		for s := 0; s < steps; s++ {
			m32.StepBatchLogitsOneHot(buf32, states32, idxs[s*w:(s+1)*w], scores32)
		}
	})
	iso.rep.set(f32Name, ns, "ns", steps, fmt.Sprintf("InferModel32.StepBatchLogitsOneHot at width %d, isolated", w))
}

// stepCost returns the arithmetic of one LSTM step and the bytes of
// weights and of recurrent state it reads or writes, computed from the
// tensor sizes at element size esz, for a one-hot input with active
// columns per step.
func stepCost(m *nn.Classifier, active, esz float64) (flops, weights, state float64) {
	for i, l := range m.Layers {
		h, in := float64(l.HiddenSize), float64(l.InputSize)
		if i == 0 {
			// The one-hot input gathers `active` columns of W.
			flops += 4 * h * active
			weights += 4 * h * active * esz
		} else {
			flops += 2 * 4 * h * in
			weights += 4 * h * in * esz
		}
		flops += 2*4*h*h + 4*h + 6*h // recurrent GEMV, bias, cell and hidden update
		weights += (4*h*h + 4*h) * esz
		state += 4 * h * esz // h and c, read and written
	}
	k, h := float64(m.Out.OutputSize), float64(m.Out.InputSize)
	flops += 2*k*h + k
	weights += (k*h + k) * esz
	return flops, weights, state
}

// mathx reports the LSTM step's arithmetic and memory traffic per
// package. f32 is the share of packages stepped at f32; width is the mean
// number of streams per batched step, which share one read of the weights.
func (iso *isolated) mathx(f32, width float64) {
	idxs := iso.sparseInputs(1000)
	active := 0.0
	for _, idx := range idxs {
		active += float64(len(idx))
	}
	active /= float64(len(idxs))
	m := iso.fw.Series.Model
	fl, w64, s64 := stepCost(m, active, 8)
	_, w32, s32 := stepCost(m, active, 4)
	bytes := (1-f32)*(w64/width+s64) + f32*(w32/width+s32)
	note := fmt.Sprintf("computed from tensor sizes: one LSTM step per package, weights read once per step of %.1f streams", width)
	iso.rep.set("mathx.flops_per_pkg", fl, "flop", 0, note)
	iso.rep.set("mathx.bytes_per_pkg", bytes, "B", 0, note)
}
