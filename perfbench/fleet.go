package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/nn"
)

// Fleet shape: 256 PLC streams, each polled fleetCycles times; half the
// streams run at f32 and half at f64. The LSTM is the paper-scale 2×256.
const (
	fleetStreams = 256
	fleetCycles  = 128
)

var fleetHidden = []int{256, 256}

// fleetBench runs the engine-only fleet workload: one goroutine submits
// each poll cycle of the fleet (one package per stream) through
// engine.SubmitBatchFor, the path icsdetect.NewEngine and icsmonitor use.
// No socket is involved.
type fleetBench struct {
	w      workload
	seed   uint64
	secs   float64
	traced bool
	rep    *report
	clock  func() int64

	spec  core.StackSpec
	fw    *core.Framework
	eng   *engine.Engine
	pkgs  [][]*dataset.Package // per stream
	ref   []uint64             // index cycle*fleetStreams + stream
	cur   atomic.Pointer[phase]
	index map[string]int // stream name -> stream number, of cur
	stray atomic.Int64

	nextID   int
	submitNs int64 // time inside SubmitBatchFor (traced)
	submits  []sendSpan
}

// fleetModel is the committed signature substrate around a freshly
// initialised 2×256 LSTM, seeded from the input seed.
func fleetModel(seed uint64) (*core.Framework, error) {
	base, err := loadModel()
	if err != nil {
		return nil, err
	}
	model, err := nn.NewClassifier(base.Input.Dim, fleetHidden, base.DB.Size(), seed)
	if err != nil {
		return nil, err
	}
	return &core.Framework{
		Encoder: base.Encoder,
		DB:      base.DB,
		Package: base.Package,
		Series:  &core.TimeSeriesDetector{Model: model, K: base.Series.K},
		Input:   base.Input,
	}, nil
}

// precisionOf is stream s's numeric tier: odd streams run at f32.
func precisionOf(s int) core.Precision {
	if s%2 == 1 {
		return core.PrecisionF32
	}
	return core.PrecisionF64
}

// handle is the engine Handler: stamp, check and count each verdict.
func (b *fleetBench) handle(r engine.Result) {
	now := b.clock()
	ph := b.cur.Load()
	if ph == nil {
		b.stray.Add(1)
		return
	}
	s, ok := b.index[r.Stream]
	i := int(r.Seq)*fleetStreams + s
	if !ok || i >= ph.n {
		b.stray.Add(1)
		return
	}
	var scratch [256]byte
	h, _ := verdictHash(scratch[:0], r.Verdict)
	ph.deliver(i, now, h)
}

// setup loads the model, builds the engine and waits for the first
// verdict.
func (b *fleetBench) setup() (*engine.Engine, *core.Framework, time.Duration, error) {
	start := time.Now()
	fw, err := fleetModel(b.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	// The setup stream carries exactly one package.
	done := make(chan struct{})
	eng, err := engine.New(fw, engine.Config{Stack: b.spec}, func(r engine.Result) {
		if r.Stream == "setup" {
			close(done)
			return
		}
		b.handle(r)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := eng.SubmitBatchFor(fw, "setup", b.pkgs[0][:1]); err != nil {
		eng.Stop()
		return nil, nil, 0, err
	}
	<-done
	return eng, fw, time.Since(start), nil
}

// fleetLink offers packages as poll cycles: package i is cycle i/256 of
// stream i%256, submitted alone so the engine batches across streams.
type fleetLink struct{ b *fleetBench }

func (l fleetLink) open(ph *phase) error {
	b := l.b
	b.index = make(map[string]int, fleetStreams)
	for s, name := range ph.streams {
		b.index[name] = s
		if err := b.eng.BindPrecision(name, precisionOf(s)); err != nil {
			return err
		}
	}
	b.cur.Store(ph)
	return nil
}

func (l fleetLink) send(ph *phase, from, to int) error {
	b := l.b
	for i := from; i < to; i++ {
		s, c := i%fleetStreams, i/fleetStreams
		var t0 int64
		if ph.traced {
			t0 = b.clock()
		}
		if err := b.eng.SubmitBatchFor(b.fw, ph.streams[s], b.pkgs[s][c:c+1]); err != nil {
			return err
		}
		if ph.traced {
			t1 := b.clock()
			b.submitNs += t1 - t0
			b.submits = append(b.submits, sendSpan{start: t0, end: t1, first: i, n: 1})
		}
	}
	return nil
}

// close releases the phase's streams; Release waits for each stream's
// queued packages, so the engine holds no state of the phase afterwards.
func (l fleetLink) close(ph *phase) error {
	for _, name := range ph.streams {
		if err := l.b.eng.Release(name); err != nil {
			return err
		}
	}
	return nil
}

// runPhase drives one phase on 256 fresh streams.
func (b *fleetBench) runPhase(name string, rate, share float64, traced bool, sample func()) (*phase, phaseResult, error) {
	b.nextID++
	dur := time.Duration(share * b.secs * float64(time.Second))
	n := len(b.ref)
	if rate > 0 {
		n = min(n, int(rate*dur.Seconds())/fleetStreams*fleetStreams)
	}
	streams := make([]string, fleetStreams)
	for s := range streams {
		streams[s] = fmt.Sprintf("f%02d-%s-%03d", b.nextID, name, s)
	}
	ph := newPhase(name, streams, rate, fleetStreams, n, dur, b.ref, traced)
	err := ph.drive(b.clock, fleetLink{b}, sample)
	b.cur.Store(nil)
	if err != nil {
		return nil, phaseResult{}, err
	}
	r := ph.result()
	b.rep.account(r)
	return ph, r, nil
}

func (b *fleetBench) run() error {
	var err error
	if b.spec, err = core.ParseStackSpec(b.w.levels, b.w.fusion); err != nil {
		return err
	}
	epoch := time.Now()
	b.clock = func() int64 { return int64(time.Since(epoch)) }

	t, err := genTraffic(b.seed, fleetStreams*fleetCycles, b.w.attack)
	if err != nil {
		return err
	}
	b.rep.printf("inputs: %d streams x %d packages, %.1f %% in attack episodes, %d-%d LSTM, f32 on odd streams",
		fleetStreams, fleetCycles, 100*attackShare(t.pkgs), fleetHidden[0], fleetHidden[1])
	b.pkgs = make([][]*dataset.Package, fleetStreams)
	for s := range b.pkgs {
		b.pkgs[s] = t.pkgs[s*fleetCycles : (s+1)*fleetCycles]
	}
	if err := preflight(b.rep); err != nil {
		return err
	}

	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		eng, fw, d, err := b.setup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := eng.Stop(); err != nil {
				return err
			}
			continue
		}
		b.eng, b.fw = eng, fw
	}
	defer func() {
		if b.eng != nil {
			b.eng.Stop()
		}
	}()
	b.rep.set("setup_s", median(setups), "s", len(setups), "median of the run's set-ups")

	// Sequential reference per stream, at the stream's precision.
	b.ref = make([]uint64, fleetStreams*fleetCycles)
	for s := range b.pkgs {
		spec := b.spec
		spec.Precision = precisionOf(s)
		hs, err := reference(b.fw, spec, b.pkgs[s])
		if err != nil {
			return err
		}
		for c, h := range hs {
			b.ref[c*fleetStreams+s] = h
		}
	}
	runtime.GC()

	if _, _, err := b.runPhase("warmup", b.w.low, warmShare, false, nil); err != nil {
		return err
	}
	if b.traced {
		err = b.runTraced()
	} else {
		err = b.runUntraced()
	}
	if err != nil {
		return err
	}
	// Stop drains the engine and returns the first panic it recovered.
	err = b.eng.Stop()
	b.eng = nil
	if err != nil {
		b.rep.fail("engine stop: %v", err)
	}
	if s := b.stray.Load(); s != 0 {
		b.rep.fail("%d verdicts arrived for no running phase", s)
	}
	return nil
}

func (b *fleetBench) runUntraced() error {
	return untraced(b.rep, b.w, func(name string, rate, share float64) (phaseResult, error) {
		_, r, err := b.runPhase(name, rate, share, false, nil)
		return r, err
	}, false, fmt.Sprintf("closed loop, %d streams", fleetStreams))
}
