package main

import (
	"fmt"
	"runtime"
	"time"

	_ "icsdetect/internal/baselines" // registers the pca level
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/serve"
)

// setupRuns is how many times a run sets the system up; setup_s is their
// median.
const setupRuns = 15

// replayBench runs an open-loop workload over replay ingest: one ingest
// connection (one stream) at a time and one measuring subscriber, so the
// load generator uses two goroutines and two connections.
type replayBench struct {
	w      workload
	spec   core.StackSpec
	seed   uint64
	secs   float64
	traced bool
	rep    *report
	clock  func() int64

	traffic *traffic
	split   *dataset.Split
	ws      *wireServer
	fw      *core.Framework
	ref     []uint64
	rt      router
	nextID  int
}

func (b *replayBench) dur(share float64) time.Duration {
	return time.Duration(share * b.secs * float64(time.Second))
}

// packagesFor sizes the generated trace: enough for the longest phase.
func (b *replayBench) packagesFor() int {
	l := b.w.ladder()
	need := b.w.high * b.secs * fixedShare / fixedRounds
	if b.traced {
		need = b.w.high * b.secs * tracedShare
	} else if top := l[len(l)-1] * b.secs * probeShare; top > need {
		need = top
	}
	return int(need*1.05) + 1000
}

// setup builds the system once: load the committed model, train the
// stack's extra levels, start the server, and wait for the verdict of a
// first package. It returns the running server and the elapsed time.
func (b *replayBench) setup() (*wireServer, *core.Framework, time.Duration, error) {
	start := time.Now()
	fw, err := loadModel()
	if err != nil {
		return nil, nil, 0, err
	}
	if len(fw.MissingStages(b.spec)) > 0 {
		if err := fw.TrainStages(b.spec, b.split, b.seed); err != nil {
			return nil, nil, 0, err
		}
	}
	var hook func(engine.Result)
	if b.traced {
		hook = func(r engine.Result) {
			if ph := b.rt.cur.Load(); ph != nil && r.Stream == ph.streams[0] {
				ph.classified(int(r.Seq), b.clock())
			}
		}
	}
	ws, err := startServer([]serve.Model{{Name: "gaspipeline", Framework: fw}}, b.spec, hook)
	if err != nil {
		return nil, nil, 0, err
	}
	rc, err := dialReplay(ws.ingest, "setup", b.traffic.header)
	if err == nil {
		err = rc.send(b.traffic.records(0, 1))
	}
	if err == nil {
		_, err = ws.sub.Next()
	}
	if err == nil {
		_, err = rc.finish()
	}
	if err != nil {
		ws.close()
		return nil, nil, 0, fmt.Errorf("setup: first package: %w", err)
	}
	return ws, fw, time.Since(start), nil
}

// replayLink sends a phase's packages on one fresh replay connection.
type replayLink struct {
	b  *replayBench
	rc *replayConn
}

func (l *replayLink) open(ph *phase) error {
	rc, err := dialReplay(l.b.ws.ingest, ph.streams[0], l.b.traffic.header)
	if err != nil {
		return err
	}
	l.rc = rc
	l.b.rt.cur.Store(ph)
	return nil
}

func (l *replayLink) send(_ *phase, from, to int) error {
	return l.rc.send(l.b.traffic.records(from, to))
}

func (l *replayLink) close(ph *phase) error {
	n, err := l.rc.finish()
	if err != nil {
		return err
	}
	if n != uint64(ph.sent) {
		return fmt.Errorf("server accepted %d of %d packages", n, ph.sent)
	}
	return nil
}

// runPhase drives one phase on a fresh stream and accounts it.
func (b *replayBench) runPhase(name string, rate float64, share float64, traced bool, sample func()) (*phase, phaseResult, error) {
	b.nextID++
	dur := b.dur(share)
	n := len(b.ref)
	if rate > 0 {
		n = int(rate * dur.Seconds())
	}
	ph := newPhase(name, []string{fmt.Sprintf("p%02d-%s", b.nextID, name)}, rate, 1, n, dur, b.ref, traced)
	err := ph.drive(b.clock, &replayLink{b: b}, sample)
	b.rt.cur.Store(nil)
	if err != nil {
		return nil, phaseResult{}, err
	}
	r := ph.result()
	b.rep.account(r)
	return ph, r, nil
}

// run executes the workload and fills the report.
func (b *replayBench) run() error {
	var err error
	if b.spec, err = core.ParseStackSpec(b.w.levels, b.w.fusion); err != nil {
		return err
	}
	epoch := time.Now()
	b.clock = func() int64 { return int64(time.Since(epoch)) }

	// Inputs, generated from the seed and excluded from setup time.
	if b.traffic, err = genTraffic(b.seed, b.packagesFor(), b.w.attack); err != nil {
		return err
	}
	b.rep.printf("inputs: %d packages, %.1f %% in attack episodes", len(b.traffic.pkgs), 100*attackShare(b.traffic.pkgs))
	if b.split, err = trainingSplit(b.seed); err != nil {
		return err
	}
	if err := preflight(b.rep); err != nil {
		return err
	}

	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		ws, fw, d, err := b.setup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := ws.close(); err != nil {
				return err
			}
			continue
		}
		b.ws, b.fw = ws, fw
	}
	routed := make(chan struct{})
	defer func() {
		if b.ws != nil {
			b.ws.close()
			<-routed
		}
	}()
	b.rep.set("setup_s", median(setups), "s", len(setups), "median of the run's set-ups")

	if b.ref, err = reference(b.fw, b.spec, b.traffic.pkgs); err != nil {
		return err
	}
	b.traffic.pkgs = b.traffic.pkgs[:min(len(b.traffic.pkgs), layerPackages)]
	runtime.GC()
	go func() {
		defer close(routed)
		b.rt.run(b.ws.sub, b.clock)
	}()

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
	st := b.ws.srv.Stats()
	if st.Shed != 0 || st.SubscriberDrops != 0 {
		b.rep.printf("server: shed %d, subscriber drops %d", st.Shed, st.SubscriberDrops)
	}
	// Shutdown drains the server and returns the first panic its engine
	// recovered; the subscription then ends and so does the router.
	err = b.ws.close()
	<-routed
	b.ws = nil
	if err != nil {
		b.rep.fail("server shutdown: %v", err)
	}
	if s := b.rt.stray.Load(); s != 0 {
		b.rep.fail("%d verdicts arrived for no running phase", s)
	}
	return nil
}

func (b *replayBench) runUntraced() error {
	return untraced(b.rep, b.w, func(name string, rate, share float64) (phaseResult, error) {
		_, r, err := b.runPhase(name, rate, share, false, nil)
		return r, err
	}, true, "closed loop, one connection")
}
