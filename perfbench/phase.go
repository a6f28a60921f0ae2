package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Open-loop limits. Every latency figure is timed from when a package was
// due, so a stalled generator cannot hide queueing (coordinated omission).
const (
	// latLimitMs caps a phase's p99 latency: a tenth of the gas pipeline's
	// 250 ms poll period, so a verdict lands well before the next poll.
	latLimitMs = 25.0
	// lateLimitMs marks a phase invalid when the generator's own p99
	// lateness exceeds this share of the latency limit: the offered load
	// was then not the stated rate.
	lateLimitMs = 0.4 * latLimitMs
	// drainTimeout bounds the wait for a phase's last verdicts; packages
	// still missing after it count as failed.
	drainTimeout = 10 * time.Second
	// window is the span of the windows an open-loop phase's latencies
	// are cut into; windows also hold at least winPackages packages, the
	// fewest that leave minTail samples beyond p99. A phase's p50 and p99
	// are the medians over its windows, so one scheduling stall moves the
	// window it falls in, not the figure.
	window      = 200 * time.Millisecond
	winPackages = 1000
	// closedChunk is how many packages a closed-loop phase offers per
	// send, and closedInflight how many may await their verdicts: a
	// client replaying as fast as it can writes whole bursts, and flow
	// control keeps it from parking the whole input in the server's
	// queues (whose verdicts would then surface in one late burst).
	closedChunk    = 256
	closedInflight = 4 * closedChunk
)

// phase durations as shares of --seconds.
const (
	warmShare  = 0.05
	fixedShare = 0.2
	tputShare  = 0.15
	probeShare = 0.07
	// traced runs measure the high rate twice, untraced then traced; the
	// fleet's also run its closed loop twice.
	tracedShare      = 0.25
	fleetTracedShare = 0.15
)

// link is how a phase's packages reach the system under test: a replay
// connection on the wire, or SubmitBatchFor calls on an engine.
type link interface {
	// open prepares fresh streams for ph.
	open(ph *phase) error
	// send offers packages [from, to) of ph.
	send(ph *phase, from, to int) error
	// close ends ph's streams once every package was offered.
	close(ph *phase) error
}

// sendSpan is one generator send call of a traced phase.
type sendSpan struct {
	start, end int64
	first, n   int
}

// phase is one measured load phase: up to n packages offered on fresh
// streams, either on a fixed schedule of rate packages per second (open
// loop; unit packages fall due together, one poll of every device) or as
// fast as admission takes them (rate 0, closed loop, for at most dur).
type phase struct {
	name    string
	streams []string
	rate    float64
	unit    int
	n       int
	dur     time.Duration
	ref     []uint64
	traced  bool

	start int64
	recv  []int64
	hook  []int64
	late  []float64

	received   atomic.Int64
	mismatched atomic.Int64

	sent    int
	backlog []int64
	sends   []sendSpan
	cpuNs   int64
}

func newPhase(name string, streams []string, rate float64, unit, n int, dur time.Duration, ref []uint64, traced bool) *phase {
	if n > len(ref) {
		n = len(ref)
	}
	ph := &phase{
		name: name, streams: streams, rate: rate, unit: unit, n: n, dur: dur,
		ref: ref[:n], traced: traced, recv: make([]int64, n),
	}
	if traced {
		ph.hook = make([]int64, n)
	}
	return ph
}

// due is the scheduled send time of package i.
func (ph *phase) due(i int) int64 {
	if ph.rate == 0 {
		return ph.start
	}
	return ph.start + int64(float64(i/ph.unit*ph.unit)*1e9/ph.rate)
}

// deliver records the verdict of package i, received at now.
func (ph *phase) deliver(i int, now int64, h uint64) {
	atomic.StoreInt64(&ph.recv[i], now)
	if h != ph.ref[i] {
		ph.mismatched.Add(1)
	}
	ph.received.Add(1)
}

// classified records the OnResult time of package i (traced runs).
func (ph *phase) classified(i int, now int64) {
	if i < len(ph.hook) {
		atomic.StoreInt64(&ph.hook[i], now)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// drive offers the phase's packages through l and waits for their
// verdicts. sample, when non-nil, runs once per generator tick (traced
// runs sample engine gauges there). An open-loop phase stops offering
// early once its backlog or the generator's lateness alone proves the
// latency limit missed.
func (ph *phase) drive(clock func() int64, l link, sample func()) error {
	if err := l.open(ph); err != nil {
		return fmt.Errorf("%s: open: %w", ph.name, err)
	}
	cpu0 := cpuTime()
	ph.start = clock() + int64(time.Millisecond)
	abortBacklog := int64(ph.rate*4*latLimitMs/1e3) + int64(ph.unit)
	abortLate := int64(4 * latLimitMs * 1e6)
	for ph.sent < ph.n {
		now := clock()
		upto := ph.n
		if ph.rate == 0 {
			if time.Duration(now-ph.start) > ph.dur {
				break
			}
			if int64(ph.sent)-ph.received.Load() > closedInflight-closedChunk {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			if upto > ph.sent+closedChunk {
				upto = ph.sent + closedChunk
			}
		} else if now >= ph.start {
			units := int(float64(now-ph.start)*ph.rate/1e9/float64(ph.unit)) + 1
			if units*ph.unit < upto {
				upto = units * ph.unit
			}
		} else {
			upto = ph.sent
		}
		if upto > ph.sent {
			if ph.rate > 0 {
				for i := ph.sent; i < upto; i += ph.unit {
					ph.late = append(ph.late, float64(now-ph.due(i))/1e6)
				}
			}
			if err := l.send(ph, ph.sent, upto); err != nil {
				return fmt.Errorf("%s: send: %w", ph.name, err)
			}
			if ph.traced {
				ph.sends = append(ph.sends, sendSpan{start: now, end: clock(), first: ph.sent, n: upto - ph.sent})
			}
			ph.sent = upto
		}
		backlog := int64(ph.sent) - ph.received.Load()
		ph.backlog = append(ph.backlog, backlog)
		if sample != nil {
			sample()
		}
		if ph.rate > 0 && ph.sent < ph.n {
			if backlog > abortBacklog || clock()-ph.due(ph.sent) > abortLate {
				break
			}
			if wait := ph.due(ph.sent) - clock(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		}
	}
	if err := l.close(ph); err != nil {
		return fmt.Errorf("%s: close: %w", ph.name, err)
	}
	deadline := time.Now().Add(drainTimeout)
	for ph.received.Load() < int64(ph.sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ph.cpuNs = cpuTime() - cpu0
	return nil
}

// phaseResult summarizes one phase.
type phaseResult struct {
	name                string
	rate                float64
	offered, delivered  int
	missing, mismatched int
	// lat holds the sorted due-to-verdict latencies in ms; win50 and
	// win99 the per-window percentiles, and p50 and p99 their medians.
	lat          []float64
	win50, win99 []float64
	p50, p99     float64
	lateP99      float64
	growing      bool
	// achieved is the delivered rate, from the first package's due time
	// to the last verdict.
	achieved float64
	cpuMs    float64
}

func (r phaseResult) failed() int { return r.missing + r.mismatched }

// valid reports whether the generator kept to its schedule.
func (r phaseResult) valid() bool { return r.rate == 0 || r.lateP99 <= lateLimitMs }

// pass reports whether the phase meets every open-loop condition: valid,
// p99 within the limit, no growing backlog and nothing failed.
func (r phaseResult) pass() bool {
	return r.valid() && r.p99 <= latLimitMs && !r.growing && r.failed() == 0 && r.offered > 0
}

func (r phaseResult) String() string {
	state := "pass"
	switch {
	case !r.valid():
		state = "invalid"
	case !r.pass():
		state = "fail"
	}
	s := fmt.Sprintf("phase %-16s offered %7d  failed %d (missing %d, mismatched %d)",
		r.name, r.offered, r.failed(), r.missing, r.mismatched)
	if r.rate > 0 {
		s += fmt.Sprintf("  rate %.0f pkg/s  p50 %.3f ms  p99 %.3f ms (n=%d)  gen.late_p99 %.3f ms  backlog-growing %v  %s",
			r.rate, r.p50, r.p99, len(r.lat), r.lateP99, r.growing, state)
		if tp := tailPercentile(len(r.lat)); tp > 0 {
			s += fmt.Sprintf("  whole-phase p99 %.3f ms, p%g %.3f ms", percentile(r.lat, 99), tp, percentile(r.lat, tp))
		}
	} else {
		s += fmt.Sprintf("  closed loop  %.0f pkg/s", r.achieved)
	}
	return s
}

// result analyses a driven phase.
func (ph *phase) result() phaseResult {
	r := phaseResult{name: ph.name, rate: ph.rate, offered: ph.sent, mismatched: int(ph.mismatched.Load())}
	var last int64
	nwin := 1
	if ph.rate > 0 {
		nwin = max(1, min(int(float64(ph.sent)/ph.rate/window.Seconds()), ph.sent/winPackages))
	}
	win := make([][]float64, nwin)
	for i := 0; i < ph.sent; i++ {
		t := atomic.LoadInt64(&ph.recv[i])
		if t == 0 {
			r.missing++
			continue
		}
		r.delivered++
		ms := float64(t-ph.due(i)) / 1e6
		r.lat = append(r.lat, ms)
		w := i * nwin / ph.sent
		win[w] = append(win[w], ms)
		if t > last {
			last = t
		}
	}
	sort.Float64s(r.lat)
	r.win50, r.win99 = windowed(win, 50), windowed(win, 99)
	r.p50, r.p99 = median(r.win50), median(r.win99)
	if len(ph.late) > 0 {
		r.lateP99 = percentile(sortedCopy(ph.late), 99)
	}
	r.growing = growing(ph.backlog, ph.rate)
	if last > ph.start {
		r.achieved = float64(r.delivered) / (float64(last-ph.start) / 1e9)
	}
	if r.offered > 0 {
		r.cpuMs = float64(ph.cpuNs) / 1e6
	}
	return r
}

// windowed returns each window's percentile p, +Inf for a window too
// small to support it.
func windowed(win [][]float64, p float64) []float64 {
	ps := make([]float64, len(win))
	for i, w := range win {
		ps[i] = math.Inf(1)
		if supported(p, len(w)) {
			ps[i] = percentile(sortedCopy(w), p)
		}
	}
	return ps
}

// growing reports whether a backlog series (one sample per generator
// tick) rose through the phase: the last quarter's mean exceeds twice the
// second quarter's plus a floor of 5 ms of offered load. A stable queue
// fluctuates around its mean; one the server cannot drain grows linearly,
// which puts the last quarter at about 2.3 times the second.
func growing(backlog []int64, rate float64) bool {
	n := len(backlog)
	if n < 8 || rate == 0 {
		return false
	}
	m := func(xs []int64) float64 {
		t := 0.0
		for _, x := range xs {
			t += float64(x)
		}
		return t / float64(len(xs))
	}
	floor := math.Max(64, rate*5e-3)
	return m(backlog[3*n/4:]) > 2*m(backlog[n/4:n/2])+floor
}

// ladderSearch returns the index of the highest rung of an ascending rate
// ladder that passes probe, assuming a rung passes whenever a higher one
// does, or -1 when none passes. It bisects, starting from the rung known
// to pass (known, or -1), so it costs about log2(len) probes.
func ladderSearch(ladder []float64, known int, probe func(rate float64) (bool, error)) (int, error) {
	lo, hi := known, len(ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := probe(ladder[mid])
		if err != nil {
			return -1, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// fixedRounds is how many times a run measures each fixed rate, and
// closedRounds how many closed-loop slices it runs. They are spread over
// the whole run, between the other phases, so a stretch of interference
// from other tenants of the machine lands in a few of them, and the
// quietest one measures the program.
const (
	fixedRounds  = 6
	closedRounds = 3
)

// runner drives one phase of a workload: at rate (0 for the closed loop)
// for share of --seconds.
type runner func(name string, rate, share float64) (phaseResult, error)

// untraced runs a workload's untraced schedule and reports its end-to-end
// metrics other than setup_s: two rounds of the fixed rates, a closed-loop
// phase, two more rounds, the sustained-rate search, a closed-loop phase,
// the last two rounds and a last closed-loop phase. cpuHigh reports CPU at
// the high rate; otherwise it is taken from the closed loop.
func untraced(rep *report, w workload, run runner, cpuHigh bool, tputNote string) error {
	var lows, highs, closed []phaseResult
	rounds := func(k int) error {
		for i := 0; i < k; i++ {
			l, err := run("low", w.low, fixedShare/fixedRounds)
			if err != nil {
				return err
			}
			h, err := run("high", w.high, fixedShare/fixedRounds)
			if err != nil {
				return err
			}
			lows, highs = append(lows, l), append(highs, h)
		}
		return nil
	}
	closedLoop := func() error {
		r, err := run("throughput", 0, tputShare/closedRounds)
		closed = append(closed, r)
		return err
	}
	steps := []func() error{
		func() error { return rounds(2) }, closedLoop,
		func() error { return rounds(2) },
		func() error {
			sustained, err := sustainedRate(rep, w, highs, func(rate float64) (phaseResult, error) {
				return run(fmt.Sprintf("ladder-%.0f", rate), rate, probeShare)
			})
			rep.set("sustained_pkg_s", sustained, "pkg/s", 0, "delivered rate at the highest passing ladder rung")
			return err
		},
		closedLoop, func() error { return rounds(2) }, closedLoop,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	latencyMetrics(rep, "low", lows)
	latencyMetrics(rep, "high", highs)
	best, n := 0.0, 0
	for _, r := range closed {
		best, n = max(best, r.achieved), n+r.delivered
	}
	rep.set("throughput_pkg_s", best, "pkg/s", n, fmt.Sprintf("%s; fastest of %d slices", tputNote, len(closed)))
	if cpuHigh {
		rep.set("cpu_ms_per_kpkg", cpuPerKpkg(highs...), "ms", len(highs), "process CPU over the high-rate rounds")
	} else {
		rep.set("cpu_ms_per_kpkg", cpuPerKpkg(closed...), "ms", len(closed), "process CPU over the closed-loop slices")
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 0, "whole process, generator inputs included")
	return nil
}

// latencyMetrics reports the latency of one fixed rate under suffix
// ("low" or "high") from its rounds: each round's p50 and p99 are the
// medians over its windows, and the figure is that of the quietest round.
// The hypervisor of a shared machine takes CPU from this one in stretches
// of seconds; the quietest round measures the program, the others partly
// its neighbours. A round that misses the open-loop conditions is
// reported; its verdicts were still checked like any other.
func latencyMetrics(rep *report, suffix string, rounds []phaseResult) {
	p50, p99 := math.Inf(1), math.Inf(1)
	n := 0
	for _, r := range rounds {
		p50, p99 = min(p50, r.p50), min(p99, r.p99)
		n += len(r.lat)
		if !r.pass() {
			rep.printf("WARNING: a %s round (%.0f pkg/s) missed the open-loop conditions in this run", suffix, r.rate)
		}
	}
	note := fmt.Sprintf("quietest of %d rounds", len(rounds))
	rep.set("lat_p50_ms."+suffix, p50, "ms", n, note)
	rep.set("lat_p99_ms."+suffix, p99, "ms", n, note)
}

// cpuPerKpkg is the process CPU time per 1000 packages over phases.
func cpuPerKpkg(phases ...phaseResult) float64 {
	ms, n := 0.0, 0
	for _, r := range phases {
		ms, n = ms+r.cpuMs, n+r.offered
	}
	return ms / float64(n) * 1000
}

// sustainedRate searches w's ladder upward from its high rate (already
// measured in highs; it counts as passing when every round passed), probing
// a failing rung twice, and returns the delivered rate of the highest rung
// that passes, or 0 when not even the low rate does.
func sustainedRate(rep *report, w workload, highs []phaseResult, probe func(rate float64) (phaseResult, error)) (float64, error) {
	ladder := w.ladder()
	high := highs[len(highs)-1]
	byRate := map[float64]phaseResult{ladder[1]: high}
	known := 1
	for _, h := range highs {
		if !h.pass() {
			known = -1
		}
	}
	idx, err := ladderSearch(ladder, known, func(rate float64) (bool, error) {
		r, err := probe(rate)
		if err == nil && !r.pass() {
			// One retry: a stretch of interference fails a probe, not a
			// rung the program sustains.
			r, err = probe(rate)
		}
		byRate[rate] = r
		return r.pass(), err
	})
	if err != nil || idx < 0 {
		return 0, err
	}
	rep.printf("sustained: rung %d of %d (%.0f pkg/s offered)", idx, len(ladder)-1, ladder[idx])
	return byRate[ladder[idx]].achieved, nil
}
