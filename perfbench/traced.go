package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"

	"icsdetect/internal/engine"
)

// spanDir receives each traced run's spans, relative to the repository
// root the benchmark runs from.
const spanDir = ".bench_build/spans"

// spanEvery samples the per-package spans written out: every package's
// stamps are kept in memory and measured, one in spanEvery is written.
const spanEvery = 16

// span is one traced interval: a layer boundary crossed by a package or a
// batch, or one isolated per-layer call loop.
type span struct {
	name       string
	parent     int
	start, end int64
	stream     string
	seq        int
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	clock func() int64
	spans []span
}

// add records a span and returns its id.
func (l *spanLog) add(name string, parent int, start, end int64, stream string, seq int) int {
	l.spans = append(l.spans, span{name: name, parent: parent, start: start, end: end, stream: stream, seq: seq})
	return len(l.spans) - 1
}

// write stores the spans as tab-separated lines: id, parent, name, start
// and end in ns since the run began, stream and sequence number.
func (l *spanLog) write(name string) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tstream\tseq")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%s\t%d\n", i, s.parent, s.name, s.start, s.end, s.stream, s.seq)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sendSpans adds one span per send call of a traced phase, named name,
// and returns each package's send span id.
func (l *spanLog) sendSpans(ph *phase, name string, sends []sendSpan) []int {
	ids := make([]int, ph.sent)
	for _, s := range sends {
		id := l.add(name, -1, s.start, s.end, ph.streams[s.first%len(ph.streams)], s.first/len(ph.streams))
		for i := s.first; i < s.first+s.n; i++ {
			ids[i] = id
		}
	}
	return ids
}

// packageSpans adds the sampled per-package spans of a traced phase: one
// span per layer boundary in stamps (name and stamp array), the first
// from the package's due time and the child of its send span, each later
// one the child of the one before.
func (l *spanLog) packageSpans(ph *phase, send []int, stamps []string, arrays ...[]int64) {
	for i := 0; i < ph.sent; i += spanEvery {
		parent, from := send[i], ph.due(i)
		for k, arr := range arrays {
			t := atomic.LoadInt64(&arr[i])
			if t == 0 {
				break
			}
			parent = l.add(stamps[k], parent, from, t, ph.streams[i%len(ph.streams)], i/len(ph.streams))
			from = t
		}
	}
}

// sortedMs returns the sorted stamp differences b[i]-a[i] in ms (a nil a
// means the due time) over the packages that have both stamps.
func sortedMs(ph *phase, a, b []int64) []float64 {
	out := make([]float64, 0, ph.sent)
	for i := 0; i < ph.sent; i++ {
		from := ph.due(i)
		if a != nil {
			from = atomic.LoadInt64(&a[i])
		}
		if to := atomic.LoadInt64(&b[i]); to != 0 && from != 0 {
			out = append(out, float64(to-from)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// runtimeCounters reports allocation and GC per package between two
// memory snapshots.
func runtimeCounters(rep *report, m0, m1 *runtime.MemStats, pkgs int) {
	n := float64(pkgs)
	rep.set("runtime.alloc_bytes_per_pkg", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B", pkgs, "whole process")
	rep.set("runtime.gc_cycles_per_mpkg", float64(m1.NumGC-m0.NumGC)/n*1e6, "count", pkgs, "whole process")
}

// engineCounters reports the engine's batching from a Stats delta and its
// sampled queue depth.
func engineCounters(rep *report, d engine.Stats, depth []float64) {
	check := 0.0
	if d.CheckBatches > 0 {
		check = float64(d.CheckBatched) / float64(d.CheckBatches)
	}
	rep.set("engine.advance_batch_mean", d.MeanBatch(), "count", int(d.Batches), "")
	rep.set("engine.check_batch_mean", check, "count", int(d.CheckBatches), "")
	rep.set("engine.queue_depth_mean", mean(depth), "count", len(depth), "sampled from Stats once per generator tick")
}

// serveTolerance bounds the serve layer-sum check: the means of the two
// halves of the latency split, over packages stamped at each boundary,
// against the end-to-end mean over every delivered package. They differ
// only when the OnResult hook missed packages.
const serveTolerance = 0.01

func (b *replayBench) runTraced() error {
	spans := &spanLog{clock: b.clock}
	_, base, err := b.runPhase("high", b.w.high, tracedShare, false, nil)
	if err != nil {
		return err
	}
	eng := b.ws.srv.Engine()
	e0, s0 := eng.Stats(), b.ws.srv.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.rt.bytes.Store(0)
	var depth []float64
	ph, r, err := b.runPhase("high-traced", b.w.high, tracedShare, true, func() {
		depth = append(depth, float64(eng.Stats().QueueDepth))
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	ed, sd := eng.Stats().Since(e0), b.ws.srv.Stats().Since(s0)
	rep := b.rep

	engineCounters(rep, ed, depth)
	rep.set("engine.submit_blocked_ms", 0, "ms", 0, "not on this path: the server's ingest loop submits")
	runtimeCounters(rep, &m0, &m1, r.delivered)
	rep.set("gen.late_p99_ms", r.lateP99, "ms", len(ph.late), "traced high phase")
	rep.set("tracing.overhead_lat_p50_ms.high", r.p50-base.p50, "ms", len(r.lat), "traced minus untraced, same rate")
	rep.set("tracing.overhead_cpu_ms_per_kpkg", cpuPerKpkg(r)-cpuPerKpkg(base), "ms", r.offered, "traced minus untraced, same rate")

	s2c := sortedMs(ph, nil, ph.hook)
	c2r := sortedMs(ph, ph.hook, ph.recv)
	rep.set("serve.send_to_classified_ms.p50", percentile(s2c, 50), "ms", len(s2c), "due time to the OnResult hook")
	rep.set("serve.send_to_classified_ms.p99", percentile(s2c, 99), "ms", len(s2c), "due time to the OnResult hook")
	rep.set("serve.classified_to_recv_ms.p50", percentile(c2r, 50), "ms", len(c2r), "OnResult hook to subscriber receive")
	rep.set("serve.classified_to_recv_ms.p99", percentile(c2r, 99), "ms", len(c2r), "OnResult hook to subscriber receive")
	rep.set("serve.ingest_burst_mean", sd.MeanIngestBurst(), "count", int(sd.IngestBursts), "")
	rep.set("serve.publish_batch_mean", sd.MeanPublishBatch(), "count", int(sd.HubPublishes), "")
	rep.set("serve.event_bytes_mean", float64(b.rt.bytes.Load())/float64(r.delivered), "B", r.delivered, "from the documented event layout")
	st := b.ws.srv.Stats()
	rep.set("serve.shed", float64(st.Shed), "count", 0, "whole run")
	rep.set("serve.subscriber_drops", float64(st.SubscriberDrops), "count", 0, "whole run")

	e2e, a, c := mean(r.lat), mean(s2c), mean(c2r)
	gap := math.Abs(a+c-e2e) / e2e
	rep.printf("layer-sum check (serve): send_to_classified %.4f ms + classified_to_recv %.4f ms = %.4f ms, end to end %.4f ms, gap %.2f %% (tolerance %.0f %%; %d delivered packages without a hook stamp)",
		a, c, a+c, e2e, 100*gap, 100*serveTolerance, len(r.lat)-len(c2r))
	if gap > serveTolerance {
		rep.fail("serve layer sum is off by %.2f %%", 100*gap)
	}
	spans.packageSpans(ph, spans.sendSpans(ph, "gen.send", ph.sends), []string{"serve.classified", "sub.received"}, ph.hook, ph.recv)

	iso := &isolated{rep: rep, spans: spans, fw: b.fw, spec: b.spec, pkgs: b.traffic.pkgs}
	if err := iso.decode(b.traffic); err != nil {
		return err
	}
	iso.encode()
	if err := iso.classify([]string{"bloom", "lstm", "pca"}); err != nil {
		return err
	}
	iso.step("nn.step_ns.h32.f64.w1")
	for _, p := range []string{"f64", "f32"} {
		rep.set("nn.step_batch_ns.h256."+p+".wN", 0, "ns", 0, "not on this path")
	}
	iso.mathx(0, max(1, ed.MeanBatch()))
	return b.writeSpans(spans)
}

func (b *replayBench) writeSpans(spans *spanLog) error {
	path, err := spans.write(fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err != nil {
		return err
	}
	b.rep.printf("spans: %d written to %s", len(spans.spans), path)
	return nil
}

// fleetLayerPackages caps the isolated per-layer calls of the fleet, whose
// sequential 2×256 steps are slow.
const fleetLayerPackages = 1000

func (b *fleetBench) runTraced() error {
	spans := &spanLog{clock: b.clock}
	rep := b.rep
	_, base, err := b.runPhase("high", b.w.high, fleetTracedShare, false, nil)
	if err != nil {
		return err
	}
	ph, r, err := b.runPhase("high-traced", b.w.high, fleetTracedShare, true, nil)
	if err != nil {
		return err
	}
	rep.set("gen.late_p99_ms", r.lateP99, "ms", len(ph.late), "traced high phase")
	rep.set("tracing.overhead_lat_p50_ms.high", r.p50-base.p50, "ms", len(r.lat), "traced minus untraced, same rate")

	_, tpBase, err := b.runPhase("throughput", 0, fleetTracedShare, false, nil)
	if err != nil {
		return err
	}
	e0 := b.eng.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.submitNs, b.submits = 0, nil
	var depth []float64
	tph, tp, err := b.runPhase("throughput-traced", 0, fleetTracedShare, true, func() {
		depth = append(depth, float64(b.eng.Stats().QueueDepth))
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	ed := b.eng.Stats().Since(e0)
	rep.set("tracing.overhead_cpu_ms_per_kpkg", cpuPerKpkg(tp)-cpuPerKpkg(tpBase), "ms", tp.offered, "traced minus untraced closed loop")
	engineCounters(rep, ed, depth)
	rep.set("engine.submit_blocked_ms", float64(b.submitNs)/1e6, "ms", len(b.submits), "time inside SubmitBatchFor, closed loop")
	runtimeCounters(rep, &m0, &m1, tp.delivered)
	spans.packageSpans(tph, spans.sendSpans(tph, "engine.submit", b.submits), []string{"engine.handled"}, tph.recv)

	for _, name := range []string{"serve.send_to_classified_ms.p50", "serve.send_to_classified_ms.p99",
		"serve.classified_to_recv_ms.p50", "serve.classified_to_recv_ms.p99",
		"serve.ingest_burst_mean", "serve.publish_batch_mean", "serve.event_bytes_mean",
		"serve.shed", "serve.subscriber_drops", "trace.decode_ns_per_rec", "nn.step_ns.h32.f64.w1"} {
		rep.set(name, 0, unitOf(name), 0, "not on this path")
	}

	pkgs := b.pkgs[0][:0:0]
	for s := 0; len(pkgs) < fleetLayerPackages; s++ {
		pkgs = append(pkgs, b.pkgs[s]...)
	}
	iso := &isolated{rep: rep, spans: spans, fw: b.fw, spec: b.spec, pkgs: pkgs[:fleetLayerPackages]}
	iso.encode()
	if err := iso.classify([]string{"bloom", "lstm", "pca"}); err != nil {
		return err
	}
	iso.stepBatch(max(1, int(math.Round(ed.MeanBatch()))), "nn.step_batch_ns.h256.f64.wN", "nn.step_batch_ns.h256.f32.wN")
	iso.mathx(0.5, max(1, ed.MeanBatch()))
	path, err := spans.write(fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err != nil {
		return err
	}
	rep.printf("spans: %d written to %s", len(spans.spans), path)
	return nil
}
