package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
	"icsdetect/internal/scenario"
	"icsdetect/internal/serve"
	"icsdetect/internal/trace"
)

// This file is `icsbench -servebench`: the wire-to-verdict serving
// benchmark. It boots a real serve.Server on loopback TCP, replays one
// recorded trace over N concurrent ingest connections with per-record send
// timestamps, fans every verdict out to -subs subscribers (one measuring
// latency and verdict hashes, the rest draining — the multi-consumer
// deployment shape), and reports end-to-end throughput (pkg/s) and verdict
// latency (p50/p99) — once at ingest burst width 1 (IngestBurst: 1, one
// package per engine admission; mode "per-package") and once at the default
// width (mode "burst"). Both runs take the same ingest path — SubmitBatchFor
// admission and per-tick coalesced verdict frames — with only the width
// differing. The two runs must produce identical per-stream verdict
// sequences (FNV-1a cross-check); the ratio of their throughputs is what
// admission width buys. `make bench-serve` runs it; `-json` emits the
// record committed as BENCH_SERVE.json.

// serveModeResult is one admission mode's measurement as emitted by -json.
type serveModeResult struct {
	Mode             string  `json:"mode"` // "per-package" (width 1) or "burst"
	IngestBurst      int     `json:"ingest_burst"`
	Packages         uint64  `json:"packages"`
	WallSeconds      float64 `json:"wall_seconds"`
	PkgsPerSec       float64 `json:"pkgs_per_sec"`
	P50LatencyMs     float64 `json:"p50_latency_ms"`
	P99LatencyMs     float64 `json:"p99_latency_ms"`
	MeanIngestBurst  float64 `json:"mean_ingest_burst"`
	MeanPublishBatch float64 `json:"mean_publish_batch"`
}

// serveBenchResult is the -servebench JSON document body.
type serveBenchResult struct {
	Stack          string            `json:"stack"`
	Connections    int               `json:"connections"`
	RecordsPerConn int               `json:"records_per_conn"`
	Subscribers    int               `json:"subscribers"`
	Modes          []serveModeResult `json:"modes"`
	// Speedup is burst pkg/s over width-1 pkg/s, both measured in this
	// run.
	Speedup float64 `json:"speedup"`
	// VerdictsMatch records the cross-mode conformance check: every
	// stream's verdict sequence hashed identically under both paths.
	VerdictsMatch bool `json:"verdicts_match"`
}

// serveBenchModel loads the committed corpus model when the testdata dir
// holds one (cheap, the common case from the repo root) and otherwise
// trains a fresh corpus-recipe model.
func serveBenchModel(tb scenario.Scenario, testdata string, progress io.Writer) (*core.Framework, error) {
	path := filepath.Join(testdata, "model.fw")
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		fw, err := core.Load(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		fmt.Fprintf(progress, "servebench: model %s (%s)\n", path, fw.Fingerprint())
		return fw, nil
	}
	fmt.Fprintf(progress, "servebench: no committed model at %s, training one\n", path)
	start := time.Now()
	fw, err := trace.TrainCorpusModel(tb, 8000, 1)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(progress, "servebench: model trained in %v\n", time.Since(start).Round(time.Millisecond))
	return fw, nil
}

// recordServeTrace records ~records of fresh normal-operation wire traffic
// pinned to the benchmark model's fingerprint: the byte stream every
// connection replays.
func recordServeTrace(tb scenario.Scenario, fingerprint string, records int) ([]byte, int, error) {
	sim, err := tb.NewSim(0xB0B)
	if err != nil {
		return nil, 0, err
	}
	// Unrecorded warm-up so the control loop and CRC window settle.
	for i := 0; i < 60; i++ {
		sim.RunNormalCycle(0)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.SimHeader("servebench", fingerprint, tb.Registers()))
	if err != nil {
		return nil, 0, err
	}
	sim.SetFrameSink(rec.RecordSim)
	for rec.Count() < records {
		sim.RunNormalCycle(0)
	}
	sim.SetFrameSink(nil)
	if err := rec.Flush(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), rec.Count(), nil
}

// hashVerdict folds one subscription event into a stream's running FNV-1a
// verdict hash — the cross-mode conformance fingerprint. It encodes into
// the caller's scratch buffer and returns it (possibly regrown): the
// subscriber sits on the measured core, so the encoding must not allocate
// or go through fmt.
func hashVerdict(h hash.Hash64, scratch []byte, ev serve.Event) []byte {
	b := scratch[:0]
	b = binary.AppendUvarint(b, ev.Seq)
	v := ev.Verdict
	flags := byte(0)
	if v.Anomaly {
		flags = 1
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(v.Level))
	b = binary.AppendVarint(b, int64(v.Rank))
	b = binary.AppendUvarint(b, uint64(len(v.Signature)))
	b = append(b, v.Signature...)
	b = binary.AppendUvarint(b, uint64(len(v.Evidence)))
	for _, e := range v.Evidence {
		b = binary.AppendUvarint(b, uint64(len(e.Stage)))
		b = append(b, e.Stage...)
		b = binary.AppendVarint(b, int64(e.Level))
		fl := byte(0)
		if e.Scored {
			fl |= 1
		}
		if e.Flagged {
			fl |= 2
		}
		b = append(b, fl)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Score))
		b = binary.AppendVarint(b, int64(e.Rank))
	}
	h.Write(b)
	return b
}

// drainSubscriber attaches a raw verdict subscription (the documented
// "ICSSUBSC" handshake) and discards the stream: the extra fan-out targets
// of a multi-subscriber deployment, costing the benchmark core almost
// nothing beyond the hub's own per-subscriber work. Returns the connection
// for the caller to close.
func drainSubscriber(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hb := binary.BigEndian.AppendUint16([]byte("ICSSUBSC"), serve.ProtocolVersion)
	if _, err := conn.Write(hb); err != nil {
		conn.Close()
		return nil, err
	}
	// Status: code byte + uvarint-length message, then the event stream.
	var code [2]byte
	if _, err := io.ReadFull(conn, code[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if code[0] != 0 || code[1] != 0 {
		conn.Close()
		return nil, fmt.Errorf("drain subscriber rejected (code %d)", code[0])
	}
	go io.Copy(io.Discard, conn)
	return conn, nil
}

// runServeMode boots one server with the given ingest burst setting,
// replays the trace over conns concurrent connections, and measures
// wire-to-verdict throughput and latency off the subscription socket. It
// returns the measurement plus each stream's verdict-sequence hash.
func runServeMode(fw *core.Framework, spec core.StackSpec, raw []byte,
	records, conns, subs, ingestBurst int) (serveModeResult, map[string]uint64, error) {

	mode := serveModeResult{Mode: "burst", IngestBurst: ingestBurst}
	if ingestBurst == 1 {
		mode.Mode = "per-package"
	}
	srv, err := serve.New(serve.Config{
		Engine:           engine.Config{MaxBatch: 64, QueueDepth: 256, Stack: spec},
		Models:           []serve.Model{{Name: "servebench", Framework: fw}},
		SubscriberBuffer: 1 << 17,
		IngestBurst:      ingestBurst,
		DrainGrace:       time.Minute,
	})
	if err != nil {
		return mode, nil, err
	}
	defer srv.Shutdown()
	ingest, err := srv.ListenIngest("127.0.0.1:0")
	if err != nil {
		return mode, nil, err
	}
	verdicts, err := srv.ListenVerdicts("127.0.0.1:0")
	if err != nil {
		return mode, nil, err
	}
	sub, err := serve.Subscribe(verdicts)
	if err != nil {
		return mode, nil, err
	}
	defer sub.Close()
	// The remaining subscribers only drain: they exist so the hub fans
	// every verdict out subs ways, the multi-consumer deployment shape the
	// coalesced publish path amortizes.
	for i := 1; i < subs; i++ {
		dc, err := drainSubscriber(verdicts)
		if err != nil {
			return mode, nil, err
		}
		defer dc.Close()
	}

	// Per-(connection, record) send timestamps, stamped by the replay
	// goroutines and read by the subscriber: atomics, since the only
	// ordering between the two is the wire itself.
	streams := make(map[string]int, conns)
	send := make([][]int64, conns)
	for c := range send {
		send[c] = make([]int64, records)
		streams[fmt.Sprintf("c-%03d", c)] = c
	}

	total := conns * records
	latencies := make([]int64, 0, total)
	hashes := make(map[string]uint64, conns)
	subDone := make(chan error, 1)
	go func() {
		perStream := make(map[string]hash.Hash64, conns)
		seen := make(map[string]uint64, conns)
		scratch := make([]byte, 0, 256)
		for got := 0; got < total; got++ {
			ev, err := sub.Next()
			if err != nil {
				subDone <- fmt.Errorf("subscriber after %d of %d events: %w", got, total, err)
				return
			}
			now := time.Now().UnixNano()
			c, ok := streams[ev.Stream]
			if !ok {
				subDone <- fmt.Errorf("event for unknown stream %q", ev.Stream)
				return
			}
			if ev.Seq != seen[ev.Stream] {
				subDone <- fmt.Errorf("stream %s: event seq %d, want %d", ev.Stream, ev.Seq, seen[ev.Stream])
				return
			}
			seen[ev.Stream]++
			latencies = append(latencies, now-atomic.LoadInt64(&send[c][ev.Seq]))
			h := perStream[ev.Stream]
			if h == nil {
				h = fnv.New64a()
				perStream[ev.Stream] = h
			}
			scratch = hashVerdict(h, scratch, ev)
		}
		for s, h := range perStream {
			hashes[s] = h.Sum64()
		}
		subDone <- nil
	}()

	start := time.Now()
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stamps := send[c]
			n, err := serve.Replay(ingest, raw, serve.ReplayOptions{
				Stream: fmt.Sprintf("c-%03d", c),
				OnRecord: func(i int) {
					atomic.StoreInt64(&stamps[i], time.Now().UnixNano())
				},
				FlushEvery: 64,
			})
			if err != nil {
				errs <- fmt.Errorf("c-%03d: %v", c, err)
				return
			}
			if n != uint64(records) {
				errs <- fmt.Errorf("c-%03d: server accepted %d of %d", c, n, records)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return mode, nil, err
	}
	if err := <-subDone; err != nil {
		return mode, nil, err
	}
	wall := time.Since(start)

	st := srv.Stats()
	if err := srv.Shutdown(); err != nil {
		return mode, nil, err
	}
	if st.Shed != 0 || st.SubscriberDrops != 0 {
		return mode, nil, fmt.Errorf("lossy run: shed=%d subscriberDrops=%d", st.Shed, st.SubscriberDrops)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := len(latencies) * p / 100
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	mode.Packages = uint64(total)
	mode.WallSeconds = wall.Seconds()
	mode.PkgsPerSec = float64(total) / wall.Seconds()
	mode.P50LatencyMs = pct(50)
	mode.P99LatencyMs = pct(99)
	mode.MeanIngestBurst = st.MeanIngestBurst()
	mode.MeanPublishBatch = st.MeanPublishBatch()
	return mode, hashes, nil
}

// runServeBench is the -servebench entry point: record the workload, run
// both admission modes against real loopback TCP, cross-check verdicts and
// report the amortization win.
func runServeBench(testdata string, conns, records, subs int, customLevels, customFusion string, jsonOut bool) error {
	progress := io.Writer(os.Stdout)
	if jsonOut {
		progress = os.Stderr
	}
	if conns <= 0 {
		conns = 64
	}
	if records <= 0 {
		records = 2000
	}
	if subs <= 0 {
		subs = 1
	}
	// Default to the signature-level stack: its per-package compute is
	// cheap enough that the serving plane's own per-admission costs
	// (engine admission, wire framing) dominate the measurement — which is
	// exactly what a wider burst amortizes. -levels swaps in any other
	// stack.
	levels, fusion := customLevels, customFusion
	if levels == "" {
		levels = "bloom"
		if fusion == "" {
			fusion = "first-hit"
		}
	}
	spec, err := core.ParseStackSpec(levels, fusion)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	tb, err := scenario.Get("gaspipeline")
	if err != nil {
		return err
	}
	fw, err := serveBenchModel(tb, testdata, progress)
	if err != nil {
		return err
	}
	raw, got, err := recordServeTrace(tb, fw.Fingerprint(), records)
	if err != nil {
		return err
	}
	records = got
	fmt.Fprintf(progress, "servebench: stack %s, %d connections × %d records, %d subscribers (%d packages/mode, trace %d KB)\n",
		spec, conns, records, subs, conns*records, len(raw)/1024)

	res := serveBenchResult{Stack: spec.String(), Connections: conns, RecordsPerConn: records, Subscribers: subs}
	var perPkgHashes, burstHashes map[string]uint64
	for _, m := range []struct {
		burst  int
		hashes *map[string]uint64
	}{
		{1, &perPkgHashes}, // width 1: one package per engine admission
		{0, &burstHashes},  // default burst width (256)
	} {
		mode, hashes, err := runServeMode(fw, spec, raw, records, conns, subs, m.burst)
		if err != nil {
			return fmt.Errorf("servebench %d-burst run: %w", m.burst, err)
		}
		*m.hashes = hashes
		res.Modes = append(res.Modes, mode)
		fmt.Fprintf(progress,
			"%-12s %9.0f pkg/s  (wall %6.2fs, p50 %7.2fms, p99 %7.2fms, ingest-burst %6.1f, publish-batch %5.1f)\n",
			mode.Mode, mode.PkgsPerSec, mode.WallSeconds, mode.P50LatencyMs, mode.P99LatencyMs,
			mode.MeanIngestBurst, mode.MeanPublishBatch)
	}

	// Cross-width conformance: the admission width must be
	// verdict-invariant, stream for stream.
	res.VerdictsMatch = len(perPkgHashes) == len(burstHashes)
	for s, h := range perPkgHashes {
		if burstHashes[s] != h {
			res.VerdictsMatch = false
			break
		}
	}
	if !res.VerdictsMatch {
		return fmt.Errorf("verdict streams differ between per-package and burst modes")
	}
	res.Speedup = res.Modes[1].PkgsPerSec / res.Modes[0].PkgsPerSec
	fmt.Fprintf(progress, "burst speedup: %.2fx (verdicts identical across modes)\n", res.Speedup)

	if jsonOut {
		return writeJSON(benchDoc{Benchmark: "servebench", Serve: &res})
	}
	return nil
}
