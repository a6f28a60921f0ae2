// Package engine is the concurrent multi-stream detection engine: it runs
// a detection stack of internal/core over many package streams at once
// (one stream per monitored device, link or unit), sharded across worker
// goroutines with per-stage-kind micro-batched inference.
//
// Architecture:
//
//	SubmitBatchFor(fw, stream, pkgs) ──hash(stream)──▶ shard 0 ─▶ worker goroutine
//	TrySubmitBatchFor(fw, stream, pkgs)                shard 1 ─▶ worker goroutine
//	                                                   …            │
//	                                                                ▼
//	                      tick: drain queued bursts
//	                        precompute batchable Check scores (window
//	                          levels: PCA/GMM batched kernels)
//	                        waves: the next package of every stream, through
//	                          its Session Check phase, in sequence
//	                        micro-batched Advance passes (LSTM steps via
//	                          nn.StepBatchLogits); scalar stages inline
//
// The burst is the only unit of admission: a caller that admits one package
// at a time submits a burst of one (a pkgs[i:i+1] subslice).
//
// Each stream is pinned to one shard by a hash of its ID, so per-stream
// package order — and therefore per-stream verdicts — are exactly those of
// a sequential core.Session over the same stack. Within a shard, the
// batchable work of distinct streams advances through one batched pass per
// drained tick instead of one scalar pass per package; the engine asks
// each stage what it can batch (core.AdvanceBatchStage,
// core.CheckBatchStage) instead of hard-coding the LSTM. Shard input
// channels are bounded: a saturated engine pushes back on SubmitBatchFor
// (or sheds on TrySubmitBatchFor) instead of growing without bound.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
)

// Config tunes the engine. The zero value picks sensible defaults.
type Config struct {
	// Shards is the number of worker goroutines (and stream partitions).
	// Default: GOMAXPROCS.
	Shards int
	// MaxBatch caps the micro-batch width of one batched stage pass.
	// Default: 64.
	MaxBatch int
	// QueueDepth bounds each shard's input channel, in admitted bursts; a
	// full shard blocks SubmitBatchFor (backpressure). Default: 4 * MaxBatch.
	QueueDepth int
	// Stack describes the detection stack every stream applies. Empty
	// means core.DefaultStackSpec(): the paper's two-level bloom,lstm stack
	// under first-hit fusion. Stack.Precision sets the default numeric
	// tier; individual streams opt into a different tier with
	// BindPrecision before their first package.
	Stack core.StackSpec
	// TickEnd, when non-nil, is called on the shard worker goroutine after
	// each drained tick has been fully classified and flushed (and once
	// more when the worker exits), with the shard index. It is the
	// coalescing point for embedders that batch downstream work per tick —
	// the serving daemon publishes one multi-event verdict frame per shard
	// tick through it. Like a Handler it runs concurrently across shards
	// and a slow callback stalls its shard.
	TickEnd func(shard int)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if len(c.Stack.Stages) == 0 {
		c.Stack = core.DefaultStackSpec()
	}
	return c
}

// Result is one classified package.
type Result struct {
	// Stream is the stream ID the package was submitted under.
	Stream string
	// Seq is the package's 0-based position within its stream.
	Seq uint64
	// Shard is the index of the shard worker that classified the package
	// (fixed per stream). Handlers that batch downstream work per shard —
	// one accumulator per shard needs no locking, because a shard calls its
	// Handler from one goroutine — key it by this.
	Shard int
	// Package is the classified package.
	Package *dataset.Package
	// Verdict is identical to what a sequential core.Session for this
	// stream would have produced.
	Verdict core.Verdict
}

// Handler receives every classified package. It is called on shard
// goroutines — possibly concurrently for packages of different shards — and
// must be safe for that; a slow handler stalls its shard and, through the
// bounded queues, eventually the submitters.
type Handler func(Result)

// packet is one queued unit of work: a burst of packages of one stream
// (pkgs non-empty, with the framework that classifies it), a barrier marker
// (barrier non-nil) that the worker acknowledges once everything queued
// before it has been classified and flushed, or a release marker (release
// non-nil) that drops the stream's shard state the same way.
type packet struct {
	stream string
	// pkgs is the burst: the stream's packages in submission order. The
	// worker only reads it.
	pkgs []*dataset.Package
	// pos and next are the worker-side wave cursor (see processRun): how
	// many packages of the burst have been classified, and the index of the
	// stream's next packet in the same run (-1 for none).
	pos, next int
	fw        *core.Framework
	barrier   *sync.WaitGroup
	release   *sync.WaitGroup
}

// Engine is a running multi-stream detection engine. Create one with New,
// feed it with SubmitBatchFor or TrySubmitBatchFor, stop it with Stop. The
// framework must not be mutated (SetK, Update, …) while the engine runs.
//
// Stream state (a Session with its per-level states) is retained until the
// stream is explicitly released — recurrent detection has no natural point
// to forget a stream on its own. Deployments that key streams by
// connection-scoped identities (the serving daemon maps one network
// connection to one stream) must call Release when the identity dies, or
// churn of distinct stream IDs grows memory without bound.
type Engine struct {
	fw      *core.Framework
	cfg     Config
	handler Handler
	shards  []*shard
	wg      sync.WaitGroup
	started time.Time
	stopped atomic.Bool
	// mu serializes submissions against Stop: submitters hold it shared
	// for the duration of their channel send, and Stop takes it exclusive
	// before closing the shard channels, so a racing submit returns the
	// stopped error instead of panicking on a closed channel.
	mu sync.RWMutex
	// bindings maps stream → *core.Framework, fixed by the stream's first
	// submission. Rebinding a live stream to a different model would
	// silently score it with the wrong weights, so admission enforces the
	// binding here, on the submit path, where it can return an error. A
	// plain string-keyed map under bindMu instead of a sync.Map: sync.Map
	// boxes the key on every Load/LoadOrStore, one heap allocation per
	// submitted package, while a built-in map lookup allocates nothing.
	bindMu   sync.RWMutex
	bindings map[string]*core.Framework
	// precisions maps stream → numeric tier for streams bound away from the
	// engine default by BindPrecision, under bindMu with bindings. Absent
	// means the configured Stack.Precision.
	precisions map[string]core.Precision
	// validated caches (framework, precision) pairs already proven to
	// support the engine's stack, so admission pays the stack resolution
	// once per pair instead of once per burst.
	validated sync.Map
	// firstPanic keeps the first handler/stage panic a shard worker
	// recovered; Stop surfaces it once the workers have drained.
	firstPanic atomic.Pointer[PanicError]
}

// PanicError is a panic a shard worker recovered from a Handler or stage
// (see ShardStats.HandlerPanics). The worker keeps running — a panicking
// handler must not wedge every stream pinned to its shard — and Stop
// returns the first recovered panic so it cannot pass silently.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack string
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: recovered handler panic: %v", p.Value)
}

// recordPanic keeps the first recovered panic for Stop.
func (e *Engine) recordPanic(v any) {
	e.firstPanic.CompareAndSwap(nil, &PanicError{Value: v, Stack: string(debug.Stack())})
}

// validationKey keys the validated cache: batching never mixes weights or
// numeric tiers, so support is proven per (framework, precision) pair.
type validationKey struct {
	fw   *core.Framework
	prec core.Precision
}

// New builds and starts an engine over a trained framework. handler may be
// nil when only the counters are of interest. The configured stack must
// resolve against the framework (levels beyond the built-in two need their
// stage models trained; see core.Framework.TrainStages).
func New(fw *core.Framework, cfg Config, handler Handler) (*Engine, error) {
	cfg = cfg.withDefaults()
	if _, err := fw.NewStack(cfg.Stack); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{
		fw:         fw,
		cfg:        cfg,
		handler:    handler,
		shards:     make([]*shard, cfg.Shards),
		started:    time.Now(),
		bindings:   make(map[string]*core.Framework),
		precisions: make(map[string]core.Precision),
	}
	for i := range e.shards {
		e.shards[i] = newShard(i, e)
	}
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		go s.run(&e.wg)
	}
	return e, nil
}

// shardFor pins a stream to a shard by FNV-1a hash, so stream placement is
// deterministic across runs and processes.
func (e *Engine) shardFor(stream string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= prime64
	}
	return e.shards[h%uint64(len(e.shards))]
}

// SubmitBatchFor admits a burst of packages of one stream, in order, as a
// single queue operation, blocking while the stream's shard queue is full
// (backpressure). It is the engine's blocking admission; TrySubmitBatchFor
// is the shedding one, and both run through the same admission rules:
//
//   - fw classifies the stream; nil means the engine's default framework.
//     fw must support the engine's stack at the stream's precision, proven
//     once per (framework, precision) pair.
//   - The first admitted burst binds the stream to its framework for the
//     lifetime of the engine (or until Release). A later burst under a
//     different framework (nil counts as the default) is rejected whole
//     before anything is enqueued: recurrent state is model-specific, so a
//     rebound stream would silently be scored with the wrong weights. The
//     binding is checked before the burst is enqueued and recorded only
//     after, so an admission that enqueues nothing binds nothing.
//   - Packages of one stream must be admitted from one goroutine at a time
//     to preserve stream order; distinct streams may submit concurrently.
//     Per-stream verdicts are exactly those of a sequential core.Session
//     over fw, in slice order, and barrier and release markers order
//     against whole bursts.
//
// A burst of one package is the per-package case: callers that admit one
// package at a time pass pkgs[i:i+1] of a slice they already hold, so no
// slice is allocated per package. The engine never writes to pkgs, but it
// reads it after the call returns, until the burst is classified: the
// caller must not modify the slice's elements before then. An empty burst
// is a no-op that binds nothing. Submitting during or after Stop returns an
// error.
func (e *Engine) SubmitBatchFor(fw *core.Framework, stream string, pkgs []*dataset.Package) error {
	_, err := e.admit(fw, stream, pkgs, true)
	return err
}

// TrySubmitBatchFor is SubmitBatchFor without blocking: a burst occupies one
// slot of the stream's shard queue, and when the queue is full the whole
// burst is shed and reported false instead of stalling the caller — the
// in-path shape of the serving daemon's live ingest, where shedding beats
// stalling the protocol path. All-or-nothing: a shed never splits a burst,
// so per-stream verdict sequences stay prefixes of the full sequence per
// admission decision, and a shed burst binds nothing. An empty burst
// reports true without enqueueing or binding anything.
func (e *Engine) TrySubmitBatchFor(fw *core.Framework, stream string, pkgs []*dataset.Package) (bool, error) {
	return e.admit(fw, stream, pkgs, false)
}

// admit is the single admission path behind SubmitBatchFor (block) and
// TrySubmitBatchFor (!block). It reports whether the burst was enqueued.
func (e *Engine) admit(fw *core.Framework, stream string, pkgs []*dataset.Package, block bool) (bool, error) {
	if len(pkgs) == 0 {
		return true, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return false, fmt.Errorf("engine: submit after Stop")
	}
	if err := e.validateFor(fw, stream); err != nil {
		return false, err
	}
	if fw == nil {
		fw = e.fw
	}
	e.bindMu.RLock()
	prev, bound := e.bindings[stream]
	e.bindMu.RUnlock()
	if bound && prev != fw {
		return false, fmt.Errorf("engine: stream %q is already bound to a different framework", stream)
	}
	pkt := packet{stream: stream, pkgs: pkgs, fw: fw}
	in := e.shardFor(stream).in
	if block {
		in <- pkt
	} else {
		select {
		case in <- pkt:
		default:
			return false, nil
		}
	}
	if !bound {
		e.bindMu.Lock()
		if _, ok := e.bindings[stream]; !ok {
			e.bindings[stream] = fw
		}
		e.bindMu.Unlock()
	}
	return true, nil
}

// validateFor proves once per (framework, precision) pair that a
// non-default framework supports the engine's stack at the stream's tier.
// The engine default was validated by New; nil means the default.
func (e *Engine) validateFor(fw *core.Framework, stream string) error {
	if fw == nil || fw == e.fw {
		return nil
	}
	key := validationKey{fw: fw, prec: e.precisionOf(stream)}
	if _, ok := e.validated.Load(key); !ok {
		if _, err := fw.NewStack(e.stackFor(key.prec)); err != nil {
			return fmt.Errorf("engine: submit for framework: %w", err)
		}
		e.validated.Store(key, struct{}{})
	}
	return nil
}

// StackSpec returns the engine's resolved stack spec (defaults applied):
// what every stream's sessions run, at the configured default precision.
func (e *Engine) StackSpec() core.StackSpec { return e.cfg.Stack }

// Shards returns the number of shard workers (defaults applied) — the
// index space of Result.Shard and Config.TickEnd.
func (e *Engine) Shards() int { return len(e.shards) }

// stackFor returns the engine's stack spec at the given numeric tier.
func (e *Engine) stackFor(p core.Precision) core.StackSpec {
	spec := e.cfg.Stack
	spec.Precision = p
	return spec
}

// precisionOf returns the numeric tier of a stream: its BindPrecision
// binding, or the configured default.
func (e *Engine) precisionOf(stream string) core.Precision {
	e.bindMu.RLock()
	p, ok := e.precisions[stream]
	e.bindMu.RUnlock()
	if !ok {
		p = e.cfg.Stack.Precision
	}
	if p == "" {
		p = core.PrecisionF64
	}
	return p
}

// BindPrecision pins a stream to a numeric tier before its first package:
// the stream's sessions and micro-batches run the engine's stack at p
// instead of the configured default, and — like the per-framework batches
// — streams of distinct tiers never share a batched pass. Binding must
// happen before the stream carries traffic (recurrent state is
// tier-specific, so re-tiering a live stream would corrupt it); an
// unsupported tier for the engine's stack is rejected here, fail-fast,
// with the same validation the -precision flag gets at startup.
func (e *Engine) BindPrecision(stream string, p core.Precision) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return fmt.Errorf("engine: bind precision after Stop")
	}
	if _, err := e.fw.NewStack(e.stackFor(p)); err != nil {
		return fmt.Errorf("engine: bind precision: %w", err)
	}
	e.bindMu.Lock()
	defer e.bindMu.Unlock()
	if _, active := e.bindings[stream]; active {
		return fmt.Errorf("engine: stream %q already carries traffic; precision is fixed at first package", stream)
	}
	if prev, ok := e.precisions[stream]; ok && prev != p {
		return fmt.Errorf("engine: stream %q is already bound to precision %s", stream, prev)
	}
	e.precisions[stream] = p
	return nil
}

// Release drops every trace of a stream — the shard's session state plus
// the framework and precision bindings — so the stream ID can be reused
// with fresh recurrent state (or a different model). It enqueues a release
// marker behind everything already submitted for the stream and waits for
// the shard to process it, so on return no in-flight package references the
// state and a resubmission of the same ID starts a brand-new session.
// Packages of the stream must not be submitted concurrently with Release
// (the same single-writer rule admission has). Release is how
// connection-scoped deployments keep ID churn from growing memory without
// bound: bind on accept, Release on close. Releasing an unknown stream is
// a no-op. Like SubmitBatchFor it blocks while the shard queue is full, and
// errors during or after Stop.
func (e *Engine) Release(stream string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return fmt.Errorf("engine: release after Stop")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	e.shardFor(stream).in <- packet{stream: stream, release: &wg}
	wg.Wait()
	// The shard state is gone; drop the submit-path bindings. New
	// submissions of this ID (the single-writer rule orders them after
	// Release returns) bind afresh.
	e.bindMu.Lock()
	delete(e.bindings, stream)
	delete(e.precisions, stream)
	e.bindMu.Unlock()
	return nil
}

// Barrier blocks until every package submitted before it has been fully
// processed — verdict delivered to the handler and stream state advanced
// through its batched steps — without stopping the engine. It is the
// replay entry point for workloads that feed the engine in bounded phases
// (one recorded trace after another through a single warm engine) and need
// a completion point between phases; unlike Stop it can be called
// repeatedly. Packages submitted concurrently with Barrier may land on
// either side of it. Barrier blocks while shard queues are full, like
// SubmitBatchFor, and returns an error during or after Stop.
func (e *Engine) Barrier() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return fmt.Errorf("engine: barrier after Stop")
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.in <- packet{barrier: &wg}
	}
	wg.Wait()
	return nil
}

// Stop drains every queued package, waits for the workers to finish, and
// releases them. Submissions racing Stop either land before the shutdown
// (their packages are drained) or return the stopped error; a submitter
// blocked on a full queue completes normally, because the workers keep
// draining until the channels close. Stop is idempotent, and every call
// waits for the drain. It returns the first panic a shard worker recovered
// during the engine's lifetime (as a *PanicError), or nil if no handler or
// stage ever panicked.
func (e *Engine) Stop() error {
	e.mu.Lock()
	already := e.stopped.Swap(true)
	e.mu.Unlock()
	if !already {
		for _, s := range e.shards {
			close(s.in)
		}
	}
	e.wg.Wait()
	if p := e.firstPanic.Load(); p != nil {
		return p
	}
	return nil
}

// shard is one worker: a partition of streams, its bounded input queue, its
// per-framework micro-batches, and its counters.
type shard struct {
	id      int
	e       *Engine
	in      chan packet
	streams map[string]*stream
	// batches holds one micro-batch per framework served by this shard.
	// Most engines serve a single framework, so the slice almost always
	// has one entry; a linear scan beats a map at that size and keeps the
	// flush order deterministic.
	batches []*fwBatch
	// tickBuf collects one drained tick of packets so batchable Check
	// scores can be precomputed before the packets are classified.
	tickBuf []packet
	// tick stamps streams seen in the current tick (precompute only covers
	// a stream's first packet of the tick — later packets depend on state
	// the earlier ones will move).
	tick uint64
	// runs stamps streams seen in the current run (see processRun); waves
	// is processRun's scratch list of the streams that still have packages
	// in the run.
	runs  uint64
	waves []*stream
	stats shardCounters
}

// fwBatch is the micro-batch state of one (framework, precision) pair
// within a shard: batched passes of streams bound to different frameworks
// must never share a pass (the weights differ), and neither may streams of
// different numeric tiers (the kernels differ), so each pair batches
// alone.
type fwBatch struct {
	fw      *core.Framework
	prec    core.Precision
	stack   *core.Stack
	batch   *core.StackBatch
	inBatch []*stream
	// chkFlushes/chkScored mirror the batch's cumulative check counters
	// already published to the shard stats.
	chkFlushes, chkScored uint64
}

// stream is the engine's per-stream state.
type stream struct {
	sess *core.Session
	// fb is the micro-batch of the framework this stream is bound to.
	fb  *fwBatch
	seq uint64
	// pending reports that a batched Advance step of this stream sits in
	// the current micro-batch: a second package of the same stream forces
	// a flush first, because its prediction depends on that step.
	pending bool
	// tickStamp marks the tick that already precomputed for this stream.
	tickStamp uint64
	// runStamp marks the run that already chained this stream's packets;
	// head and tail index its first unfinished and its last packet in that
	// run (head -1 once the stream's packages are all classified).
	runStamp   uint64
	head, tail int
}

func newShard(id int, e *Engine) *shard {
	return &shard{
		id:      id,
		e:       e,
		in:      make(chan packet, e.cfg.QueueDepth),
		streams: make(map[string]*stream),
		tickBuf: make([]packet, 0, e.cfg.QueueDepth+1),
	}
}

// batchFor returns the shard's micro-batch for a (framework, precision)
// pair, creating it on first use.
func (s *shard) batchFor(fw *core.Framework, prec core.Precision) *fwBatch {
	for _, fb := range s.batches {
		if fb.fw == fw && fb.prec == prec {
			return fb
		}
	}
	stack, err := fw.NewStack(s.e.stackFor(prec))
	if err != nil {
		// Admission/BindPrecision validated the pair before enqueueing
		// anything for it.
		panic(fmt.Sprintf("engine: stack for bound framework: %v", err))
	}
	fb := &fwBatch{
		fw:      fw,
		prec:    prec,
		stack:   stack,
		batch:   stack.NewBatch(s.e.cfg.MaxBatch),
		inBatch: make([]*stream, 0, s.e.cfg.MaxBatch),
	}
	s.batches = append(s.batches, fb)
	return fb
}

// streamFor returns a stream's shard state, creating its session under fw
// on first use.
func (s *shard) streamFor(id string, fw *core.Framework) *stream {
	st := s.streams[id]
	if st == nil {
		fb := s.batchFor(fw, s.e.precisionOf(id))
		st = &stream{sess: fb.stack.NewSession(), fb: fb}
		s.streams[id] = st
		s.stats.streams.Add(1)
	}
	return st
}

// run is the shard worker loop: block for one packet, drain whatever else
// is queued into the tick buffer (bounded by the queue depth), precompute
// the tick's batchable Check scores, and classify the tick. The tick splits
// into runs of bursts separated by barrier/release markers: each run is
// fully classified (processRun) before its following marker is handled, so
// marker ordering ("everything queued before") is exact. The tick ends with
// a flush and, when configured, the TickEnd callback.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for pkt := range s.in {
		tick := append(s.tickBuf[:0], pkt)
	drain:
		for len(tick) < cap(tick) {
			select {
			case more, ok := <-s.in:
				if !ok {
					break drain
				}
				tick = append(tick, more)
			default:
				break drain
			}
		}
		s.safe(func() { s.precompute(tick) })
		for i := 0; i < len(tick); {
			if len(tick[i].pkgs) == 0 {
				s.marker(tick[i])
				i++
				continue
			}
			j := i + 1
			for j < len(tick) && len(tick[j].pkgs) > 0 {
				j++
			}
			run := tick[i:j]
			s.safe(func() { s.processRun(run) })
			i = j
		}
		s.endTick()
	}
	s.endTick()
}

// endTick completes the tick's batched steps and runs the TickEnd callback.
func (s *shard) endTick() {
	s.safe(s.flush)
	if fn := s.e.cfg.TickEnd; fn != nil {
		s.safe(func() { fn(s.id) })
	}
}

// processRun classifies a marker-free run of bursts in waves: each wave
// classifies the next package of every stream that still has packages in
// the run, in order of the streams' first appearance, so the streams of the
// run keep advancing together through the micro-batch (one flush per wave,
// not one per package — the second package of a stream depends on the
// first one's queued Advance step). Per-stream order is exact: a stream's
// packets are chained in queue order (packet.next) and consumed front to
// back. A wave costs one step per stream it serves and every step
// classifies a package, so the run costs O(packages) however its bursts are
// shaped — a tick of many one-package bursts of one stream included.
func (s *shard) processRun(run []packet) {
	s.runs++
	waves := s.waves[:0]
	for i := range run {
		p := &run[i]
		st := s.streamFor(p.stream, p.fw)
		p.next = -1
		if st.runStamp != s.runs {
			st.runStamp = s.runs
			st.head = i
			waves = append(waves, st)
		} else {
			run[st.tail].next = i
		}
		st.tail = i
	}
	for len(waves) > 0 {
		live := waves[:0]
		for _, st := range waves {
			p := &run[st.head]
			s.classify(p.stream, st, p.pkgs[p.pos])
			if p.pos++; p.pos == len(p.pkgs) {
				st.head = p.next
			}
			if st.head >= 0 {
				live = append(live, st)
			}
		}
		waves = live
	}
	s.waves = waves
}

// classify runs handle behind a panic guard: a panicking Handler (or stage)
// must not kill the shard goroutine — every stream pinned to this shard
// would wedge while admission keeps blocking on the full queue. The panic
// is counted in HandlerPanics and the first one is kept for Stop. The
// panicking package's own stream may be left with a partially advanced
// session; every other stream keeps exact sequential semantics.
func (s *shard) classify(id string, st *stream, pkg *dataset.Package) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered(r)
		}
	}()
	s.handle(id, st, pkg)
}

// marker acknowledges a barrier or release marker. Shard FIFO ordered it
// behind everything queued before it, all of which has been classified;
// flushing completes their batched steps before the waiter is released (a
// released session is never advanced afterwards). The flush runs behind
// the panic guard, so a panicking stage cannot leave Barrier or Release
// waiting forever.
func (s *shard) marker(pkt packet) {
	s.safe(s.flush)
	if pkt.release != nil {
		s.dropStream(pkt.stream)
		pkt.release.Done()
		return
	}
	pkt.barrier.Done()
}

// safe runs fn behind the same panic guard as classify, for the shared
// per-tick phases (precompute, flush, TickEnd) that are not tied to one
// package.
func (s *shard) safe(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered(r)
		}
	}()
	fn()
}

func (s *shard) recovered(r any) {
	s.stats.handlerPanics.Add(1)
	s.e.recordPanic(r)
}

// dropStream forgets a stream's shard state (release marker processing).
func (s *shard) dropStream(stream string) {
	if _, ok := s.streams[stream]; ok {
		delete(s.streams, stream)
		s.stats.released.Add(1)
	}
}

// precompute batches the Check-phase work of the tick: for the first
// package of every stream in the tick, each check-batchable stage (the
// PCA/GMM window levels) scores the upcoming package through its batched
// kernel and deposits the result in the stream state, where the
// sequential Check phase picks it up. Later packages of the same stream
// score inline — their stage state depends on the earlier packages'
// Advance — and take the bitwise-identical scalar path.
func (s *shard) precompute(tick []packet) {
	// Nothing to do unless some framework's stack batches Check scores —
	// the default two-level stack skips the whole pass (streams only
	// exist under frameworks with a batch, so an absent batch means no
	// batchable stream either).
	needed := false
	for _, fb := range s.batches {
		if fb.batch.HasCheck() {
			needed = true
			break
		}
	}
	if !needed {
		return
	}
	s.tick++
	queued := false
	for _, pkt := range tick {
		if len(pkt.pkgs) == 0 {
			// Barrier and release markers carry no package to score.
			continue
		}
		st := s.streams[pkt.stream]
		if st == nil || st.tickStamp == s.tick {
			// A stream's very first package can have no batchable window
			// (window levels need a cycle of history), so skipping unknown
			// streams loses nothing.
			continue
		}
		st.tickStamp = s.tick
		st.fb.batch.QueueCheck(st.sess, pkt.pkgs[0])
		queued = true
	}
	if !queued {
		return
	}
	for _, fb := range s.batches {
		fb.batch.FlushCheck()
		// Publish the batch's cumulative counters (they also cover
		// batches flushed mid-queue when a stage's batch filled).
		flushes, scored := fb.batch.CheckBatchStats()
		s.stats.checkBatches.Add(flushes - fb.chkFlushes)
		s.stats.checkBatched.Add(scored - fb.chkScored)
		fb.chkFlushes, fb.chkScored = flushes, scored
	}
}

// handle classifies one package of one stream against its session and
// defers the batchable Advance steps into the micro-batch.
func (s *shard) handle(id string, st *stream, pkg *dataset.Package) {
	if st.pending || st.fb.batch.AdvanceFull() {
		s.flush()
	}
	v, pc := st.sess.ClassifyOnly(pkg)
	if st.fb.batch.QueueAdvance(st.sess, pc, v) {
		st.pending = true
		st.fb.inBatch = append(st.fb.inBatch, st)
	}

	s.stats.packages.Add(1)
	s.stats.byLevel[levelIndex(v.Level)].Add(1)
	if s.e.handler != nil {
		s.e.handler(Result{Stream: id, Seq: st.seq, Shard: s.id, Package: pkg, Verdict: v})
	}
	st.seq++
}

// flush advances every queued stream through one batched pass per stage
// per framework, in the deterministic first-seen framework order.
func (s *shard) flush() {
	for _, fb := range s.batches {
		n := fb.batch.AdvanceLen()
		if n == 0 {
			continue
		}
		s.stats.batched.Add(uint64(n))
		s.stats.batches.Add(1)
		fb.batch.FlushAdvance()
		for _, st := range fb.inBatch {
			st.pending = false
		}
		fb.inBatch = fb.inBatch[:0]
	}
}
