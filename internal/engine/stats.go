package engine

import (
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
)

// levelOverflow is the counter bucket for verdict levels outside the
// core.Level space (an embedder-registered stage reporting a custom
// level). Keeping them off LevelNone keeps Anomalies() honest.
const levelOverflow = int(core.NumLevels)

// levelIndex maps a verdict level into the per-level counter array,
// clamping out-of-range values onto the overflow bucket rather than
// panicking a shard worker.
func levelIndex(l core.Level) int {
	if l < 0 || l >= core.NumLevels {
		return levelOverflow
	}
	return int(l)
}

// shardCounters are the per-shard atomics, updated on the worker goroutine
// and read by Stats snapshots without any coordination.
type shardCounters struct {
	packages atomic.Uint64
	streams  atomic.Uint64
	// released counts streams dropped by Engine.Release; handlerPanics
	// counts panics the worker recovered from a Handler or stage.
	released      atomic.Uint64
	handlerPanics atomic.Uint64
	// batches/batched count batched Advance passes and the deferred steps
	// they executed; checkBatches/checkBatched count batched Check-score
	// passes (the window levels' precompute) and the scores they produced.
	batches      atomic.Uint64
	batched      atomic.Uint64
	checkBatches atomic.Uint64
	checkBatched atomic.Uint64
	// byLevel counts verdicts per detection level, indexed by core.Level,
	// with one extra overflow slot for out-of-range custom levels.
	byLevel [core.NumLevels + 1]atomic.Uint64
}

// ShardStats is a point-in-time snapshot of one shard's counters.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Packages is the number of packages classified.
	Packages uint64
	// Streams is the number of distinct streams seen; Released counts the
	// ones since dropped by Engine.Release, so Streams-Released is the
	// shard's live state footprint.
	Streams  uint64
	Released uint64
	// HandlerPanics counts panics the shard worker recovered from a
	// Handler or stage; the worker keeps serving, and Stop returns the
	// first recovered panic value.
	HandlerPanics uint64
	// ByLevel splits Packages by verdict level, indexed by core.Level.
	ByLevel [core.NumLevels]uint64
	// OtherLevels counts verdicts whose level falls outside the core.Level
	// space (custom registered stages).
	OtherLevels uint64
	// Batches counts batched Advance passes; Batched counts the deferred
	// steps they advanced. Batched/Batches is the mean micro-batch width.
	Batches, Batched uint64
	// CheckBatches counts batched Check-score passes; CheckBatched counts
	// the scores they precomputed.
	CheckBatches, CheckBatched uint64
	// QueueDepth and QueueCap describe the shard's bounded input channel at
	// snapshot time, in queued admissions (a burst counts as one).
	QueueDepth, QueueCap int
}

// Anomalies is the number of packages flagged by any level.
func (s ShardStats) Anomalies() uint64 { return s.Packages - s.ByLevel[core.LevelNone] }

// Stats is an engine-wide snapshot.
type Stats struct {
	// Packages, Streams, Released, HandlerPanics, Batches, Batched,
	// CheckBatches and CheckBatched aggregate the shard counters.
	Packages, Streams          uint64
	Released, HandlerPanics    uint64
	Batches, Batched           uint64
	CheckBatches, CheckBatched uint64
	// ByLevel splits Packages by verdict level, indexed by core.Level.
	ByLevel [core.NumLevels]uint64
	// OtherLevels counts verdicts whose level falls outside the core.Level
	// space (custom registered stages).
	OtherLevels uint64
	// QueueDepth sums the queued-but-unprocessed admissions across shards:
	// a queued burst counts as one, whatever its width, as do barrier and
	// release markers.
	QueueDepth int
	// Elapsed is the time since the engine started.
	Elapsed time.Duration
}

// Anomalies is the number of packages flagged by any level.
func (s Stats) Anomalies() uint64 { return s.Packages - s.ByLevel[core.LevelNone] }

// ActiveStreams is the number of streams currently holding engine state
// (seen and not yet released).
func (s Stats) ActiveStreams() uint64 { return s.Streams - s.Released }

// PerSecond is the mean classification rate over the snapshot's Elapsed
// window. On an Engine.Stats snapshot that window is the whole engine
// lifetime — a daemon idle overnight reports a rate diluted toward zero
// forever — so long-running services should rate from interval deltas
// instead: Since(prev).PerSecond() is the mean rate between two snapshots.
func (s Stats) PerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Packages) / s.Elapsed.Seconds()
}

// Since returns the interval delta between two snapshots of the same
// engine: every cumulative counter minus its value in prev, with Elapsed
// set to the wall time between the snapshots — so PerSecond, MeanBatch and
// friends on the result are interval rates, not lifetime means. QueueDepth
// is a gauge, not a counter, and keeps s's point-in-time value. prev must
// be the earlier snapshot (the zero Stats works as "since start").
func (s Stats) Since(prev Stats) Stats {
	d := s
	d.Packages -= prev.Packages
	d.Streams -= prev.Streams
	d.Released -= prev.Released
	d.HandlerPanics -= prev.HandlerPanics
	d.Batches -= prev.Batches
	d.Batched -= prev.Batched
	d.CheckBatches -= prev.CheckBatches
	d.CheckBatched -= prev.CheckBatched
	for i := range d.ByLevel {
		d.ByLevel[i] -= prev.ByLevel[i]
	}
	d.OtherLevels -= prev.OtherLevels
	d.Elapsed -= prev.Elapsed
	return d
}

// MeanBatch is the mean micro-batch width of the batched Advance passes so
// far.
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Batched) / float64(s.Batches)
}

// snapshot reads the shard's counters.
func (s *shard) snapshot() ShardStats {
	st := ShardStats{
		Shard:         s.id,
		Packages:      s.stats.packages.Load(),
		Streams:       s.stats.streams.Load(),
		Released:      s.stats.released.Load(),
		HandlerPanics: s.stats.handlerPanics.Load(),
		Batches:       s.stats.batches.Load(),
		Batched:       s.stats.batched.Load(),
		CheckBatches:  s.stats.checkBatches.Load(),
		CheckBatched:  s.stats.checkBatched.Load(),
		QueueDepth:    len(s.in),
		QueueCap:      cap(s.in),
	}
	for i := range st.ByLevel {
		st.ByLevel[i] = s.stats.byLevel[i].Load()
	}
	st.OtherLevels = s.stats.byLevel[levelOverflow].Load()
	return st
}

// ShardStats snapshots every shard without stopping the world: counters are
// atomics, so a snapshot taken while the workers run is a consistent-enough
// view for monitoring (each counter is exact; cross-counter skew is bounded
// by whatever the workers did during the snapshot).
func (e *Engine) ShardStats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.snapshot()
	}
	return out
}

// Stats aggregates the shard counters into one engine-wide snapshot.
func (e *Engine) Stats() Stats {
	var st Stats
	for _, s := range e.shards {
		ss := s.snapshot()
		st.Packages += ss.Packages
		st.Streams += ss.Streams
		st.Released += ss.Released
		st.HandlerPanics += ss.HandlerPanics
		st.Batches += ss.Batches
		st.Batched += ss.Batched
		st.CheckBatches += ss.CheckBatches
		st.CheckBatched += ss.CheckBatched
		for i := range ss.ByLevel {
			st.ByLevel[i] += ss.ByLevel[i]
		}
		st.OtherLevels += ss.OtherLevels
		st.QueueDepth += ss.QueueDepth
	}
	st.Elapsed = time.Since(e.started)
	return st
}
