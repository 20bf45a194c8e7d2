package main

import (
	"sync/atomic"
	"time"

	"hybsync/internal/core"
)

// epoch is the origin of the benchmark's monotonic timestamps.
var epoch = time.Now()

// now reads the monotonic clock once (time.Now reads it and the wall
// clock); a timed interval costs one pair of these, bench.clock_pair_ns.
func now() time.Duration { return time.Since(epoch) }

// tracer wraps the Object a construction executes against and measures
// the executor layer from outside: how long each DispatchBatch runs, how
// many operations it carries, and the gap since the previous one ended.
// It also asserts mutual exclusion: a dispatch that starts while another
// is still running is counted as an overlap. The plain fields are only
// written inside DispatchBatch, which the construction runs in mutual
// exclusion; the overlap flag is atomic so that a construction which
// breaks that promise is caught rather than raced.
type tracer struct {
	obj      core.Object
	inside   atomic.Bool
	overlaps atomic.Uint64

	ops        uint64
	dispatches uint64
	busy       time.Duration
	lastEnd    time.Duration
	gaps       sampler
}

func newTracer(obj core.Object) *tracer {
	return &tracer{obj: obj, gaps: newSampler()}
}

// DispatchBatch implements core.Object.
func (t *tracer) DispatchBatch(reqs []core.Req, results []uint64) {
	if t.inside.Swap(true) {
		t.overlaps.Add(1)
	}
	defer t.inside.Store(false)
	start := now()
	if t.dispatches > 0 && t.gaps.tick() {
		t.gaps.record(start - t.lastEnd)
	}
	t.obj.DispatchBatch(reqs, results)
	end := now()
	t.busy += end - start
	t.ops += uint64(len(reqs))
	t.dispatches++
	t.lastEnd = end
}

// reset forgets everything dispatched so far (the kv prefill), so that a
// trial's counts start at its first timed call. Call it only while no
// operation is in flight.
func (t *tracer) reset() {
	t.ops, t.dispatches, t.busy = 0, 0, 0
	t.gaps = newSampler()
}

// execStats are the counters a construction exposes through the public
// stats interfaces, read at quiescence after a trial. has records which
// interfaces the construction implements.
type execStats struct {
	combined, stalls, maxDepth, retries, transitions uint64
	hasCombined, hasPipe, hasRetries, hasAdaptive    bool
}

func readExecStats(ex core.Executor) execStats {
	var s execStats
	if src, ok := ex.(core.StatsSource); ok {
		_, s.combined = src.Stats()
		s.hasCombined = true
	}
	if src, ok := ex.(core.PipelineStats); ok {
		s.stalls, s.maxDepth = src.Pipeline()
		s.hasPipe = true
	}
	if src, ok := ex.(core.RetryStats); ok {
		s.retries = src.Retries()
		s.hasRetries = true
	}
	if src, ok := ex.(core.AdaptiveStats); ok {
		p, d := src.Transitions()
		s.transitions = p + d
		s.hasAdaptive = true
	}
	return s
}

// sub turns s into the counts accrued since prev; maxDepth is a
// high-water mark and stays as read.
func (s *execStats) sub(prev execStats) {
	s.combined -= prev.combined
	s.stalls -= prev.stalls
	s.retries -= prev.retries
	s.transitions -= prev.transitions
}

// add folds another executor's counters in (the shards of one map).
func (s *execStats) add(o execStats) {
	s.combined += o.combined
	s.stalls += o.stalls
	s.maxDepth = max(s.maxDepth, o.maxDepth)
	s.retries += o.retries
	s.transitions += o.transitions
	s.hasCombined = s.hasCombined || o.hasCombined
	s.hasPipe = s.hasPipe || o.hasPipe
	s.hasRetries = s.hasRetries || o.hasRetries
	s.hasAdaptive = s.hasAdaptive || o.hasAdaptive
}
