// Package measure holds the measurement cores behind cmd/hybsweep's
// grid cells: one function per bench leg (counter, sharded, async,
// batch, phases, chaos), each driving the native harness for a fixed
// duration and returning one benchfmt.Record.
package measure

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/benchfmt"
	"hybsync/internal/chaos"
	"hybsync/internal/telemetry"
	"hybsync/object"
)

// telemetryOff inverts the default: measurement cores arm telemetry
// unless SetTelemetry(false) disarmed it, so records carry latency and
// run-length fields out of the box and the overhead-sensitive CI gates
// opt out explicitly (hybsweep -telemetry=false).
var telemetryOff atomic.Bool

// SetTelemetry arms (true, the default) or disarms (false) telemetry
// for every subsequently started measurement core.
func SetTelemetry(on bool) { telemetryOff.Store(!on) }

// newTel returns a fresh armed metric core, or nil when SetTelemetry
// disarmed measurement telemetry — nil flows through WithTelemetry and
// every record hook as the zero-cost disarmed state.
func newTel() *telemetry.Telemetry {
	if telemetryOff.Load() {
		return nil
	}
	return telemetry.New()
}

// opts sizes every construction generously enough for any thread
// count the benches drive, and attaches tel as its metric core.
func opts(tel *telemetry.Telemetry) []hybsync.Option {
	return []hybsync.Option{hybsync.WithMaxThreads(256), hybsync.WithTelemetry(tel)}
}

// telFields copies tel's merged histograms onto rec: the sampled
// blocking-latency percentiles and the unsampled run-length profile.
// A nil tel (telemetry disarmed) or an empty histogram leaves the
// corresponding field absent, matching the pointer-omitted schema.
func telFields(rec *benchfmt.Record, tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	snap := tel.Snapshot()
	if l := snap.Latency; l.Count > 0 {
		rec.Lat = &benchfmt.Latency{
			P50:     l.Quantile(0.50),
			P90:     l.Quantile(0.90),
			P99:     l.Quantile(0.99),
			P999:    l.Quantile(0.999),
			Max:     l.Max,
			Samples: l.Count,
		}
	}
	if r := snap.RunLen; r.Count > 0 {
		rec.RunLen = &benchfmt.RunLength{
			P50:        r.Quantile(0.50),
			P99:        r.Quantile(0.99),
			Max:        r.Max,
			Mean:       r.Mean(),
			Dispatches: r.Count,
		}
	}
}

// The live-executor registry: every measurement core tracks the
// executor (or executor-backed object) it is driving for the duration
// of the run. A sweep harness whose per-cell timeout fires can then
// call PoisonLive to condemn whatever the abandoned cell leaked — its
// waiters unblock with ErrPoisoned and its server goroutines drain and
// exit — instead of leaking a wedged construction until process exit.
var (
	liveMu sync.Mutex
	live   = make(map[any]struct{})
)

// poisonable matches hybsync.Poisonable and the object wrappers'
// Poison passthroughs.
type poisonable interface{ Poison(v any) }

// track registers x as live under label (and, when tel is armed, in
// the telemetry registry the /debug/hybsync endpoint walks) and
// returns the combined untrack function (defer it at the start of a
// measurement core).
func track(x any, label string, tel *telemetry.Telemetry) func() {
	liveMu.Lock()
	live[x] = struct{}{}
	liveMu.Unlock()
	unreg := telemetry.Register(label, tel)
	return func() {
		unreg()
		liveMu.Lock()
		delete(live, x)
		liveMu.Unlock()
	}
}

// PoisonLive condemns every live tracked executor with reason and
// returns how many accepted the fault. It is safe from any goroutine —
// the sweep runner's OnTimeout hook calls it while the abandoned cell
// is still running. Each condemnation is counted in the telemetry
// registry's timeout-condemns counter.
func PoisonLive(reason any) int {
	liveMu.Lock()
	defer liveMu.Unlock()
	n := 0
	for x := range live {
		if p, ok := x.(poisonable); ok {
			p.Poison(reason)
			telemetry.NoteCondemned()
			n++
		}
	}
	return n
}

// pipeOf extracts the pipeline counters when src implements
// hybsync.PipelineStats (read after every handle flushed).
func pipeOf(src any) *benchfmt.Pipeline {
	if p, ok := src.(hybsync.PipelineStats); ok {
		st, d := p.Pipeline()
		return &benchfmt.Pipeline{SubmitStalls: st, MaxDepth: d}
	}
	return nil
}

// Counter measures one counter-increment point: th goroutines of
// blocking Inc round trips through algo (plus the executor's combining
// stats, when it keeps them).
func Counter(algo string, th int, dur time.Duration) (benchfmt.Record, error) {
	tel := newTel()
	c, err := object.NewCounter(algo, opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("NewCounter(%s): %w", algo, err)
	}
	defer c.Close()
	defer track(c, "counter/"+algo, tel)()
	res := harness.RunNativeDrain(th, dur, 50, func(int) (func(uint64), func()) {
		h, err := c.NewHandle()
		if err != nil {
			panic(err)
		}
		return func(uint64) { h.Inc() }, nil
	})
	rec := benchfmt.FromNative("counter", algo, th, res)
	rec.Rounds, rec.Combined, _ = c.Stats()
	telFields(&rec, tel)
	rec.Finish()
	return rec, nil
}

// Sharded measures one sharded-counter point: th goroutines drive
// keyed increments (keys drawn from dist) through a router over
// nshards executors of algo. The record carries the per-shard
// occupancy profile and its max/min fairness.
func Sharded(algo string, nshards int, dist harness.Dist, th int, dur time.Duration) (benchfmt.Record, error) {
	tel := newTel()
	c, err := object.NewShardedCounter(algo, nshards, opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("NewShardedCounter(%s, %d): %w", algo, nshards, err)
	}
	defer c.Close()
	defer track(c, "sharded/"+algo, tel)()
	res := harness.RunNativeDrain(th, dur, 50, func(t int) (func(uint64), func()) {
		h, err := c.NewHandle()
		if err != nil {
			panic(err)
		}
		draw := dist.Sampler(t)
		return func(uint64) {
			if _, err := h.Inc(draw()); err != nil {
				panic(err)
			}
		}, nil
	})
	rec := benchfmt.FromNative("sharded", algo, th, res)
	rec.Shards, rec.Dist = nshards, dist.Label()
	occ := c.Occupancy()
	sf := harness.NativeResult{PerThread: occ}.Fairness()
	rec.ShardOps, rec.ShardFairness = occ, &sf
	rec.Rounds, rec.Combined, _ = c.Stats()
	if st, d, ok := c.Pipeline(); ok {
		rec.Pipe = &benchfmt.Pipeline{SubmitStalls: st, MaxDepth: d}
	}
	telFields(&rec, tel)
	rec.Finish()
	return rec, nil
}

// Async measures one pipelined point: th goroutines drive the native
// counter workload keeping up to depth submissions outstanding per
// handle (a sliding window of Submit with Wait on the oldest once the
// window fills). depth 1 degenerates to the blocking Apply round
// trip; deeper windows let a pipelining construction overlap
// submissions.
func Async(algo string, depth, th int, dur time.Duration) (benchfmt.Record, error) {
	var state uint64
	tel := newTel()
	ex, err := hybsync.New(algo, func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}, opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("New(%s): %w", algo, err)
	}
	defer track(ex, "async/"+algo, tel)()
	// Each worker drains its own window in its own goroutine (the drain
	// half of RunNativeDrain), while its peers are still running: with
	// CC-Synch a stopping thread's unwaited cell can hold the combiner
	// duty another thread's in-loop Wait is spinning on, so deferring
	// every Flush until all workers exited would deadlock.
	res := harness.RunNativeDrain(th, dur, 50, func(t int) (func(uint64), func()) {
		h := hybsync.MustHandle(ex)
		win := make([]hybsync.Ticket, depth)
		var head, count int
		body := func(uint64) {
			if count == depth {
				h.Wait(win[head])
				head = (head + 1) % depth
				count--
			}
			tk, err := h.Submit(0, 0)
			if err != nil {
				panic(err)
			}
			win[(head+count)%depth] = tk
			count++
		}
		return body, h.Flush
	})
	rec := benchfmt.FromNative("async", algo, th, res)
	rec.Depth = depth
	if s, ok := ex.(hybsync.StatsSource); ok {
		rec.Rounds, rec.Combined = s.Stats()
	}
	rec.Pipe = pipeOf(ex)
	if err := ex.Close(); err != nil {
		return benchfmt.Record{}, fmt.Errorf("Close(%s): %w", algo, err)
	}
	telFields(&rec, tel)
	rec.Finish()
	return rec, nil
}

// Phases measures one phase-shifting point: th goroutines drive
// blocking counter increments through algo, but only during the burst
// half of each phase period (all threads burst together — see
// harness.Phases). This is the workload the adaptive "hybrid"
// construction targets: contention arrives in waves, so the right
// construction differs between the burst and the tail of each period.
// The record carries the phase spec in the dist field and, when algo
// adapts, its promotion/demotion counts.
func Phases(algo string, ph harness.Phases, th int, dur time.Duration) (benchfmt.Record, error) {
	var state uint64
	tel := newTel()
	ex, err := hybsync.New(algo, func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}, opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("New(%s): %w", algo, err)
	}
	defer track(ex, "phases/"+algo, tel)()
	res := ph.RunPhased(th, dur, 50, func(int) (func(uint64), func()) {
		h := hybsync.MustHandle(ex)
		return func(uint64) { h.Apply(0, 0) }, nil
	})
	rec := benchfmt.FromNative("phases", algo, th, res)
	rec.Dist = ph.Label()
	if s, ok := ex.(hybsync.StatsSource); ok {
		rec.Rounds, rec.Combined = s.Stats()
	}
	rec.Pipe = pipeOf(ex)
	if a, ok := ex.(hybsync.AdaptiveStats); ok {
		p, d := a.Transitions()
		rec.Adapt = &benchfmt.Adaptive{Promotions: p, Demotions: d}
	}
	if err := ex.Close(); err != nil {
		return benchfmt.Record{}, fmt.Errorf("Close(%s): %w", algo, err)
	}
	if state != res.Ops {
		return benchfmt.Record{}, fmt.Errorf("phases(%s): conservation violated: object executed %d ops, harness counted %d",
			algo, state, res.Ops)
	}
	telFields(&rec, tel)
	rec.Finish()
	return rec, nil
}

// batchCounter is the batch bench's native object: a run of increments
// reads the shared value once, hands out results from a register and
// writes the sum back — the object-side amortization DispatchBatch
// exists for.
type batchCounter struct{ state uint64 }

func (o *batchCounter) DispatchBatch(reqs []hybsync.Req, results []uint64) {
	v := o.state
	for i := range reqs {
		results[i] = v
		v++
	}
	o.state = v
}

// Batch measures one batched point: th goroutines each repeatedly
// issue one ApplyBatch of b increments (reqs/results reused across
// calls). Ops and the per-thread counts are rescaled to individual
// operations, so ns_per_op and fairness are directly comparable with
// the per-op Apply path; the combiner rounds/combined counters are NOT
// attached — their unit is ill-defined for batched submissions
// (benchfmt.Record.Finish strips them anyway).
func Batch(algo string, b, th int, dur time.Duration) (benchfmt.Record, error) {
	obj := &batchCounter{}
	tel := newTel()
	ex, err := hybsync.NewObject(algo, obj, opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("NewObject(%s): %w", algo, err)
	}
	defer track(ex, "batch/"+algo, tel)()
	res := harness.RunNativeDrain(th, dur, 50, func(int) (func(uint64), func()) {
		h := hybsync.MustHandle(ex)
		reqs := make([]hybsync.Req, b)
		rets := make([]uint64, b)
		return func(uint64) { h.ApplyBatch(reqs, rets) }, nil
	})
	// One iteration is b operations; rescale so Ops/Mops/fairness are
	// per operation. ApplyBatch blocks until its batch completed, so
	// nothing is in flight at close.
	res.Ops *= uint64(b)
	for i := range res.PerThread {
		res.PerThread[i] *= uint64(b)
	}
	rec := benchfmt.FromNative("batch", algo, th, res)
	rec.Batch, rec.Path = b, benchfmt.PathBatch
	rec.Pipe = pipeOf(ex)
	if err := ex.Close(); err != nil {
		return benchfmt.Record{}, fmt.Errorf("Close(%s): %w", algo, err)
	}
	telFields(&rec, tel)
	rec.Finish()
	return rec, nil
}

// Chaos measures one fault-tolerance point: th goroutines drive the
// batch counter through algo while a seeded schedule perturber shakes
// every backoff wait and the object injects periodic delays — the
// throughput cost of running under adversarial scheduling. The run is
// bracketed by two checks that fail the measurement loudly rather than
// record garbage: a containment probe (a second executor of the same
// construction over a panic-injected object must poison cleanly while
// the measured one keeps running) and a conservation check (the
// counter's final state must equal the operations the harness
// counted).
func Chaos(algo string, seed uint64, th int, dur time.Duration) (benchfmt.Record, error) {
	restore := chaos.NewPerturber(seed).Install()
	defer restore()

	// One metric core spans the probe and the measured run, so the
	// record's fault counters include the probe's deliberate poison —
	// chaos output proves containment happened, not just that nothing
	// crashed.
	tel := newTel()
	condemned0 := telemetry.CondemnedCount()

	// Containment probe: an injected panic in this construction must
	// poison that executor without taking the process (or the measured
	// executor below) with it.
	probe, err := hybsync.NewObject(algo, chaos.PanicOnNth(&batchCounter{}, 1), opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("NewObject(%s): %w", algo, err)
	}
	hybsync.MustHandle(probe).Apply(0, 0)
	if probe.Err() == nil {
		probe.Close()
		return benchfmt.Record{}, fmt.Errorf("chaos(%s): injected panic did not poison the probe executor", algo)
	}
	probe.Close() // reports the probe's PoisonError; expected

	base := &batchCounter{}
	obj := chaos.Delay(base, seed, 256, 50*time.Microsecond)
	ex, err := hybsync.NewObject(algo, obj, opts(tel)...)
	if err != nil {
		return benchfmt.Record{}, fmt.Errorf("NewObject(%s): %w", algo, err)
	}
	defer track(ex, "chaos/"+algo, tel)()
	res := harness.RunNativeDrain(th, dur, 50, func(int) (func(uint64), func()) {
		h := hybsync.MustHandle(ex)
		return func(uint64) { h.Apply(0, 0) }, nil
	})
	if err := ex.Close(); err != nil {
		return benchfmt.Record{}, fmt.Errorf("Close(%s): %w", algo, err)
	}
	if base.state != res.Ops {
		return benchfmt.Record{}, fmt.Errorf("chaos(%s): conservation violated: object executed %d ops, harness counted %d",
			algo, base.state, res.Ops)
	}
	rec := benchfmt.FromNative("chaos", algo, th, res)
	telFields(&rec, tel)
	if tel != nil {
		snap := tel.Snapshot()
		rec.Faults = &benchfmt.Faults{
			Poisons:         snap.Poisons,
			StallReports:    snap.Stalls,
			TimeoutCondemns: telemetry.CondemnedCount() - condemned0,
		}
	}
	rec.Finish()
	return rec, nil
}
