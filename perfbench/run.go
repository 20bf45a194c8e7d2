package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybsync/harness"
	"hybsync/internal/core"
)

// algos are the constructions every workload measures: the paper's two
// message-passing constructions, its shared-memory combining baseline,
// the adaptive hybrid and a queue lock.
var algos = []string{"mpserver", "hybcomb", "ccsynch", "hybrid", "mcs-lock"}

// workload is one closed-loop input: how many clients, how much local
// work between a client's calls, and whether the clients share one P.
type workload struct {
	clients   int
	localWork uint64
	oneProc   bool
	kv        bool
}

// workloads are chosen so that each layer is exercised by one workload
// and bypassed by another:
//   - solo is the uncontended round trip: the lock fast path, the poison
//     latch, disarmed telemetry and mpserver's cross-core send and reply;
//     combining and hand-off do almost nothing.
//   - contended adds a second client with random local work between its
//     calls, the paper's method, so combining, hand-off, the MPSC ring
//     under concurrent senders, the backoff spin rung and hybrid
//     promotion carry the load.
//   - timeshare is contended on one P: hand-off goes through the backoff
//     yield rung and a lock holder can be preempted.
//   - kv puts reads beside writes on a 2-shard map with Zipf keys: the
//     router, the cross-shard MultiApply pipeline, per-request
//     allocation, shard skew and waking idle servers.
//
// The local work is 0-32 reads of the monotonic clock (see think; about
// 0-1.5 us) rather than the paper's 0-50 iterations of
// harness.LocalWork. At 0-50 iterations the two clients fall, trial by
// trial, into one of two schedules, strict alternation or one client
// streaming while the other waits, and a run's median latency flipped
// between them (hybcomb's between 220 and 1130 ns on contended,
// mcs-lock's between 130 and 830 ns on timeshare). With no local work
// or 0-500 iterations some construction still sat on that edge
// (ccsynch's median moved between 350 and 620 ns, hybrid's and
// mcs-lock's by over a quarter). With 0-2000 iterations, about 0-1.5
// us, calls still contend, the median being two to three times solo's.
// The work is clock reads rather than loop iterations because the
// figures are scaled by the clock-pair cost (see hostspeed.go), and an
// integer loop does not slow down with the host the way the rest of a
// trial does.
var workloads = map[string]workload{
	"solo":      {clients: 1},
	"contended": {clients: 2, localWork: 32},
	"timeshare": {clients: 2, localWork: 32, oneProc: true},
	"kv":        {clients: kvClients, kv: true},
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// wrap, when set, wraps the counter object before it reaches the
	// construction; the tests use it to inject a faulty object.
	wrap func(core.Object) core.Object
}

const (
	// trialTarget is the length a trial aims for; a run is split into
	// rounds in which every construction runs one trial, in a seeded
	// order, so that drift of the host hits all of them alike.
	trialTarget = 100 * time.Millisecond
	// warmSlice is the untimed warm-up trial each construction runs first.
	warmSlice = 50 * time.Millisecond
	// hangAfter is how long clients may take to return once told to stop
	// before the trial is declared hung.
	hangAfter = 20 * time.Second
)

var errHung = errors.New("clients did not return after stop")

// drive runs body on one goroutine per client from a common start until
// slice has passed, then stops them and waits. It returns the time from
// the start until the last client returned, or errHung when a client
// does not return within hangAfter of the stop.
func drive(clients int, slice time.Duration, body func(c int, stop *atomic.Bool)) (time.Duration, error) {
	var stop atomic.Bool
	start := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			<-start
			body(c, &stop)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	t0 := time.Now()
	close(start)
	time.Sleep(slice)
	stop.Store(true)
	timer := time.NewTimer(hangAfter)
	defer timer.Stop()
	select {
	case <-done:
		return time.Since(t0), nil
	case <-timer.C:
		return time.Since(t0), errHung
	}
}

// trial is one construction's run of one workload: set up, driven for a
// slice, checked and torn down.
type trial struct {
	algo       string
	opsPerCall float64
	setup      time.Duration
	elapsed    time.Duration
	ops        uint64
	failed     uint64 // ops whose own result was wrong
	err        error  // a fault that fails every op of the trial
	hung       bool
	// pair is the clock-pair cost in ns, the mean of its measurements
	// right before and right after the trial (see hostspeed.go).
	pair float64

	// The trial's sampled call latencies, summarised.
	p50, latMean float64
	latSketch    []uint32
	samples      int

	// Traced trials only.
	tracers   []*tracer
	stats     execStats
	imbalance float64
	// Untraced trials of a traced run only.
	mallocs uint64
}

// setLatency summarises the clients' sampled call latencies.
func (t *trial) setLatency(clients []*sampler) {
	var p pool
	for _, s := range clients {
		p.add(s)
	}
	t.p50, t.latMean, t.samples = p.quantile(0.50), p.mean(), p.samples()
	t.latSketch = p.sketch()
}

// broken ends a trial that could not be set up or did not finish.
func (t *trial) broken(err error) trial {
	t.err = err
	t.hung = errors.Is(err, errHung)
	return *t
}

// fault records the first trial-level fault.
func (t *trial) fault(err error) {
	if t.err == nil {
		t.err = err
	}
}

// runMark is what beginRun samples before the clients start.
type runMark struct {
	mallocs uint64
	stats   []execStats
}

func (t *trial) beginRun(execs []core.Executor, traced, countAllocs bool) runMark {
	var m runMark
	if countAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.mallocs = ms.Mallocs
	}
	if traced {
		for _, ex := range execs {
			m.stats = append(m.stats, readExecStats(ex))
		}
	}
	return m
}

// endRun reads the allocation and stats deltas at quiescence.
func (t *trial) endRun(execs []core.Executor, m runMark, traced, countAllocs bool) {
	if countAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.mallocs = ms.Mallocs - m.mallocs
	}
	if traced {
		for i, ex := range execs {
			s := readExecStats(ex)
			s.sub(m.stats[i])
			t.stats.add(s)
		}
	}
}

// selfCheck holds a traced trial to the tracer's own invariants: the
// dispatched op count equals the clients' op count exactly, no two
// dispatches overlapped, and no dispatcher was busy longer than the
// trial lasted.
func (t *trial) selfCheck() {
	var ops uint64
	for _, tc := range t.tracers {
		ops += tc.ops
		if n := tc.overlaps.Load(); n > 0 {
			t.fault(fmt.Errorf("%s: self-check: %d overlapping dispatches", t.algo, n))
		}
		if tc.busy > t.elapsed {
			t.fault(fmt.Errorf("%s: self-check: dispatch busy %v in a %v trial", t.algo, tc.busy, t.elapsed))
		}
	}
	if ops != t.ops {
		t.fault(fmt.Errorf("%s: self-check: %d ops dispatched, clients completed %d", t.algo, ops, t.ops))
	}
}

// tally counts attempted and failed ops over a run. A trial-level fault
// fails every op the trial attempted (at least one).
type tally struct {
	attempted, failed uint64
}

func (y *tally) add(t trial) {
	if t.err != nil {
		n := max(t.ops, 1)
		y.attempted += n
		y.failed += n
		return
	}
	y.attempted += t.ops
	y.failed += t.failed
}

// bench holds what the trials of one run share.
type bench struct {
	cfg  config
	w    workload
	zipf *harness.Zipf // kv only
}

func (b *bench) trial(algo string, seed uint64, slice time.Duration, traced, countAllocs bool) trial {
	runtime.GC()
	before := clockPair()
	var t trial
	if b.w.kv {
		t = b.kvTrial(algo, seed, slice, traced, countAllocs)
	} else {
		t = b.counterTrial(algo, seed, slice, traced, countAllocs)
	}
	t.pair = (before + clockPair()) / 2
	return t
}

// slowdown is how many times slower than at the reference clock-pair
// cost the host ran the trial: its rate is multiplied by it and its
// times are divided by it.
func (t *trial) slowdown() float64 { return t.pair / refClockPair }

// result is the closing JSON line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and writes its human-readable report
// to out; the caller prints the returned result.
func run(cfg config, out io.Writer) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want solo, contended, timeshare or kv)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("seconds must be positive, got %g", cfg.seconds)
	}
	procs := runtime.NumCPU()
	if w.oneProc {
		procs = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fmt.Fprintf(out, "# perfbench workload=%s trace=%t seed=%d seconds=%g %s\n",
		cfg.workload, cfg.trace, cfg.seed, cfg.seconds, hostContext())

	b := &bench{cfg: cfg, w: w}
	if w.kv {
		z, err := harness.NewZipf(kvKeys, kvTheta, cfg.seed)
		if err != nil {
			return result{}, err
		}
		b.zipf = z
	}

	kinds := 1
	if cfg.trace {
		kinds = 2
	}
	rounds := max(2, int(cfg.seconds/(trialTarget.Seconds()*float64(len(algos)*kinds))))
	slice := time.Duration(cfg.seconds * float64(time.Second) / float64(rounds*len(algos)*kinds))
	rng := harness.NewXorShift(cfg.seed)

	var y tally
	plain := map[string][]trial{}
	traced := map[string][]trial{}
	setups := make([]float64, rounds)
	keep := func(t trial) bool {
		y.add(t)
		if t.err != nil {
			fmt.Fprintf(out, "# FAIL %v\n", t.err)
		}
		return !t.hung
	}
	finish := func(metrics map[string]metric) (result, error) {
		return result{Correct: y.failed == 0, Attempted: max(y.attempted, 1), Failed: y.failed, Metrics: metrics}, nil
	}

	for _, a := range algos {
		if !keep(b.trial(a, rng.Next(), warmSlice, false, false)) {
			return finish(map[string]metric{})
		}
	}
	for r := 0; r < rounds; r++ {
		for _, i := range permutation(&rng, len(algos)) {
			a := algos[i]
			for k := 0; k < kinds; k++ {
				tracedNow := cfg.trace && (k+r)%2 == 1
				t := b.trial(a, rng.Next(), slice, tracedNow, cfg.trace && !tracedNow)
				if !keep(t) {
					return finish(map[string]metric{})
				}
				if tracedNow {
					traced[a] = append(traced[a], t)
				} else {
					plain[a] = append(plain[a], t)
					setups[r] += t.setup.Seconds() / t.slowdown()
				}
			}
		}
	}

	if cfg.trace {
		metrics := layerMetrics(plain, traced, w)
		for k, v := range blockMetrics() {
			metrics[k] = v
		}
		reportOverhead(out, cfg.workload, metrics)
		return finish(metrics)
	}
	return finish(e2eMetrics(out, plain, setups))
}

// permutation returns a seeded random order of 0..n-1.
func permutation(rng *harness.XorShift, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// e2eMetrics are what a client sees, per construction, at the
// reference clock-pair cost (see hostspeed.go): throughput in million
// critical-section ops per second and the median call latency, each the
// median over the run's trials of the trial's figure; the p99 call
// latency of the run's trials pooled with equal weight; and the run's
// set-up time, the median over rounds of the five constructions' summed
// set-up. Latencies include one clock pair. The centre is a median over
// trials because a trial that falls into an unusual schedule (one client
// streaming while the other waits) completes several times the calls of
// a normal one; the tail is pooled because a minority of trials in such
// a schedule decides a single trial's p99. The report also gives the
// unscaled throughput and median latency and the median clock-pair cost.
func e2eMetrics(out io.Writer, byAlgo map[string][]trial, setups []float64) map[string]metric {
	m := map[string]metric{}
	var pairs []float64
	for _, a := range algos {
		var rates, p50s, rawRates, rawP50s []float64
		var tails pool
		samples := 0
		for _, t := range byAlgo[a] {
			f := t.slowdown()
			rate := float64(t.ops) / t.elapsed.Seconds() / 1e6
			rates = append(rates, rate*f)
			p50s = append(p50s, t.p50/f)
			rawRates = append(rawRates, rate)
			rawP50s = append(rawP50s, t.p50)
			tails.addValues(scaled(t.latSketch, 1/f), 1)
			samples += t.samples
			pairs = append(pairs, t.pair)
		}
		mops, p50, p99 := median(rates), median(p50s), tails.quantile(0.99)
		m["mops."+a] = metric{mops, "Mop/s"}
		m["p50_ns."+a] = metric{p50, "ns"}
		m["p99_ns."+a] = metric{p99, "ns"}
		fmt.Fprintf(out, "# %-9s %8.3f Mop/s  p50 %7.1f ns  p99 %8.1f ns  unscaled %8.3f Mop/s  p50 %7.1f ns  (%d trials, %d latency samples)\n",
			a, mops, p50, p99, median(rawRates), median(rawP50s), len(byAlgo[a]), samples)
	}
	fmt.Fprintf(out, "# clock pair: median %.1f ns over the run's trials, reference %.1f ns\n", median(pairs), refClockPair)
	m["setup_s"] = metric{median(setups), "s"}
	return m
}

// scaled returns vals multiplied by f, rounded.
func scaled(vals []uint32, f float64) []uint32 {
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = uint32(min(float64(v)*f+0.5, float64(^uint32(0))))
	}
	return out
}

// layerMetrics are the traced run's per-construction breakdown; see
// BENCHMARK.json for the list and README.md in this directory for what
// each one means.
func layerMetrics(plain, traced map[string][]trial, w workload) map[string]metric {
	m := map[string]metric{}
	for _, a := range algos {
		var busy, elapsed time.Duration
		var ops, dispatches, clientOps, mallocs, plainOps uint64
		var gaps pool
		var latSum, latN float64
		var stats execStats
		var plainRates, tracedRates, imbalance []float64
		opsPerCall := 1.0
		for _, t := range traced[a] {
			opsPerCall = t.opsPerCall
			for _, tc := range t.tracers {
				busy += tc.busy
				elapsed += t.elapsed
				ops += tc.ops
				dispatches += tc.dispatches
				gaps.add(&tc.gaps)
			}
			latSum += t.latMean
			latN++
			clientOps += t.ops
			stats.add(t.stats)
			imbalance = append(imbalance, t.imbalance)
			tracedRates = append(tracedRates, float64(t.ops)/t.elapsed.Seconds())
		}
		for _, t := range plain[a] {
			mallocs += t.mallocs
			plainOps += t.ops
			plainRates = append(plainRates, float64(t.ops)/t.elapsed.Seconds())
		}
		csNs := ratio(float64(busy.Nanoseconds()), float64(ops))
		per := func(x uint64) float64 { return ratio(float64(x), float64(clientOps)) }
		m["cs_ns_per_op."+a] = metric{csNs, "ns"}
		m["ops_per_dispatch."+a] = metric{ratio(float64(ops), float64(dispatches)), "op/dispatch"}
		m["cs_busy_frac."+a] = metric{ratio(float64(busy), float64(elapsed)), "frac"}
		m["handoff_ns."+a] = metric{gaps.quantile(0.5), "ns"}
		m["sync_ns_per_op."+a] = metric{ratio(latSum, latN)/opsPerCall - csNs, "ns"}
		m["allocs_per_op."+a] = metric{ratio(float64(mallocs), float64(plainOps)), "alloc/op"}
		m["tracing_overhead_frac."+a] = metric{ratio(median(plainRates), median(tracedRates)) - 1, "frac"}
		m["shard_imbalance."+a] = metric{median(imbalance), "ratio"}
		if stats.hasCombined {
			m["combined_frac."+a] = metric{per(stats.combined), "frac"}
		}
		if stats.hasPipe {
			m["submit_stalls_per_op."+a] = metric{per(stats.stalls), "stall/op"}
			m["max_depth."+a] = metric{float64(stats.maxDepth), "count"}
		}
		if stats.hasRetries {
			m["lock_retries_per_op."+a] = metric{per(stats.retries), "retry/op"}
		}
		if stats.hasAdaptive {
			m["transitions."+a] = metric{float64(stats.transitions), "count"}
		}
	}
	var overheads []float64
	for _, a := range algos {
		overheads = append(overheads, m["tracing_overhead_frac."+a].Value)
	}
	m["bench.tracing_overhead_frac"] = metric{median(overheads), "frac"}
	return m
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// reportOverhead prints the traced run's tracing overhead per
// construction, so that every per-layer figure can be read against it.
func reportOverhead(out io.Writer, workload string, m map[string]metric) {
	fmt.Fprintf(out, "# tracing overhead on %s:", workload)
	for _, a := range algos {
		fmt.Fprintf(out, " %s %+.1f%%", a, 100*m["tracing_overhead_frac."+a].Value)
	}
	fmt.Fprintf(out, " (median %+.1f%%)\n", 100*m["bench.tracing_overhead_frac"].Value)
}
