// Command hybsweep is the native bench driver and scenario lab: it
// enumerates the grid algo × threads × shards × dist × depth × batch,
// runs one internal/measure core per valid cell, and streams one
// self-contained JSONL record per cell — measured, skipped (with a
// reason), or failed (panic or timeout). A point benchmark is a
// one-cell grid. A ranked per-scenario summary with algorithm
// crossover points goes to stderr, so stdout redirection yields a
// clean JSONL artifact.
//
// Cells run one at a time: cells measured concurrently would contend
// for the same cores and distort each other's numbers.
//
// Cells whose axis combination the execution model does not define
// are skipped, not errored: depth>1 cells need the scalar uniform
// counter workload (the async window has no keyed or batched
// variant), batch>1 likewise, and depth>1 with batch>1 is exclusive
// by construction. The skip lines keep the grid product honest — a
// consumer can verify every cell was either measured or explicitly
// declined.
//
// Two dist values are not key distributions but scenarios over the
// scalar blocking counter: phase:period:duty selects the
// phase-shifting leg (harness.Phases) and chaos:seed the
// fault-containment leg (measure.Chaos: a seeded schedule perturber,
// injected dispatch delays, a panic-containment probe and a
// conservation check).
//
// GOMAXPROCS is deliberately not an axis: it is process-global, so
// one process measures one setting and records it in every line's
// host context. Sweep files from different GOMAXPROCS runs
// concatenate into one artifact (that is how BENCH_sweep.jsonl is
// built).
//
// Usage:
//
//	hybsweep > sweep.jsonl
//	hybsweep -grid 'algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32'
//	GOMAXPROCS=2 hybsweep -grid 'threads=2,4;shards=1,2;dist=uniform,zipf:0.99'
//	hybsweep -grid 'algo=hybrid,mcs-lock;dist=phase:5ms:0.5,chaos:1'
//	hybsweep -dur 50ms -cell-timeout 30s -out sweep.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/benchfmt"
	"hybsync/internal/measure"
	"hybsync/internal/sweep"
	"hybsync/internal/telemetry/export"
)

// The grid axes in enumeration order. Defaults keep the product small
// enough for a casual run; -grid overrides any subset.
func defaultGrid() (*sweep.Grid, error) {
	return sweep.New(
		sweep.Axis{Name: "algo", Values: []string{"mpserver", "hybcomb", "shmserver", "ccsynch", "mcs-lock"}},
		sweep.Axis{Name: "threads", Values: []string{"1", "2"}},
		sweep.Axis{Name: "shards", Values: []string{"1"}},
		sweep.Axis{Name: "dist", Values: []string{"uniform"}},
		sweep.Axis{Name: "depth", Values: []string{"1"}},
		sweep.Axis{Name: "batch", Values: []string{"1"}},
	)
}

// Skip reasons for grid corners the execution model does not define.
const (
	skipBatchDepth = "batch-and-depth-exclusive"
	skipAsyncKeyed = "async-over-keyed-unsupported"
	skipBatchKeyed = "batch-over-keyed-unsupported"
)

// cellAxes is one cell's decoded bindings.
type cellAxes struct {
	algo    string
	threads int
	shards  int
	dist    string
	depth   int
	batch   int
}

func decode(c sweep.Cell) (cellAxes, error) {
	var a cellAxes
	var err error
	a.algo = c.Get("algo")
	a.dist = c.Get("dist")
	if a.threads, err = c.Int("threads"); err != nil {
		return a, err
	}
	if a.shards, err = c.Int("shards"); err != nil {
		return a, err
	}
	if a.depth, err = c.Int("depth"); err != nil {
		return a, err
	}
	if a.batch, err = c.Int("batch"); err != nil {
		return a, err
	}
	return a, nil
}

// scenarioLeg returns the bench leg a scenario dist value selects
// ("phases" for phase:..., "chaos" for chaos:...), or "" for a key
// distribution.
func scenarioLeg(dist string) string {
	switch {
	case harness.IsPhaseSpec(dist):
		return "phases"
	case strings.HasPrefix(dist, "chaos:"):
		return "chaos"
	}
	return ""
}

// parseChaos parses a chaos:seed dist value.
func parseChaos(label string) (uint64, error) {
	seed, err := strconv.ParseUint(strings.TrimPrefix(label, "chaos:"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad chaos seed (want chaos:N)")
	}
	return seed, nil
}

// classify maps a cell to its bench leg, or to a skip reason when the
// combination is undefined. A cell is keyed when it shards the object
// or skews the key distribution; the async and batch legs drive the
// scalar uniform counter workload only. A scenario dist value
// (phase:... or chaos:...) is not a key distribution at all — it
// selects its own leg, which drives the scalar blocking counter
// workload only.
func (a cellAxes) classify() (bench, skip string) {
	if leg := scenarioLeg(a.dist); leg != "" {
		switch {
		case a.depth > 1:
			return "", leg + "-over-async-unsupported"
		case a.batch > 1:
			return "", leg + "-over-batch-unsupported"
		case a.shards > 1:
			return "", leg + "-over-sharded-unsupported"
		default:
			return leg, ""
		}
	}
	keyed := a.shards > 1 || a.dist != "uniform"
	switch {
	case a.depth > 1 && a.batch > 1:
		return "", skipBatchDepth
	case a.depth > 1 && keyed:
		return "", skipAsyncKeyed
	case a.batch > 1 && keyed:
		return "", skipBatchKeyed
	case a.depth > 1:
		return "async", ""
	case a.batch > 1:
		return "batch", ""
	case keyed:
		return "sharded", ""
	default:
		return "counter", ""
	}
}

func main() {
	gridFlag := flag.String("grid", "", "axis overrides, e.g. 'algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32' (axes: algo, threads, shards, dist, depth, batch)")
	dur := flag.Duration("dur", 100*time.Millisecond, "measurement duration per cell")
	keys := flag.Uint64("keys", 1<<16, "key-space size for keyed (sharded/zipf) cells")
	cellTimeout := flag.Duration("cell-timeout", 60*time.Second, "hard per-cell timeout; a cell exceeding it is recorded as failed and its goroutine abandoned")
	out := flag.String("out", "-", "JSONL destination ('-' = stdout)")
	telFlag := flag.Bool("telemetry", true, "arm per-executor telemetry: cell records carry latency_ns/run_len fields (false = disarmed hot path, for overhead-sensitive gating)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/hybsync and /debug/vars on this address (e.g. localhost:6060) for the sweep's duration")
	flag.Parse()

	measure.SetTelemetry(*telFlag)
	if *debugAddr != "" {
		addr, err := export.Start(*debugAddr)
		if err != nil {
			fatalf("-debug-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "hybsweep: telemetry at http://%s/debug/hybsync\n", addr)
	}

	grid, err := defaultGrid()
	if err != nil {
		fatalf("%v", err)
	}
	if *gridFlag != "" {
		if err := grid.ParseOverrides(*gridFlag); err != nil {
			fatalf("-grid: %v", err)
		}
	}

	// Validate every axis value before any cell runs: numeric axes
	// parse as positive ints, algos resolve against the registry, and
	// dist labels parse once into shared samplers.
	for _, axis := range []string{"threads", "shards", "depth", "batch"} {
		if _, err := grid.IntAxis(axis); err != nil {
			fatalf("-grid: %v", err)
		}
	}
	registered := make(map[string]bool)
	for _, name := range hybsync.Algorithms() {
		registered[name] = true
	}
	algoValues, _ := grid.Values("algo")
	for _, name := range algoValues {
		if !registered[name] {
			fatalf("-grid: unknown algorithm %q (have: %s)", name, strings.Join(hybsync.Algorithms(), ", "))
		}
	}
	distValues, _ := grid.Values("dist")
	dists := make(map[string]harness.Dist, len(distValues))
	phases := make(map[string]harness.Phases)
	chaosSeeds := make(map[string]uint64)
	for _, label := range distValues {
		switch scenarioLeg(label) {
		case "phases":
			p, err := harness.ParsePhases(label)
			if err != nil {
				fatalf("-grid: dist %q: %v", label, err)
			}
			phases[label] = p
			continue
		case "chaos":
			seed, err := parseChaos(label)
			if err != nil {
				fatalf("-grid: dist %q: %v", label, err)
			}
			chaosSeeds[label] = seed
			continue
		}
		d, err := harness.ParseDist(label, *keys)
		if err != nil {
			fatalf("-grid: dist %q: %v", label, err)
		}
		dists[label] = d
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	jsonl := sweep.NewJSONLWriter(w)
	host := benchfmt.CurrentHost()

	runner := &sweep.Runner{
		Timeout: *cellTimeout,
		// A timed-out cell's goroutine is abandoned, but the executor it
		// was driving must not wedge forever: poisoning every live
		// tracked executor completes the abandoned cell's waiters with
		// ErrPoisoned and lets its server goroutines drain and exit.
		OnTimeout: func(c sweep.Cell) {
			if n := measure.PoisonLive(fmt.Sprintf("hybsweep: cell %s exceeded -cell-timeout", c)); n > 0 {
				fmt.Fprintf(os.Stderr, "hybsweep: cell %s timed out; poisoned %d live executor(s)\n", c, n)
			}
		},
		Check: func(c sweep.Cell) string {
			a, err := decode(c)
			if err != nil {
				return "" // let Run surface the decode error as a failure
			}
			_, skip := a.classify()
			return skip
		},
		Run: func(c sweep.Cell) (any, error) {
			a, err := decode(c)
			if err != nil {
				return nil, err
			}
			bench, _ := a.classify()
			switch bench {
			case "counter":
				return measure.Counter(a.algo, a.threads, *dur)
			case "sharded":
				return measure.Sharded(a.algo, a.shards, dists[a.dist], a.threads, *dur)
			case "async":
				return measure.Async(a.algo, a.depth, a.threads, *dur)
			case "batch":
				return measure.Batch(a.algo, a.batch, a.threads, *dur)
			case "phases":
				return measure.Phases(a.algo, phases[a.dist], a.threads, *dur)
			case "chaos":
				return measure.Chaos(a.algo, chaosSeeds[a.dist], a.threads, *dur)
			default:
				return nil, fmt.Errorf("cell %s: no bench leg", c)
			}
		},
	}

	cells := grid.Cells()
	start := time.Now()
	var measuredRecs []benchfmt.SweepRecord
	var writeErr error
	measured, skipped, failed := runner.Sweep(cells, func(res sweep.Result) {
		rec := benchfmt.SweepRecord{
			SchemaVersion: benchfmt.SchemaVersion,
			Host:          host,
			Cell:          res.Cell.Index,
			ElapsedMs:     float64(res.Elapsed.Microseconds()) / 1e3,
		}
		switch {
		case res.Skip != "":
			rec.Skip = res.Skip
		case res.Err != nil:
			rec.Error = res.Err.Error()
			fmt.Fprintf(os.Stderr, "hybsweep: cell %d (%s) FAILED: %v\n", res.Cell.Index, res.Cell, res.Err)
		default:
			rec.Record = res.Value.(benchfmt.Record)
		}
		if rec.Bench == "" {
			// Skipped and failed cells still describe themselves: axis
			// fields from the cell, no throughput fields.
			if a, err := decode(res.Cell); err == nil {
				rec.Algo, rec.Threads = a.algo, a.threads
				rec.Shards, rec.Dist = a.shards, a.dist
				rec.Depth, rec.Batch = a.depth, a.batch
			}
		} else {
			// Measured cells: make every axis explicit so each line is
			// self-contained for cell-keyed consumers (benchguard).
			if a, err := decode(res.Cell); err == nil {
				rec.Shards, rec.Dist = a.shards, a.dist
				rec.Depth, rec.Batch = a.depth, a.batch
			}
			measuredRecs = append(measuredRecs, rec)
		}
		rec.Finish()
		if err := jsonl.Write(rec); err != nil && writeErr == nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		fatalf("writing JSONL: %v", writeErr)
	}
	if err := jsonl.Flush(); err != nil {
		fatalf("flushing JSONL: %v", err)
	}

	fmt.Fprintf(os.Stderr, "hybsweep: %d cells (GOMAXPROCS=%d): %d measured, %d skipped, %d failed in %v\n",
		len(cells), host.GoMaxProcs, measured, skipped, failed, time.Since(start).Round(time.Millisecond))
	summarize(os.Stderr, measuredRecs)
	if failed > 0 {
		os.Exit(1)
	}
}

// scenario identifies one ranking group: every axis except algo.
type scenario struct {
	bench   string
	threads int
	shards  int
	dist    string
	depth   int
	batch   int
}

func (s scenario) String() string {
	return fmt.Sprintf("%s t=%d s=%d %s d=%d b=%d", s.bench, s.threads, s.shards, s.dist, s.depth, s.batch)
}

// series is a scenario minus the thread axis — the unit of crossover
// analysis.
type series struct {
	bench  string
	shards int
	dist   string
	depth  int
	batch  int
}

func (s series) String() string {
	return fmt.Sprintf("%s s=%d %s d=%d b=%d", s.bench, s.shards, s.dist, s.depth, s.batch)
}

// summarize prints the ranked per-scenario view (every algorithm
// ordered by throughput within each cell group) and the crossover
// report (the thread counts at which the best algorithm changes —
// the paper's central claim made visible: delegation overtakes
// locking as contention grows).
func summarize(w *os.File, recs []benchfmt.SweepRecord) {
	if len(recs) == 0 {
		return
	}
	groups := map[scenario][]benchfmt.SweepRecord{}
	for _, r := range recs {
		key := scenario{r.Bench, r.Threads, r.Shards, r.Dist, r.Depth, r.Batch}
		groups[key] = append(groups[key], r)
	}
	keys := make([]scenario, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.bench != b.bench {
			return a.bench < b.bench
		}
		if a.shards != b.shards {
			return a.shards < b.shards
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.batch != b.batch {
			return a.batch < b.batch
		}
		return a.threads < b.threads
	})

	fmt.Fprintln(w, "ranked by Mops within each scenario:")
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool { return g[i].Mops > g[j].Mops })
		parts := make([]string, len(g))
		for i, r := range g {
			parts[i] = fmt.Sprintf("%s %.2f", r.Algo, r.Mops)
		}
		fmt.Fprintf(w, "  %-40s %s\n", k.String()+":", strings.Join(parts, " > "))
	}

	// Crossovers: walk each series by ascending thread count and
	// report where the winner changes.
	best := map[series]map[int]string{}
	for k, g := range groups {
		top := g[0]
		for _, r := range g[1:] {
			if r.Mops > top.Mops {
				top = r
			}
		}
		sk := series{k.bench, k.shards, k.dist, k.depth, k.batch}
		if best[sk] == nil {
			best[sk] = map[int]string{}
		}
		best[sk][k.threads] = top.Algo
	}
	seriesKeys := make([]series, 0, len(best))
	for k := range best {
		if len(best[k]) > 1 {
			seriesKeys = append(seriesKeys, k)
		}
	}
	sort.Slice(seriesKeys, func(i, j int) bool { return seriesKeys[i].String() < seriesKeys[j].String() })
	fmt.Fprintln(w, "crossovers (best algo by thread count):")
	any := false
	for _, sk := range seriesKeys {
		byThread := best[sk]
		threads := make([]int, 0, len(byThread))
		for t := range byThread {
			threads = append(threads, t)
		}
		sort.Ints(threads)
		var steps []string
		prev := ""
		changed := false
		for _, t := range threads {
			algo := byThread[t]
			if algo != prev {
				steps = append(steps, fmt.Sprintf("%s (t=%d)", algo, t))
				if prev != "" {
					changed = true
				}
				prev = algo
			}
		}
		if changed {
			any = true
			fmt.Fprintf(w, "  %-32s %s\n", sk.String()+":", strings.Join(steps, " -> "))
		}
	}
	if !any {
		fmt.Fprintln(w, "  (none: one algorithm dominates every series at the measured thread counts)")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hybsweep: "+format+"\n", args...)
	os.Exit(1)
}
