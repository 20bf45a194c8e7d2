// Package benchfmt is the one definition of the repo's benchmark
// record format: self-contained SweepRecord JSONL lines, one per
// measured, skipped or failed cell. cmd/hybsweep writes it, every
// committed BENCH_*.jsonl file holds it, and cmd/benchguard reads it —
// one schema, no parallel struct definitions drifting apart.
//
// Schema history:
//
//	v1 (unversioned): an indented JSON envelope with
//	    gomaxprocs/goversion/numcpu and per-point results; batch-path
//	    records carried combiner rounds/combined counters whose unit
//	    is ill-defined for batched submissions.
//	v2 (this package): schema_version on every JSONL line;
//	    ApplyBatch-path records omit rounds/combined (see
//	    Record.Finish); SweepRecord adds cell index, skip reason,
//	    error, elapsed time and inline host context. Every committed
//	    perf file is v2 JSONL.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"hybsync/harness"
)

// SchemaVersion is the version stamped on everything this package
// writes. Bump it when a field changes meaning, not when one is added:
// added fields are backward-compatible by construction.
const SchemaVersion = 2

// PathBatch is the path of a record measured through ApplyBatch. Its
// batch field counts operations per submission, so rounds/combined
// are stripped (see Finish). Per-op Apply records leave path empty
// (older committed records say "apply"), so a size-1 ApplyBatch cell
// never shares an identity with the per-op path.
const PathBatch = "batch"

// Host is the measurement context that makes records comparable
// across machines and runs.
type Host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goversion"`
	NumCPU     int    `json:"numcpu"`
}

// CurrentHost captures the running process's context.
func CurrentHost() Host {
	return Host{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
	}
}

// Pipeline is the PipelineStats payload of a record; zero values are
// meaningful (an unstalled run reports submit_stalls 0), so the whole
// struct is pointer-omitted rather than field-omitted.
type Pipeline struct {
	SubmitStalls uint64 `json:"submit_stalls"`
	MaxDepth     uint64 `json:"max_depth"`
}

// Latency is the telemetry latency payload of a record: sampled
// blocking-call latency in nanoseconds. Percentiles are log₂-bucket
// upper bounds (within 2× of the true value — see internal/telemetry);
// Samples is the sample count, not the op count. Present only on runs
// measured with telemetry armed (pointer-omitted, like Pipeline).
type Latency struct {
	P50     uint64 `json:"p50"`
	P90     uint64 `json:"p90"`
	P99     uint64 `json:"p99"`
	P999    uint64 `json:"p999"`
	Max     uint64 `json:"max"`
	Samples uint64 `json:"samples"`
}

// RunLength is the telemetry run-length payload of a record: requests
// per DispatchBatch run the construction formed (a combining round's
// serve, a server drain, a lock-path batch). Unsampled — Dispatches
// counts every run. Percentiles are log₂-bucket upper bounds; Mean is
// exact.
type RunLength struct {
	P50        uint64  `json:"p50"`
	P99        uint64  `json:"p99"`
	Max        uint64  `json:"max"`
	Mean       float64 `json:"mean"`
	Dispatches uint64  `json:"dispatches"`
}

// Faults is the fault-containment payload of a record: poison-latch
// trips, stall-watchdog reports and timeout condemnations observed
// during the run. Emitted by the chaos bench (where faults are
// injected on purpose) so containment is visible in JSON instead of
// pass/fail only; zero values are meaningful there.
type Faults struct {
	Poisons         uint64 `json:"poisons"`
	StallReports    uint64 `json:"stall_reports"`
	TimeoutCondemns uint64 `json:"timeout_condemns"`
}

// Adaptive is the mode-transition payload of a record: how often an
// adaptive construction promoted (lock → delegation) and demoted
// (delegation → lock) during the run. Emitted only for executors
// implementing hybsync.AdaptiveStats; zero values are meaningful (a
// phased run where the hybrid never left lock mode is a finding), so
// the whole struct is pointer-omitted like Pipeline.
type Adaptive struct {
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
}

// Record is one measured point. The shard_* fields appear only on
// sharded-bench records: shard_ops is the per-shard occupancy profile
// (how the keyed workload actually landed) and shard_fairness its
// max/min ratio (1.0 = perfectly balanced).
type Record struct {
	Bench   string  `json:"bench,omitempty"`
	Algo    string  `json:"algo"`
	Threads int     `json:"threads"`
	Ops     uint64  `json:"ops"`
	Mops    float64 `json:"mops"`
	NsPerOp float64 `json:"ns_per_op"`
	// Fairness is the max/min per-thread op-count ratio (1 = ideal).
	// On batch-path records the per-thread counts are rescaled to
	// operations before the ratio is taken, so it stays comparable.
	Fairness float64 `json:"fairness,omitempty"`
	// Rounds/Combined are the executor's combining counters; see the
	// core.StatsSource godoc for the canonical semantics (including why
	// the scalar identity rounds+combined==ops fails on batch paths —
	// Finish strips both from ApplyBatch-path records for that reason).
	Rounds   uint64   `json:"rounds,omitempty"`
	Combined uint64   `json:"combined,omitempty"`
	Shards   int      `json:"shards,omitempty"`
	Dist     string   `json:"dist,omitempty"`
	Depth    int      `json:"depth,omitempty"`
	Batch    int      `json:"batch,omitempty"`
	Path     string   `json:"path,omitempty"`
	ShardOps []uint64 `json:"shard_ops,omitempty"`
	// A pointer so sharded records keep the meaningful value 0 ("some
	// shard was never touched") while non-sharded records omit the
	// field entirely.
	ShardFairness *float64   `json:"shard_fairness,omitempty"`
	Pipe          *Pipeline  `json:"pipeline,omitempty"`
	Lat           *Latency   `json:"latency_ns,omitempty"`
	RunLen        *RunLength `json:"run_len,omitempty"`
	Faults        *Faults    `json:"faults,omitempty"`
	Adapt         *Adaptive  `json:"adaptive,omitempty"`
}

// FromNative builds a Record from one harness measurement, deriving
// the throughput metrics. Callers layer the bench-specific fields on
// top and call Finish last.
func FromNative(bench, algo string, threads int, res harness.NativeResult) Record {
	r := Record{
		Bench: bench, Algo: algo, Threads: threads,
		Ops: res.Ops, Mops: res.Mops(), Fairness: res.Fairness(),
	}
	return r
}

// Finish normalizes a record before it is written anywhere:
//
//   - derives ns_per_op from mops;
//   - enforces batch-record stats honesty: an ApplyBatch-path record
//     drops the combiner rounds/combined counters, whose scalar
//     identity fails on batch paths — the core.StatsSource godoc is
//     the canonical statement of why. The telemetry run-length
//     histogram stays: it counts requests per dispatch run uniformly
//     on every path.
//
// Finish is idempotent; every writer calls it as the last step.
func (r *Record) Finish() {
	if r.Mops > 0 {
		r.NsPerOp = 1e3 / r.Mops
	}
	if r.Path == PathBatch {
		r.Rounds, r.Combined = 0, 0
	}
}

// SweepRecord is one line of sweep JSONL (BENCH_*.jsonl). Every line
// is self-contained — it carries the schema version and host context
// inline — so sweep files from different GOMAXPROCS runs concatenate
// into one artifact and a consumer never needs an envelope.
//
// Exactly one of three states holds per cell:
//
//   - measured: Skip and Error empty, the Record fields populated;
//   - skipped: Skip names why the cell is invalid (e.g.
//     "batch-and-depth-exclusive"); the axis fields still describe
//     the cell but ops/mops are zero;
//   - failed: Error carries the panic or timeout; axis fields as
//     above.
type SweepRecord struct {
	SchemaVersion int `json:"schema_version"`
	Host
	Cell      int     `json:"cell"`
	Skip      string  `json:"skip,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Record
}

// ReadSweep parses sweep JSONL: one SweepRecord per non-empty line.
func ReadSweep(r io.Reader) ([]SweepRecord, error) {
	var out []SweepRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SweepRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("sweep line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
