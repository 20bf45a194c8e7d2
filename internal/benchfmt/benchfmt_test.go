package benchfmt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hybsync/harness"
)

// TestBatchRecordStatsHonesty is the regression test for the PR 5
// note: combiner rounds/combined counters mix units under batched
// submissions (rounds count batches, combined counts operations), so
// the scalar invariant rounds+combined==ops does not hold and the
// fields must not appear on ApplyBatch-path records.
func TestBatchRecordStatsHonesty(t *testing.T) {
	rec := Record{
		Bench: "batch", Algo: "hybcomb", Threads: 2,
		Ops: 64000, Mops: 1.0, Batch: 32, Path: PathBatch,
		Rounds: 123, Combined: 456, // bogus batch-unit counters
	}
	rec.Finish()
	if rec.Rounds != 0 || rec.Combined != 0 {
		t.Fatalf("Finish kept combiner stats on a batch-path record: rounds=%d combined=%d",
			rec.Rounds, rec.Combined)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"rounds", "combined"} {
		if strings.Contains(string(data), `"`+field+`"`) {
			t.Errorf("batch-path record serialized %q: %s", field, data)
		}
	}
}

// Scalar records keep the counters: on those the invariant holds and
// the trajectory files depend on them. "apply" is the per-op path
// label older committed batch records carry.
func TestScalarRecordKeepsStats(t *testing.T) {
	for _, path := range []string{"", "apply"} {
		rec := Record{
			Bench: "counter", Algo: "hybcomb", Threads: 2,
			Ops: 1000, Mops: 2.0, Path: path,
			Rounds: 100, Combined: 900,
		}
		rec.Finish()
		if rec.Rounds != 100 || rec.Combined != 900 {
			t.Fatalf("path %q: Finish altered scalar combiner stats: rounds=%d combined=%d",
				path, rec.Rounds, rec.Combined)
		}
		if rec.NsPerOp == 0 {
			t.Fatalf("path %q: Finish did not derive ns_per_op", path)
		}
	}
}

func TestFinishIdempotent(t *testing.T) {
	rec := Record{Bench: "counter", Algo: "mpserver", Threads: 1, Mops: 4.0, Rounds: 7}
	rec.Finish()
	first, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.Finish()
	second, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("Finish not idempotent: %s vs %s", first, second)
	}
}

func TestFromNative(t *testing.T) {
	res := harness.NativeResult{
		Ops:       3_000_000,
		Duration:  time.Second,
		PerThread: []uint64{1_000_000, 2_000_000},
	}
	rec := FromNative("counter", "mpserver", 2, res)
	if rec.Ops != res.Ops || rec.Mops != 3.0 || rec.Fairness != 2.0 {
		t.Fatalf("FromNative derived %+v", rec)
	}
}

func TestReadSweep(t *testing.T) {
	lines := `{"schema_version":2,"gomaxprocs":2,"goversion":"go1.24.0","numcpu":1,"cell":0,"bench":"counter","algo":"mpserver","threads":1,"ops":5,"mops":1,"ns_per_op":1000}

{"schema_version":2,"gomaxprocs":2,"goversion":"go1.24.0","numcpu":1,"cell":1,"skip":"batch-and-depth-exclusive","bench":"batch","algo":"mpserver","threads":1,"ops":0,"mops":0,"ns_per_op":0,"depth":8,"batch":32}
`
	recs, err := ReadSweep(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (blank lines skipped)", len(recs))
	}
	if recs[0].Skip != "" || recs[0].Mops != 1 {
		t.Fatalf("measured record parsed as %+v", recs[0])
	}
	if recs[1].Skip != "batch-and-depth-exclusive" || recs[1].Depth != 8 {
		t.Fatalf("skip record parsed as %+v", recs[1])
	}

	if _, err := ReadSweep(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed line did not error")
	}
}

// TestCommittedPerfFiles checks every committed BENCH_* perf file is
// v2 sweep JSONL whose measured records carry their host context and
// every axis field, so benchguard's full-identity gating can find
// them.
func TestCommittedPerfFiles(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_* files found")
	}
	for _, path := range paths {
		if filepath.Ext(path) != ".jsonl" {
			t.Errorf("%s: perf files are JSONL", path)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadSweep(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(recs) == 0 {
			t.Errorf("%s: no records", path)
		}
		for i, r := range recs {
			if r.SchemaVersion != SchemaVersion || r.GoMaxProcs <= 0 || r.NumCPU <= 0 || r.GoVersion == "" {
				t.Errorf("%s record %d: schema/host %+v", path, i, r.Host)
			}
			if r.Skip != "" || r.Error != "" {
				continue
			}
			if r.Bench == "" || r.Algo == "" || r.Threads <= 0 || r.Shards <= 0 || r.Dist == "" || r.Depth <= 0 || r.Batch <= 0 {
				t.Errorf("%s record %d: missing axis field: %+v", path, i, r.Record)
			}
			if r.Ops == 0 || r.Mops <= 0 || r.NsPerOp <= 0 {
				t.Errorf("%s record %d: no throughput: %+v", path, i, r.Record)
			}
		}
	}
}
