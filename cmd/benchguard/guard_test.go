package main

import (
	"encoding/json"
	"os"
	"testing"

	"hybsync/internal/benchfmt"
)

func rec(bench, algo string, threads, shards, depth, batch, gmp int, dist, path string) benchfmt.SweepRecord {
	return benchfmt.SweepRecord{
		Host: benchfmt.Host{GoMaxProcs: gmp},
		Record: benchfmt.Record{
			Bench: bench, Algo: algo, Threads: threads, Shards: shards,
			Depth: depth, Batch: batch, Dist: dist, Path: path,
		},
	}
}

func TestParseClauses(t *testing.T) {
	sel, err := parseClauses([]string{"depth>1", "algo=mpserver,hybcomb", " gomaxprocs = 2 ", "dist!=zipf:0.99"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("got %d clauses", len(sel))
	}
	for _, bad := range []string{
		"depth", "depth>", "=1", "algo>mpserver", "bench<counter",
		"depht!=4",    // unknown field: would select every cell
		"depht=4",     // unknown field: would select no cell
		"threads=two", // non-integer on a numeric field: would select no cell
	} {
		if _, err := parseClauses([]string{bad}); err == nil {
			t.Errorf("clause %q accepted", bad)
		}
	}
}

func TestSelectorMatch(t *testing.T) {
	async := rec("async", "mpserver", 2, 1, 4, 1, 2, "uniform", "")
	batch := rec("batch", "hybcomb", 1, 1, 1, 32, 1, "uniform", benchfmt.PathBatch)
	sharded := rec("sharded", "ccsynch", 4, 2, 1, 1, 2, "zipf:0.99", "")

	cases := []struct {
		clauses []string
		r       benchfmt.SweepRecord
		want    bool
	}{
		{[]string{"depth>1"}, async, true},
		{[]string{"depth>1"}, batch, false},
		{[]string{"depth>1", "gomaxprocs=2"}, async, true},
		{[]string{"depth>1", "gomaxprocs=1"}, async, false},
		{[]string{"batch>1", "path=batch"}, batch, true},
		{[]string{"algo=mpserver,hybcomb"}, batch, true},
		{[]string{"algo=mpserver,hybcomb"}, sharded, false},
		{[]string{"dist!=uniform"}, sharded, true},
		{[]string{"threads<=2"}, sharded, false},
		{[]string{"shards=2", "bench=sharded"}, sharded, true},
	}
	for _, tc := range cases {
		sel, err := parseClauses(tc.clauses)
		if err != nil {
			t.Fatalf("%v: %v", tc.clauses, err)
		}
		if got := sel.match(tc.r); got != tc.want {
			t.Errorf("match(%v, %s/%s) = %v, want %v", tc.clauses, tc.r.Bench, tc.r.Algo, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	baseline := map[string]float64{"a": 100, "b": 100, "c": 100}
	candidates := map[string][]float64{
		"a": {105, 90, 108},  // median 105, +5% — ok at 10%
		"b": {200, 115, 111}, // median 115, +15% — regressed
		// c missing
	}
	if !compare(baseline, candidates, 0.10) {
		t.Fatal("regression and missing point not flagged")
	}
	delete(baseline, "c")
	candidates["b"] = []float64{105, 90, 100}
	if compare(baseline, candidates, 0.10) {
		t.Fatal("clean candidates flagged")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

func TestScenarioKeyPairsAcrossAlgos(t *testing.T) {
	lock := rec("phases", "mcs-lock", 1, 1, 1, 1, 2, "phase:5ms:0.5", "")
	hyb := rec("phases", "hybrid", 1, 1, 1, 1, 2, "phase:5ms:0.5", "")
	if scenarioKey(lock) != scenarioKey(hyb) {
		t.Fatalf("same scenario, different keys: %q vs %q", scenarioKey(lock), scenarioKey(hyb))
	}
	other := rec("phases", "hybrid", 2, 1, 1, 1, 2, "phase:5ms:0.5", "")
	if scenarioKey(lock) == scenarioKey(other) {
		t.Fatalf("different thread counts share key %q", scenarioKey(lock))
	}
}

func TestGuardSweepVs(t *testing.T) {
	write := func(name string, recs []benchfmt.SweepRecord) string {
		path := t.TempDir() + "/" + name
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	withNs := func(r benchfmt.SweepRecord, ns float64) benchfmt.SweepRecord {
		r.NsPerOp = ns
		return r
	}
	lock1 := rec("counter", "mcs-lock", 1, 1, 1, 1, 1, "uniform", "")
	lock4 := rec("counter", "mcs-lock", 4, 1, 1, 1, 1, "uniform", "")
	hyb1 := rec("counter", "hybrid", 1, 1, 1, 1, 1, "uniform", "")
	hyb4 := rec("counter", "hybrid", 4, 1, 1, 1, 1, "uniform", "")

	// hybrid within 10% of mcs-lock at t=1, way faster at t=4: passes.
	runs := write("runs.jsonl", []benchfmt.SweepRecord{
		withNs(lock1, 100), withNs(hyb1, 105),
		withNs(lock4, 400), withNs(hyb4, 120),
	})
	failed, err := guardSweep(runs, []string{runs}, nil, "hybrid=mcs-lock", 0.10)
	if err != nil || failed {
		t.Fatalf("clean -vs gate: failed=%v err=%v", failed, err)
	}

	// hybrid 30% behind at t=1: fails — unless -where excludes t=1.
	bad := write("bad.jsonl", []benchfmt.SweepRecord{
		withNs(lock1, 100), withNs(hyb1, 130),
		withNs(lock4, 400), withNs(hyb4, 120),
	})
	failed, err = guardSweep(bad, []string{bad}, nil, "hybrid=mcs-lock", 0.10)
	if err != nil || !failed {
		t.Fatalf("regressed -vs gate: failed=%v err=%v", failed, err)
	}
	failed, err = guardSweep(bad, []string{bad}, whereFlags{"threads=4"}, "hybrid=mcs-lock", 0.10)
	if err != nil || failed {
		t.Fatalf("-where filtered -vs gate: failed=%v err=%v", failed, err)
	}

	if _, err := guardSweep(runs, []string{runs}, nil, "hybrid", 0.10); err == nil {
		t.Fatal("bad -vs spec accepted")
	}
}

func TestCellKeyDistinguishesScenarios(t *testing.T) {
	a := rec("batch", "hybcomb", 1, 1, 1, 32, 1, "uniform", benchfmt.PathBatch)
	variants := []benchfmt.SweepRecord{
		rec("batch", "hybcomb", 1, 1, 1, 8, 1, "uniform", benchfmt.PathBatch),
		rec("batch", "hybcomb", 2, 1, 1, 32, 1, "uniform", benchfmt.PathBatch),
		rec("batch", "hybcomb", 1, 1, 1, 32, 2, "uniform", benchfmt.PathBatch),
		rec("batch", "mpserver", 1, 1, 1, 32, 1, "uniform", benchfmt.PathBatch),
	}
	for _, v := range variants {
		if cellKey(a) == cellKey(v) {
			t.Errorf("cell keys collide: %q", cellKey(a))
		}
	}
}
