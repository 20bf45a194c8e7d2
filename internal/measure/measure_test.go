package measure

import (
	"runtime"
	"testing"
	"time"

	"hybsync/harness"
	"hybsync/internal/benchfmt"
)

const dur = 10 * time.Millisecond

func TestCounter(t *testing.T) {
	rec, err := Counter("hybcomb", 2, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bench != "counter" || rec.Algo != "hybcomb" || rec.Threads != 2 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Ops == 0 || rec.Mops <= 0 || rec.NsPerOp <= 0 {
		t.Fatalf("no throughput in %+v", rec)
	}
	if rec.Rounds+rec.Combined != rec.Ops {
		t.Fatalf("scalar invariant rounds+combined==ops broken: %d+%d != %d",
			rec.Rounds, rec.Combined, rec.Ops)
	}
	if _, err := Counter("no-such-algo", 1, dur); err == nil {
		t.Fatal("unknown algo accepted")
	}
}

func TestSharded(t *testing.T) {
	dist, err := harness.ParseDist("zipf:0.99", 1024)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Sharded("mpserver", 2, dist, 2, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bench != "sharded" || rec.Shards != 2 || rec.Dist != "zipf:0.99" {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.ShardOps) != 2 || rec.ShardFairness == nil {
		t.Fatalf("no shard profile in %+v", rec)
	}
}

func TestAsync(t *testing.T) {
	rec, err := Async("mpserver", 4, 2, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bench != "async" || rec.Depth != 4 || rec.Ops == 0 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Pipe == nil {
		t.Fatalf("mpserver async record has no pipeline stats: %+v", rec)
	}
}

// Regression test for the first bug the hybsweep grid surfaced: at
// gomaxprocs=2, ccsynch, threads>gomaxprocs, depth=8, the async bench
// deadlocked intermittently (~2 in 3 runs) because workers exited the
// measurement loop with unwaited cells and the handle Flush only ran
// after every worker returned — while a stopping worker's unwaited
// cell held CC-Synch's dormant combiner duty that a still-running
// worker's Wait was spinning on. The fix drains each handle inside its
// own worker goroutine (harness.RunNativeDrain); this test replays the
// failing cell repeatedly under a watchdog.
func TestAsyncDrainLiveness(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for i := 0; i < 6; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := Async("ccsynch", 8, 4, 30*time.Millisecond)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d: async ccsynch drain deadlocked (goroutine leaked)", i)
		}
	}
}

// The batch core must emit honest records: PathBatch, operation-scaled
// throughput, and no combiner rounds/combined (their unit is
// ill-defined for batched submissions).
func TestBatchStatsHonesty(t *testing.T) {
	rec, err := Batch("hybcomb", 8, 2, dur)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Path != benchfmt.PathBatch || rec.Batch != 8 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Rounds != 0 || rec.Combined != 0 {
		t.Fatalf("batch record carries combiner stats: %+v", rec)
	}
	if rec.Ops%8 != 0 || rec.Ops == 0 {
		t.Fatalf("ops %d not a multiple of batch size", rec.Ops)
	}
}

// TestChaos checks the chaos leg's own brackets, which the record
// alone cannot show: the containment probe's deliberate panic is
// counted as exactly one poison, and the measured executor conserves
// every operation and closes cleanly (Chaos returns an error
// otherwise).
func TestChaos(t *testing.T) {
	for _, algo := range []string{"mpserver", "hybcomb", "ccsynch", "mcs-lock", "hybrid"} {
		rec, err := Chaos(algo, 1, 2, dur)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if rec.Bench != "chaos" || rec.Ops == 0 {
			t.Fatalf("%s: record %+v", algo, rec)
		}
		if rec.Faults == nil || rec.Faults.Poisons != 1 {
			t.Fatalf("%s: faults %+v, want exactly the probe's one poison", algo, rec.Faults)
		}
	}
}
