package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"hybsync/internal/chaos"
	"hybsync/internal/core"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that got holds exactly the metrics of want, each
// with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s in %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestShortRuns runs every workload of BENCHMARK.json briefly, untraced
// and traced: each prints exactly its metrics of BENCHMARK.json, with
// their units, and no op fails.
func TestShortRuns(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: w.Name, seed: 7, seconds: 0.5, trace: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d",
					w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced {
				checkMetrics(t, res.Metrics, s.PerLayer)
			} else {
				checkMetrics(t, res.Metrics, s.EndToEnd)
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// skipValue hands out one value twice at the 1000th op, as a counter
// that loses an increment would.
type skipValue struct {
	obj core.Object
	ops int
}

func (s *skipValue) DispatchBatch(reqs []core.Req, results []uint64) {
	s.obj.DispatchBatch(reqs, results)
	for i := range results {
		s.ops++
		if s.ops == 1000 {
			results[i]--
		}
	}
}

// TestFaultsAreCounted injects a faulty object and checks that the run
// reports failed ops instead of passing or hanging.
func TestFaultsAreCounted(t *testing.T) {
	faults := map[string]func(core.Object) core.Object{
		"panic": func(obj core.Object) core.Object { return chaos.PanicOnNth(obj, 1000) },
		"skip":  func(obj core.Object) core.Object { return &skipValue{obj: obj} },
	}
	for name, wrap := range faults {
		for _, w := range []string{"solo", "contended"} {
			res, err := run(config{workload: w, seed: 7, seconds: 0.5, wrap: wrap}, io.Discard)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, w, err)
			}
			if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Errorf("%s on %s: correct=%t attempted=%d failed=%d, want failures counted",
					name, w, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}
