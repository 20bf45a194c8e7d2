package main

import "testing"

func TestClassify(t *testing.T) {
	cell := func(dist string, shards, depth, batch int) cellAxes {
		return cellAxes{algo: "mpserver", threads: 2, shards: shards, dist: dist, depth: depth, batch: batch}
	}
	cases := []struct {
		a           cellAxes
		bench, skip string
	}{
		{cell("uniform", 1, 1, 1), "counter", ""},
		{cell("uniform", 2, 1, 1), "sharded", ""},
		{cell("zipf:0.99", 1, 1, 1), "sharded", ""},
		{cell("uniform", 1, 4, 1), "async", ""},
		{cell("uniform", 1, 1, 8), "batch", ""},
		{cell("uniform", 1, 4, 8), "", skipBatchDepth},
		{cell("zipf:0.99", 1, 4, 1), "", skipAsyncKeyed},
		{cell("uniform", 2, 1, 8), "", skipBatchKeyed},

		{cell("phase:5ms:0.5", 1, 1, 1), "phases", ""},
		{cell("phase:5ms:0.5", 1, 4, 1), "", "phases-over-async-unsupported"},
		{cell("phase:5ms:0.5", 1, 1, 8), "", "phases-over-batch-unsupported"},
		{cell("phase:5ms:0.5", 2, 1, 1), "", "phases-over-sharded-unsupported"},

		{cell("chaos:1", 1, 1, 1), "chaos", ""},
		{cell("chaos:1", 1, 4, 1), "", "chaos-over-async-unsupported"},
		{cell("chaos:1", 1, 1, 8), "", "chaos-over-batch-unsupported"},
		{cell("chaos:1", 2, 1, 1), "", "chaos-over-sharded-unsupported"},
	}
	for _, tc := range cases {
		bench, skip := tc.a.classify()
		if bench != tc.bench || skip != tc.skip {
			t.Errorf("classify(%+v) = (%q, %q), want (%q, %q)", tc.a, bench, skip, tc.bench, tc.skip)
		}
	}
}

func TestParseChaos(t *testing.T) {
	if seed, err := parseChaos("chaos:42"); err != nil || seed != 42 {
		t.Fatalf("chaos:42 = %d, %v", seed, err)
	}
	for _, bad := range []string{"chaos:", "chaos:x", "chaos:-1"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
