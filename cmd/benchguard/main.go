// Command benchguard compares fresh hybsweep runs against a committed
// JSONL baseline and fails loudly when cost regresses beyond a
// tolerance — the CI guard that keeps the batch and pipeline machinery
// from taxing the measured paths.
//
// Records are keyed by the full cell identity (bench, algo, threads,
// shards, dist, depth, batch, path, gomaxprocs); -where clauses select
// which baseline cells to gate, and every selected cell must appear in
// the candidates:
//
//	GOMAXPROCS=2 hybsweep -grid '...' > run1.jsonl          (repeat)
//	benchguard -baseline BENCH_sweep.jsonl -max-regress 0.40 \
//	    -where 'gomaxprocs=2' -where 'depth>1' -where 'algo=mpserver,hybcomb' \
//	    run1.jsonl run2.jsonl run3.jsonl
//
// A -where clause is `field OP value`: OP one of = != > >= < <=, with
// numeric fields (threads, shards, depth, batch, gomaxprocs, numcpu,
// cell) supporting all six and string fields (bench, algo, dist, path,
// skip) supporting = and != where `=` against a comma-separated list
// means "is one of". Clauses AND together; an unknown field or a
// non-integer value on a numeric field is rejected. Skipped/failed
// baseline cells are never gated.
//
// benchguard can also gate one algorithm AGAINST ANOTHER instead of
// against its own history: -vs 'hybrid=mcs-lock' pairs each selected
// mcs-lock cell with the hybrid cell at the same scenario (same bench,
// threads, shards, dist, depth, batch, path, gomaxprocs) and fails if
// the candidate algorithm's median ns/op exceeds the baseline
// algorithm's by more than the tolerance. This is how CI enforces the
// adaptive hybrid's "within 10% of the best lock at one thread" claim:
//
//	benchguard -vs 'hybrid=mcs-lock' -max-regress 0.10 \
//	    -where 'threads=1' -baseline run1.jsonl run1.jsonl run2.jsonl run3.jsonl
//
// For every selected point the candidate ns/op is the MEDIAN across
// the given run files (run an odd number, three is typical, so one
// noisy run cannot fail or pass the gate alone). Exit status 1 means
// at least one point regressed more than -max-regress relative to the
// baseline or went missing; extra candidate points are ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hybsync/internal/benchfmt"
)

// whereFlags accumulates repeated -where clauses.
type whereFlags []string

func (w *whereFlags) String() string { return strings.Join(*w, " && ") }
func (w *whereFlags) Set(s string) error {
	*w = append(*w, s)
	return nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_native.jsonl", "committed baseline JSONL file")
	var where whereFlags
	flag.Var(&where, "where", "cell selector like 'depth>1' or 'algo=mpserver,hybcomb' (repeatable, ANDed)")
	vs := flag.String("vs", "", "cross-algorithm gate 'candidate=baseline' (e.g. 'hybrid=mcs-lock'): compare the candidate algo's cells against the baseline algo's at the same scenario instead of against history")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum allowed fractional ns/op regression vs baseline")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: need at least one candidate run file")
		os.Exit(2)
	}

	failed, err := guardSweep(*baselinePath, flag.Args(), where, *vs, *maxRegress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL — median regressed more than %.0f%% vs %s (or points missing)\n",
			*maxRegress*100, *baselinePath)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// compare runs the shared gate: for every baseline point, the median
// of the candidate samples vs the tolerance. Returns true when any
// point failed.
func compare(baseline map[string]float64, candidates map[string][]float64, maxRegress float64) bool {
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := false
	for _, key := range keys {
		runs := candidates[key]
		if len(runs) == 0 {
			fmt.Printf("  %-56s baseline %10.1f ns/op  candidate MISSING\n", key, baseline[key])
			failed = true
			continue
		}
		med := median(runs)
		delta := (med - baseline[key]) / baseline[key]
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("  %-56s baseline %10.1f ns/op  median %10.1f ns/op  %+6.1f%%  %s\n",
			key, baseline[key], med, delta*100, status)
	}
	return failed
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cellKey is the full identity of a sweep cell, so gating never
// conflates two scenarios that share an algorithm.
func cellKey(r benchfmt.SweepRecord) string {
	return fmt.Sprintf("%s/%s t=%d s=%d %s d=%d b=%d %s gmp=%d",
		r.Bench, r.Algo, r.Threads, r.Shards, r.Dist, r.Depth, r.Batch, r.Path, r.GoMaxProcs)
}

func loadSweep(path string) ([]benchfmt.SweepRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := benchfmt.ReadSweep(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// scenarioKey is cellKey minus the algorithm — the pairing identity of
// the -vs cross-algorithm gate.
func scenarioKey(r benchfmt.SweepRecord) string {
	return fmt.Sprintf("%s t=%d s=%d %s d=%d b=%d %s gmp=%d",
		r.Bench, r.Threads, r.Shards, r.Dist, r.Depth, r.Batch, r.Path, r.GoMaxProcs)
}

func guardSweep(baselinePath string, candidatePaths []string, where whereFlags, vs string, maxRegress float64) (bool, error) {
	sel, err := parseClauses(where)
	if err != nil {
		return false, err
	}
	candAlgo, baseAlgo := "", ""
	if vs != "" {
		var ok bool
		if candAlgo, baseAlgo, ok = strings.Cut(vs, "="); !ok || candAlgo == "" || baseAlgo == "" {
			return false, fmt.Errorf("bad -vs %q (want candidate=baseline, e.g. hybrid=mcs-lock)", vs)
		}
	}
	// In -vs mode the baseline algo's cells anchor each scenario and the
	// candidate algo's cells are gated against them; the key drops the
	// algo so the two pair up. Otherwise cells gate against their own
	// history under the full cell identity.
	key := cellKey
	if vs != "" {
		key = scenarioKey
	}
	base, err := loadSweep(baselinePath)
	if err != nil {
		return false, fmt.Errorf("baseline: %w", err)
	}
	baseline := map[string]float64{}
	for _, r := range base {
		if r.Skip != "" || r.Error != "" || r.NsPerOp <= 0 {
			continue
		}
		if vs != "" && r.Algo != baseAlgo {
			continue
		}
		if sel.match(r) {
			baseline[key(r)] = r.NsPerOp
		}
	}
	if len(baseline) == 0 {
		return false, fmt.Errorf("baseline %s has no measured cells matching %q", baselinePath, where.String())
	}
	candidates := map[string][]float64{}
	for _, path := range candidatePaths {
		recs, err := loadSweep(path)
		if err != nil {
			return false, err
		}
		for _, r := range recs {
			if r.Skip != "" || r.Error != "" || r.NsPerOp <= 0 {
				continue
			}
			if vs != "" && r.Algo != candAlgo {
				continue
			}
			candidates[key(r)] = append(candidates[key(r)], r.NsPerOp)
		}
	}
	if vs != "" {
		fmt.Printf("benchguard: sweep %s vs %s where [%s], median of %d run(s), baseline %s (tolerance +%.0f%%)\n",
			candAlgo, baseAlgo, where.String(), len(candidatePaths), baselinePath, maxRegress*100)
	} else {
		fmt.Printf("benchguard: sweep cells where [%s], median of %d run(s) vs %s (tolerance +%.0f%%)\n",
			where.String(), len(candidatePaths), baselinePath, maxRegress*100)
	}
	return compare(baseline, candidates, maxRegress), nil
}

// ---- -where clause parsing and matching ----

type clause struct {
	field string
	op    string
	value string
	num   int // value parsed as an integer, on numeric fields
}

type selector []clause

var clauseOps = []string{">=", "<=", "!=", ">", "<", "="} // two-char ops first

func parseClauses(specs []string) (selector, error) {
	var sel selector
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		var c clause
		found := false
		for _, op := range clauseOps {
			if i := strings.Index(spec, op); i > 0 {
				c = clause{
					field: strings.TrimSpace(spec[:i]),
					op:    op,
					value: strings.TrimSpace(spec[i+len(op):]),
				}
				found = true
				break
			}
		}
		if !found || c.value == "" {
			return nil, fmt.Errorf("bad -where clause %q (want field OP value, OP in = != > >= < <=)", spec)
		}
		// Reject what would otherwise select silently: an unknown field
		// matches every != clause, and a non-integer on a numeric field
		// matches nothing.
		_, _, numeric, known := fieldOf(benchfmt.SweepRecord{}, c.field)
		switch {
		case !known:
			return nil, fmt.Errorf("-where %q: unknown field %q", spec, c.field)
		case numeric:
			n, err := strconv.Atoi(c.value)
			if err != nil {
				return nil, fmt.Errorf("-where %q: numeric field %q needs an integer value", spec, c.field)
			}
			c.num = n
		case c.op != "=" && c.op != "!=":
			return nil, fmt.Errorf("-where %q: string field %q supports only = and !=", spec, c.field)
		}
		sel = append(sel, c)
	}
	return sel, nil
}

// fieldOf resolves a -where field name against a record, returning its
// numeric or string value, whether the field is numeric, and whether
// the name is a field at all.
func fieldOf(r benchfmt.SweepRecord, name string) (num int, str string, numeric, known bool) {
	switch name {
	case "threads":
		return r.Threads, "", true, true
	case "shards":
		return r.Shards, "", true, true
	case "depth":
		return r.Depth, "", true, true
	case "batch":
		return r.Batch, "", true, true
	case "gomaxprocs":
		return r.GoMaxProcs, "", true, true
	case "numcpu":
		return r.NumCPU, "", true, true
	case "cell":
		return r.Cell, "", true, true
	case "bench":
		return 0, r.Bench, false, true
	case "algo":
		return 0, r.Algo, false, true
	case "dist":
		return 0, r.Dist, false, true
	case "path":
		return 0, r.Path, false, true
	case "skip":
		return 0, r.Skip, false, true
	default:
		return 0, "", false, false
	}
}

func (s selector) match(r benchfmt.SweepRecord) bool {
	for _, c := range s {
		num, str, numeric, _ := fieldOf(r, c.field)
		if numeric {
			ok := false
			switch c.op {
			case "=":
				ok = num == c.num
			case "!=":
				ok = num != c.num
			case ">":
				ok = num > c.num
			case ">=":
				ok = num >= c.num
			case "<":
				ok = num < c.num
			case "<=":
				ok = num <= c.num
			}
			if !ok {
				return false
			}
			continue
		}
		// String field: '=' against a comma-separated list is "is one
		// of"; '!=' is "is none of".
		inList := false
		for _, v := range strings.Split(c.value, ",") {
			if str == strings.TrimSpace(v) {
				inList = true
				break
			}
		}
		if (c.op == "=" && !inList) || (c.op == "!=" && inList) {
			return false
		}
	}
	return true
}
