// Command perfbench is hybsync's same-host benchmark. One run measures
// one closed-loop workload against five constructions (mpserver,
// hybcomb, ccsynch, hybrid, mcs-lock), checks every result, and prints
// a report followed by one JSON line with the end-to-end metrics, or
// with --trace 1 the per-layer breakdown and building-block timings.
//
//	go run . --workload contended --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "solo, contended, timeshare or kv")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every random choice of the run")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostContext describes the machine a run measured, so that figures
// from another host read as history rather than as a baseline.
func hostContext() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
