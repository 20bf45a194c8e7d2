package main

// The host the benchmark runs on is shared, and how fast it runs the
// benchmark's code changes under it by a quarter or more, in phases
// that last minutes. On a 2-vCPU Xeon VM the cost of a pair of
// monotonic clock reads moved between 76 and 112 ns from one 28 s run
// to the next, and every CPU-bound figure moved with it: over one set of
// five runs the spread (quartile distance over median) of timeshare's
// median latencies was 24-29% and of solo's throughputs 7-13%. The same
// figures divided by each trial's clock-pair cost spread 2-8%. A loop of
// integer additions tracked the host far worse (its scaled spreads were
// as wide as the raw ones), because it stalls on a busy sibling
// hyperthread in a way that short, latency-bound code does not.
//
// Each trial therefore times a clock pair right before and right after
// it, and the end-to-end figures are reported at a reference clock-pair
// cost, refClockPair: a trial's rate is multiplied by pair/refClockPair
// and its times are divided by it. The clients' local work is counted in
// clock reads (think) so that it scales with the host like the rest of
// the trial. The report also prints the unscaled figures and the run's
// median clock-pair cost.

// refClockPair is the clock-pair cost, in ns, the end-to-end figures
// are reported at: about its cost in the VM's fast phases.
const refClockPair = 80.0

const (
	// pairChunk is how many clock pairs one timed chunk holds (about
	// 90 us).
	pairChunk = 1024
	// pairChunks is how many chunks clockPair times; it keeps their
	// median, so a chunk in which the OS ran something else is dropped.
	pairChunks = 7
)

// clockPair returns the current cost in ns of a pair of monotonic clock
// reads taken the way a latency sample takes them.
func clockPair() float64 {
	chunks := make([]float64, pairChunks)
	for i := range chunks {
		t0 := now()
		for j := 0; j < pairChunk; j++ {
			t := now()
			sink += uint64(now() - t)
		}
		chunks[i] = float64(now()-t0) / pairChunk
	}
	return median(chunks)
}

// think is a client's local work between calls: n reads of the
// monotonic clock.
func think(n uint64) {
	var s int64
	for ; n > 0; n-- {
		s += int64(now())
	}
	if s == -1 {
		sink = 1
	}
}
