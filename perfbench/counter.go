package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/core"
	"hybsync/internal/pad"
)

// counter is the object of the solo, contended and timeshare workloads:
// a batch-aware fetch-and-increment that hands a run of requests
// consecutive pre-increment values from one read of the shared value.
// The value has a cache line to itself, so the benchmark's own
// allocations cannot false-share with it.
type counter struct {
	_ pad.Line
	v uint64
	_ pad.Line
}

// DispatchBatch implements core.Object.
func (c *counter) DispatchBatch(reqs []core.Req, results []uint64) {
	v := c.v
	for i := range reqs {
		results[i] = v
		v++
	}
	c.v = v
}

// counterClient is one closed-loop client: a blocking Apply, then up to
// localWork clock reads of local work (think), until told to stop. It
// checks its own results as it goes: the values one client receives
// must strictly increase. The leading pad keeps the clients of one
// slice off each other's cache lines.
type counterClient struct {
	_   pad.Line
	h   hybsync.Handle
	lat sampler
	rng harness.XorShift

	ops, sum, top, last, bad uint64
}

func (c *counterClient) run(stop *atomic.Bool, localWork uint64) {
	for !stop.Load() {
		var v uint64
		if c.lat.tick() {
			t := now()
			v = c.h.Apply(0, 0)
			c.lat.record(now() - t)
		} else {
			v = c.h.Apply(0, 0)
		}
		if c.ops > 0 && v <= c.last {
			c.bad++
		}
		c.last = v
		c.sum += v
		c.top = max(c.top, v)
		c.ops++
		if localWork > 0 {
			think(c.rng.Next() % (localWork + 1))
		}
	}
}

// counterTrial builds one executor around a fresh counter, runs the
// workload's clients against it for slice and checks the outcome: the
// N values handed out are exactly 0..N-1 (their sum, their maximum and
// the counter's final state), each client's values increase, and Err
// and Close report no fault.
func (b *bench) counterTrial(algo string, seed uint64, slice time.Duration, traced, countAllocs bool) trial {
	tr := trial{algo: algo, opsPerCall: 1, imbalance: 1}
	ctr := &counter{}
	var obj core.Object = ctr
	if b.cfg.wrap != nil {
		obj = b.cfg.wrap(obj)
	}
	if traced {
		tc := newTracer(obj)
		tr.tracers = []*tracer{tc}
		obj = tc
	}

	t0 := time.Now()
	ex, err := hybsync.NewObject(algo, obj)
	if err != nil {
		return tr.broken(fmt.Errorf("building %s: %w", algo, err))
	}
	clients := make([]counterClient, b.w.clients)
	for i := range clients {
		h, err := ex.NewHandle()
		if err != nil {
			_ = ex.Close() // the trial already failed; its Close error adds nothing
			return tr.broken(fmt.Errorf("%s handle: %w", algo, err))
		}
		clients[i] = counterClient{h: h, lat: newSampler(), rng: harness.NewXorShift(seed + uint64(i))}
	}
	tr.setup = time.Since(t0)

	execs := []core.Executor{ex}
	before := tr.beginRun(execs, traced, countAllocs)
	elapsed, err := drive(len(clients), slice, func(c int, stop *atomic.Bool) {
		clients[c].run(stop, b.w.localWork)
	})
	tr.elapsed = elapsed
	if err != nil {
		return tr.broken(fmt.Errorf("%s: %w", algo, err))
	}
	tr.endRun(execs, before, traced, countAllocs)

	var n, sum, top, bad uint64
	var lats []*sampler
	for i := range clients {
		c := &clients[i]
		n += c.ops
		sum += c.sum
		top = max(top, c.top)
		bad += c.bad
		lats = append(lats, &c.lat)
	}
	tr.ops, tr.failed = n, bad
	tr.setLatency(lats)
	execErr := ex.Err()
	closeErr := ex.Close()
	switch {
	case execErr != nil:
		tr.fault(fmt.Errorf("%s: Err: %w", algo, execErr))
	case closeErr != nil:
		tr.fault(fmt.Errorf("%s: Close: %w", algo, closeErr))
	case n > 0 && (sum != n*(n-1)/2 || top != n-1 || ctr.v != n):
		tr.fault(fmt.Errorf("%s: %d increments returned sum %d, max %d, final state %d; want %d, %d, %d",
			algo, n, sum, top, ctr.v, n*(n-1)/2, n-1, n))
	}
	if traced {
		tr.selfCheck()
	}
	return tr
}
