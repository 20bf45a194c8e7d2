package main

import (
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/mpq"
	ishard "hybsync/internal/shard"
	"hybsync/internal/telemetry"
)

// sink keeps the compiler from discarding the timed calls' results.
var sink uint64

// disarmed is a nil metric core, held in a variable so the compiler
// cannot fold the nil checks it stands for.
var disarmed *telemetry.Telemetry

const (
	// blockReps is how many timed repetitions each block reports the
	// median of.
	blockReps = 7
	// queueCap is the constructions' default message-queue capacity.
	queueCap = 39
)

// timeBlock reports the median over blockReps repetitions of the time
// per call of f(n), which must make n calls. n is doubled first until
// one repetition lasts at least 2 ms.
func timeBlock(f func(n int)) float64 {
	n := 1
	for {
		t := time.Now()
		f(n)
		if time.Since(t) >= 2*time.Millisecond || n >= 1<<30 {
			break
		}
		n *= 2
	}
	reps := make([]float64, blockReps)
	for i := range reps {
		t := time.Now()
		f(n)
		reps[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(reps)
}

// echo serves one request queue from its own goroutine, answering each
// message on reply until it receives a zero word; it returns a function
// that stops the server and waits for it.
func echo(req, reply mpq.Queue) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m := req.Recv()
			if m.W[0] == 0 {
				return
			}
			reply.Send(m)
		}
	}()
	return func() {
		req.Send(mpq.Word(0))
		<-done
	}
}

func roundTrips(req, reply mpq.Queue) float64 {
	stop := echo(req, reply)
	defer stop()
	return timeBlock(func(n int) {
		for i := 0; i < n; i++ {
			req.Send(mpq.Word(1))
			sink += reply.Recv().W[0]
		}
	})
}

// blockMetrics times one public function of each building block in
// isolation, at the run's GOMAXPROCS.
func blockMetrics() map[string]metric {
	m := map[string]metric{}
	ns := func(name string, v float64) { m[name] = metric{v, "ns"} }

	ns("mpq.spsc_pingpong_ns", roundTrips(mpq.NewSpsc(queueCap), mpq.NewSpsc(queueCap)))
	ns("mpq.mpsc_pingpong_ns", roundTrips(mpq.NewMpsc(queueCap), mpq.NewSpsc(queueCap)))
	q := mpq.NewMpsc(queueCap)
	ns("mpq.mpsc_send_recv_ns", timeBlock(func(n int) {
		for i := 0; i < n; i++ {
			q.Send(mpq.Word(uint64(i)))
			sink += q.Recv().W[0]
		}
	}))

	var latch core.PoisonLatch
	ctr := &counter{}
	reqs, results := make([]core.Req, 1), make([]uint64, 1)
	ns("core.latch_dispatch_ns", timeBlock(func(n int) {
		for i := 0; i < n; i++ {
			latch.Dispatch(ctr, reqs, results)
		}
	}))

	ns("backoff.spin_wait_ns", timeBlock(func(n int) {
		var b backoff.Backoff
		for i := 0; i < n; i++ {
			if i%32 == 0 {
				b.Reset()
			}
			b.Wait()
		}
	}))
	ns("backoff.yield_wait_ns", timeBlock(func(n int) {
		b := backoff.Yielding()
		for i := 0; i < n; i++ {
			if i%512 == 0 {
				b.Reset()
			}
			b.Wait()
		}
	}))
	ns("backoff.sleep_wait_ns", sleepWait())

	recorder := func(r *telemetry.Recorder) float64 {
		return timeBlock(func(n int) {
			for i := 0; i < n; i++ {
				if r.Sample() {
					r.Latency(time.Now())
				}
				r.RunLen(1)
			}
		})
	}
	ns("telemetry.recorder_disarmed_ns", recorder(disarmed.Recorder()))
	ns("telemetry.recorder_armed_ns", recorder(telemetry.New().Recorder()))

	ns("shard.shardfor_ns", shardFor())

	z, err := harness.NewZipf(kvKeys, kvTheta, 1)
	if err != nil {
		panic(err) // constant, valid arguments
	}
	ns("harness.zipf_draw_ns", timeBlock(func(n int) {
		for i := 0; i < n; i++ {
			sink += z.Next()
		}
	}))

	ns("bench.clock_pair_ns", timeBlock(func(n int) {
		for i := 0; i < n; i++ {
			t := now()
			sink += uint64(now() - t)
		}
	}))
	return m
}

// sleepWait times the first Wait of the backoff sleep rung, the one a
// waiter reaches after its spin and yield rungs ran out: the cost of
// waking an idle server or combiner. With nothing else runnable a spin
// or yield returns well within a microsecond and a sleep never does, so
// the first Wait that lasts a microsecond is taken as the first sleep,
// wherever the ladder puts it. It is the median of 31 such waits.
func sleepWait() float64 {
	waits := make([]float64, 31)
	for i := range waits {
		var b backoff.Backoff
		for {
			t := time.Now()
			b.Wait()
			if d := time.Since(t); d >= time.Microsecond {
				waits[i] = float64(d.Nanoseconds())
				break
			}
		}
	}
	return median(waits)
}

// shardFor times Router.ShardFor, the key-to-shard step every routed
// call takes, over kv's shard count and keyspace.
func shardFor() float64 {
	r, err := ishard.NewRouter(kvShards, func(int, uint64, uint64) uint64 { return 0 }, nil,
		func(_ int, obj core.Object) (core.Executor, error) { return hybsync.NewObject("mcs-lock", obj) })
	if err != nil {
		panic(err) // constant, valid arguments
	}
	defer r.Close()
	return timeBlock(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(r.ShardFor(uint64(i) & keyMask))
		}
	})
}
