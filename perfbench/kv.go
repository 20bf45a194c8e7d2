package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/core"
	"hybsync/internal/pad"
	ishard "hybsync/internal/shard"
	"hybsync/object"
)

const (
	kvKeys     = 1 << 14 // the keyspace, all prefilled
	kvShards   = 2
	kvClients  = 2
	kvBatch    = 8  // keys per GetAll or MultiPut call
	kvWritePct = 10 // share of calls that are MultiPut
	kvTheta    = 0.99

	// A stored value encodes the key it belongs to, the client that
	// wrote it and that client's MultiPut sequence number:
	// key | client<<14 | version<<15, so one bit holds the client and
	// kvClients must be 2. The prefill stores version 0.
	keyBits    = 14
	keyMask    = 1<<keyBits - 1
	maxVersion = 1<<(32-keyBits-1) - 1
)

// kvValue encodes what client wrote under key in its version-th MultiPut.
func kvValue(key uint32, client int, version uint64) uint32 {
	return key | uint32(client)<<keyBits | uint32(version)<<(keyBits+1)
}

// kvValid reports whether v, read under key, is a value some writer
// stored there: it encodes key, and it is either the prefill value or
// carries a version its writer had already published when it wrote.
func kvValid(key uint32, v uint64, published *[kvClients]atomic.Uint64) bool {
	if v > math.MaxUint32 || uint32(v)&keyMask != key {
		return false
	}
	client := (v >> keyBits) & 1
	version := v >> (keyBits + 1)
	if version == 0 {
		return client == 0
	}
	return version <= published[client].Load()
}

// kvClient is one closed-loop client of the map: each call draws 8 Zipf
// keys and issues a GetAll, or with 10% probability a MultiPut, then
// checks every value that came back. The leading pad keeps the clients
// of one slice off each other's cache lines.
type kvClient struct {
	_         pad.Line
	id        int
	h         *object.MapHandle
	zipf      *harness.Zipf
	rng       harness.XorShift
	lat       sampler
	published *[kvClients]atomic.Uint64

	keys, vals      []uint32
	calls, bad, ver uint64
}

func (c *kvClient) run(stop *atomic.Bool) {
	for !stop.Load() {
		for i := range c.keys {
			c.keys[i] = uint32(c.zipf.Next())
		}
		// A client that has used up its version space reads only.
		write := c.rng.Next()%100 < kvWritePct && c.ver < maxVersion
		if write {
			c.ver++
			c.published[c.id].Store(c.ver)
			for i, k := range c.keys {
				c.vals[i] = kvValue(k, c.id, c.ver)
			}
		}
		timed := c.lat.tick()
		var t time.Duration
		if timed {
			t = now()
		}
		var got []uint64
		var err error
		if write {
			got, err = c.h.MultiPut(c.keys, c.vals)
		} else {
			got, err = c.h.GetAll(c.keys)
		}
		if timed {
			c.lat.record(now() - t)
		}
		c.calls++
		if err != nil || len(got) != kvBatch {
			c.bad += kvBatch
			continue
		}
		for i, v := range got {
			if !kvValid(c.keys[i], v, c.published) {
				c.bad++
			}
		}
	}
}

// kvTrial builds a 2-shard map over algo, prefills every key through
// one handle, runs the clients for slice and checks the outcome: every
// value read or replaced was valid, the map still holds exactly the
// keyspace, and Close reports no fault. An untraced trial builds the
// map through object.NewMap; a traced one builds the same map through
// the shard package with every shard's object wrapped by a tracer.
func (b *bench) kvTrial(algo string, seed uint64, slice time.Duration, traced, countAllocs bool) trial {
	tr := trial{algo: algo, opsPerCall: kvBatch}
	var execs []core.Executor

	t0 := time.Now()
	var m *object.Map
	var err error
	if traced {
		m, err = ishard.NewMap(kvShards, 2*kvKeys, nil, func(_ int, obj core.Object) (core.Executor, error) {
			tc := newTracer(obj)
			ex, err := hybsync.NewObject(algo, tc)
			if err == nil {
				tr.tracers = append(tr.tracers, tc)
				execs = append(execs, ex)
			}
			return ex, err
		})
	} else {
		m, err = object.NewMap(algo, kvShards, 2*kvKeys)
	}
	if err != nil {
		return tr.broken(fmt.Errorf("building %s map: %w", algo, err))
	}
	var published [kvClients]atomic.Uint64
	clients := make([]kvClient, kvClients)
	for i := range clients {
		h, err := m.NewHandle()
		if err != nil {
			_ = m.Close() // the trial already failed; its Close error adds nothing
			return tr.broken(fmt.Errorf("%s map handle: %w", algo, err))
		}
		clients[i] = kvClient{
			id: i, h: h, lat: newSampler(), published: &published,
			zipf: b.zipf.Reseed(seed + uint64(i)), rng: harness.NewXorShift(seed ^ uint64(i+1)<<32),
			keys: make([]uint32, kvBatch), vals: make([]uint32, kvBatch),
		}
	}
	if err := prefill(clients[0].h); err != nil {
		_ = m.Close() // the trial already failed; its Close error adds nothing
		return tr.broken(fmt.Errorf("%s: %w", algo, err))
	}
	tr.setup = time.Since(t0)

	for _, tc := range tr.tracers {
		tc.reset()
	}
	occ0 := m.Occupancy()
	before := tr.beginRun(execs, traced, countAllocs)
	elapsed, err := drive(len(clients), slice, func(c int, stop *atomic.Bool) { clients[c].run(stop) })
	tr.elapsed = elapsed
	if err != nil {
		return tr.broken(fmt.Errorf("%s: %w", algo, err))
	}
	tr.endRun(execs, before, traced, countAllocs)

	var lats []*sampler
	for i := range clients {
		c := &clients[i]
		tr.ops += c.calls * kvBatch
		tr.failed += c.bad
		lats = append(lats, &c.lat)
	}
	tr.setLatency(lats)
	if traced {
		tr.imbalance = imbalance(occ0, m.Occupancy())
	}
	n := m.Len()
	if err := m.Close(); err != nil {
		tr.fault(fmt.Errorf("%s: Close: %w", algo, err))
	} else if n != kvKeys {
		tr.fault(fmt.Errorf("%s: map holds %d keys, want %d", algo, n, kvKeys))
	}
	if traced {
		tr.selfCheck()
	}
	return tr
}

// prefill stores every key of the keyspace with its version-0 value, in
// calls of kvBatch keys; each key must be new.
func prefill(h *object.MapHandle) error {
	keys := make([]uint32, kvBatch)
	for k := 0; k < kvKeys; k += kvBatch {
		for i := range keys {
			keys[i] = uint32(k + i)
		}
		prev, err := h.MultiPut(keys, keys)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for i, v := range prev {
			if v != ishard.EmptyVal {
				return fmt.Errorf("prefill: key %d already held %d", keys[i], v)
			}
		}
	}
	return nil
}

// imbalance is the max/min ratio of the ops each shard executed between
// two occupancy readings.
func imbalance(before, after []uint64) float64 {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range after {
		d := after[i] - before[i]
		lo, hi = min(lo, d), max(hi, d)
	}
	return ratio(float64(hi), float64(lo))
}
