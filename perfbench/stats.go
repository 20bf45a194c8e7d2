package main

import (
	"slices"
	"sort"
	"time"
)

// sampler keeps a bounded, evenly spaced subsample of a stream of
// durations: every stride-th value. When the buffer fills it drops every
// other kept value and doubles the stride, so memory stays fixed however
// fast the stream runs and each kept value stands for stride values.
// Callers ask tick before producing a value, so that values not kept are
// never measured at all.
type sampler struct {
	buf    []uint32
	stride uint64
	n      uint64
}

// samplerCap bounds one sampler: 2^14 values are enough for a p99 with
// over a hundred values beyond it, and cheap to sort.
const samplerCap = 1 << 14

func newSampler() sampler {
	return sampler{buf: make([]uint32, 0, samplerCap), stride: 1}
}

// tick counts one value of the stream and reports whether it is kept.
func (s *sampler) tick() bool {
	s.n++
	return s.n&(s.stride-1) == 0
}

// record keeps d, the value tick just selected.
func (s *sampler) record(d time.Duration) {
	if len(s.buf) == cap(s.buf) {
		kept := s.buf[:0]
		for i := 1; i < len(s.buf); i += 2 {
			kept = append(kept, s.buf[i])
		}
		s.buf = kept
		s.stride *= 2
		if s.n&(s.stride-1) != 0 {
			return
		}
	}
	if d < 0 {
		d = 0
	}
	if d > time.Duration(^uint32(0)) {
		d = time.Duration(^uint32(0))
	}
	s.buf = append(s.buf, uint32(d))
}

// pool merges samplers whose kept values carry different strides; the
// quantiles weight each value by its stride.
type pool struct {
	vals []weighted
	sum  float64
	w    float64
}

type weighted struct {
	v uint32
	w uint64
}

func (p *pool) add(s *sampler) { p.addValues(s.buf, s.stride) }

// addValues adds vals, each standing for w values of the stream.
func (p *pool) addValues(vals []uint32, w uint64) {
	for _, v := range vals {
		p.vals = append(p.vals, weighted{v, w})
		p.sum += float64(v) * float64(w)
		p.w += float64(w)
	}
}

func (p *pool) mean() float64 {
	if p.w == 0 {
		return 0
	}
	return p.sum / p.w
}

func (p *pool) samples() int { return len(p.vals) }

// quantile returns the weighted q-quantile (0.5 <= q < 1) in
// nanoseconds, taken as the mean of the values within a tenth of the
// tail beyond it (the 45th to 55th percentile for the median, the 98.9th
// to 99.1th for p99), so that it follows the distribution smoothly
// instead of in whole nanoseconds.
func (p *pool) quantile(q float64) float64 {
	if p.w == 0 {
		return 0
	}
	p.sort()
	band := (1 - q) / 10
	lo, hi := (q-band)*p.w, (q+band)*p.w
	var acc, sum float64
	for _, x := range p.vals {
		a, b := acc, acc+float64(x.w)
		acc = b
		if b <= lo {
			continue
		}
		if a >= hi {
			break
		}
		sum += float64(x.v) * (min(b, hi) - max(a, lo))
	}
	return sum / (hi - lo)
}

func (p *pool) sort() {
	slices.SortFunc(p.vals, func(a, b weighted) int { return int(int64(a.v) - int64(b.v)) })
}

// sketchPoints is how many evenly spaced quantiles of a trial's latency
// distribution are kept to pool the trials of a run with equal weight.
const sketchPoints = 1000

// sketch returns sketchPoints evenly spaced quantiles of the pool, the
// values at cumulative weights (i+0.5)/sketchPoints.
func (p *pool) sketch() []uint32 {
	if p.w == 0 {
		return nil
	}
	p.sort()
	out := make([]uint32, 0, sketchPoints)
	var acc float64
	for _, x := range p.vals {
		acc += float64(x.w)
		for len(out) < sketchPoints && (float64(len(out))+0.5)/sketchPoints*p.w <= acc {
			out = append(out, x.v)
		}
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
