package harness

import (
	"fmt"
	"strconv"
	"strings"
)

// Dist is a parsed key-popularity distribution for keyed workloads:
// "uniform" or "zipf:theta" over a key space of Keys values: the
// meaning of a key-distribution value on hybsweep's dist axis.
type Dist struct {
	label string
	keys  uint64
	zipf  *Zipf // nil = uniform; otherwise the shared template
}

// ParseDist parses "uniform" or "zipf:theta" (0 < theta < 1, e.g.
// "zipf:0.99"). The Zipf zeta table is computed once here and cloned
// per worker by Sampler via Reseed.
func ParseDist(s string, keys uint64) (Dist, error) {
	if keys == 0 {
		return Dist{}, fmt.Errorf("key space must be positive")
	}
	if s == "uniform" {
		return Dist{label: s, keys: keys}, nil
	}
	if theta, ok := strings.CutPrefix(s, "zipf:"); ok {
		v, err := strconv.ParseFloat(theta, 64)
		if err != nil {
			return Dist{}, fmt.Errorf("bad zipf theta %q", theta)
		}
		z, err := NewZipf(keys, v, 1)
		if err != nil {
			return Dist{}, err
		}
		return Dist{label: s, keys: keys, zipf: z}, nil
	}
	return Dist{}, fmt.Errorf("unknown distribution %q (want uniform or zipf:theta)", s)
}

// Label returns the distribution as given on the command line, for
// record fields.
func (d Dist) Label() string { return d.label }

// Keys returns the key-space size.
func (d Dist) Keys() uint64 { return d.keys }

// Sampler returns thread's key generator (deterministic per thread).
func (d Dist) Sampler(thread int) func() uint64 {
	seed := uint64(thread+1) * 0x9E3779B97F4A7C15
	if d.zipf != nil {
		z := d.zipf.Reseed(seed)
		return z.Next
	}
	rng := NewXorShift(seed)
	return func() uint64 { return rng.Next() % d.keys }
}
