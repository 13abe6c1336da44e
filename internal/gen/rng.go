package gen

import (
	"math"

	"repro/internal/snapshot"
)

// rng is the generators' random source: splitmix64 under the hood, with
// the few derived distributions the synthetic workloads need. Unlike
// math/rand.Rand its entire state is three words, so a generator's replay
// position checkpoints exactly (snapshot.Stater): restore the state and
// the stream continues bit-identically, which is what makes realistic
// ingest paths recoverable without replaying history.
type rng struct {
	s uint64
	// Box–Muller produces normals in pairs; the spare is part of the
	// replayable state.
	spare    float64
	hasSpare bool
}

func newRNG(seed int64) rng { return rng{s: uint64(seed)} }

// next is splitmix64: one 64-bit mix per draw, passes BigCrush.
func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (r *rng) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *rng) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64() // avoid log(0)
	}
	v := r.Float64()
	m := math.Sqrt(-2 * math.Log(u))
	r.spare = m * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return m * math.Cos(2*math.Pi*v)
}

// Int63n returns a uniform variate in [0, n).
func (r *rng) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	// Rejection keeps the distribution exact for any n.
	max := uint64(math.MaxUint64) - uint64(math.MaxUint64)%uint64(n)
	for {
		v := r.next()
		if v < max {
			return int64(v % uint64(n))
		}
	}
}

// Poisson samples a Poisson variate by inversion (mean ≤ ~30 in practice).
func (r *rng) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for p > l && k < 1000 {
		k++
		p *= r.Float64()
	}
	return k - 1
}

// field keeps the full generator state.
func (r *rng) field() snapshot.Field {
	return snapshot.Field{
		Capture: func() func(*snapshot.Encoder) {
			v := *r
			return func(enc *snapshot.Encoder) {
				enc.PutInt64(int64(v.s))
				enc.PutFloat64(v.spare)
				enc.PutBool(v.hasSpare)
			}
		},
		Load: func(dec *snapshot.Decoder) error {
			r.s, r.spare, r.hasSpare = uint64(dec.GetInt64()), dec.GetFloat64(), dec.GetBool()
			return nil
		},
	}
}
