package battery

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// refKiBaM is a coefficient-cache-free reimplementation of the KiBaM
// closed form: every transcendental is recomputed with math.Exp on every
// call, with the exact expression grouping kibam.go uses. It is the
// reference the cached kernel must match bit-for-bit — the coefficient
// cache is a pure hoist, so any ULP of divergence is a bug.
type refKiBaM struct {
	capacity units.Joules
	c, k     float64
	y1, y2   float64
	leak     float64
}

func newRefKiBaM(b *KiBaM) *refKiBaM {
	return &refKiBaM{capacity: b.capacity, c: b.c, k: b.k, y1: b.y1, y2: b.y2, leak: b.leak}
}

func (r *refKiBaM) step(p float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	t := dt.Seconds()
	k := r.k
	c := r.c
	y0 := r.y1 + r.y2
	ekt := math.Exp(-k * t)
	y1 := r.y1*ekt + (y0*k*c-p)*(1-ekt)/k - p*c*(k*t-1+ekt)/k
	y2 := r.y2*ekt + y0*(1-c)*(1-ekt) - p*(1-c)*(k*t-1+ekt)/k
	if r.leak > 0 {
		decay := math.Exp(-r.leak * t)
		y1 *= decay
		y2 *= decay
	}
	y1 = math.Max(0, math.Min(y1, c*float64(r.capacity)))
	y2 = math.Max(0, math.Min(y2, (1-c)*float64(r.capacity)))
	r.y1, r.y2 = y1, y2
}

func (r *refKiBaM) maxSustainable(dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	t := dt.Seconds()
	k := r.k
	c := r.c
	y0 := r.y1 + r.y2
	ekt := math.Exp(-k * t)
	a := r.y1*ekt + y0*k*c*(1-ekt)/k
	bb := (1-ekt)/k + c*(k*t-1+ekt)/k
	if bb <= 0 {
		return 0
	}
	return a / bb
}

func (r *refKiBaM) deliverable(dt time.Duration, rated units.Watts) units.Watts {
	if dt <= 0 {
		return 0
	}
	p := r.maxSustainable(dt)
	if p > float64(rated) {
		p = float64(rated)
	}
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

// checkKiBaMAgainstRef drives a cached battery and the exp-per-call
// reference through the same op sequence and demands exact float64
// equality of the wells, maxSustainable and Deliverable at every step.
func checkKiBaMAgainstRef(t *testing.T, b *KiBaM, ops int, nextOp func(i int) (p float64, dt time.Duration)) {
	t.Helper()
	ref := newRefKiBaM(b)
	for i := 0; i < ops; i++ {
		p, dt := nextOp(i)
		if got, want := b.maxSustainable(dt), ref.maxSustainable(dt); got != want {
			t.Fatalf("op %d (dt=%v): maxSustainable = %v, ref %v (Δ %g)",
				i, dt, got, want, got-want)
		}
		if got, want := b.Deliverable(dt), ref.deliverable(dt, b.maxDischarge); got != want {
			t.Fatalf("op %d (dt=%v): Deliverable = %v, ref %v", i, dt, got, want)
		}
		b.step(p, dt)
		ref.step(p, dt)
		if b.y1 != ref.y1 || b.y2 != ref.y2 {
			t.Fatalf("op %d (p=%v, dt=%v): wells (%v, %v) diverged from ref (%v, %v)",
				i, p, dt, b.y1, b.y2, ref.y1, ref.y2)
		}
	}
}

// TestKiBaMCoefBitIdentity is the property test pinning the coefficient
// cache: across random configurations (c, k, leak, SOC), random powers
// spanning charge and discharge, and tick widths that alternate between
// repeats (cache hits) and changes (cache invalidation), the cached
// closed form must equal recomputing every exponential, bit for bit.
func TestKiBaMCoefBitIdentity(t *testing.T) {
	rng := stats.NewRNG(71)
	dtPool := []time.Duration{
		100 * time.Millisecond, time.Second, 100 * time.Millisecond,
		33 * time.Millisecond, 5 * time.Second, time.Minute,
		100 * time.Millisecond, 0, -time.Second, 250 * time.Millisecond,
	}
	for trial := 0; trial < 200; trial++ {
		r := rng.Split(uint64(trial))
		cfg := KiBaMConfig{
			Capacity:   units.Joules(math.Exp(r.Range(0, 20))), // 1 J … ~5e8 J
			C:          r.Range(0.05, 0.95),
			K:          math.Exp(r.Range(math.Log(1e-6), math.Log(1e-1))),
			InitialSOC: r.Range(0.01, 1),
		}
		if trial%3 == 0 {
			cfg.SelfDischargePerMonth = r.Range(0.001, 0.5)
		}
		b := MustKiBaM(cfg)
		span := float64(b.maxDischarge) * 2
		checkKiBaMAgainstRef(t, b, 60, func(i int) (float64, time.Duration) {
			// Hold each dt for a few ops so the cache actually hits, then
			// move on so it re-keys.
			dt := dtPool[(i/3)%len(dtPool)]
			return r.Range(-span, span), dt
		})
	}
}

// FuzzKiBaMCoefIdentity extends the property test to fuzzed
// configurations and op streams: for any battery NewKiBaM accepts and
// any power/step sequence, the cached kernel and the exp-per-call
// reference must agree exactly.
func FuzzKiBaMCoefIdentity(f *testing.F) {
	f.Add(float64(260640), 0.62, 4.5e-4, 1.0, 0.0, []byte("ddddcciiddcc"))
	f.Add(float64(1200), 0.3, 1e-3, 0.05, 0.03, []byte{0, 255, 17, 84, 200, 3})
	f.Add(float64(1), 0.62, 4.5e-4, 0.5, 0.9, []byte("id"))
	f.Fuzz(func(t *testing.T, capacity, c, k, soc, leak float64, ops []byte) {
		b, err := NewKiBaM(KiBaMConfig{
			Capacity:              units.Joules(capacity),
			C:                     c,
			K:                     k,
			InitialSOC:            soc,
			SelfDischargePerMonth: leak,
		})
		if err != nil {
			return
		}
		if len(ops) > 128 {
			ops = ops[:128]
		}
		ref := newRefKiBaM(b)
		for i, op := range ops {
			dt := time.Duration(1+int(op>>4)) * 100 * time.Millisecond
			p := (float64(op)/64 - 1) * float64(b.maxDischarge)
			if got, want := b.maxSustainable(dt), ref.maxSustainable(dt); got != want {
				t.Fatalf("op %d: maxSustainable = %v, ref %v", i, got, want)
			}
			b.step(p, dt)
			ref.step(p, dt)
			if b.y1 != ref.y1 || b.y2 != ref.y2 {
				t.Fatalf("op %d: wells (%v, %v) diverged from ref (%v, %v)",
					i, b.y1, b.y2, ref.y1, ref.y2)
			}
		}
	})
}
