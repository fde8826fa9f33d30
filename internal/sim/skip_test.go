package sim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// skipScenarios builds the identity matrix's configurations. Each comes
// with recording on and μDEBs deployed so every accumulator the span
// kernel replicates is live.
//
//   - quiet: no background, no attack — the sweep-scale fast case where
//     nearly the whole horizon should skip.
//   - attack: a frozen-trace run hosting a virus with a long preparation
//     phase, so spans interleave with ramp, phase boundaries and spikes.
//   - campaign: two coordinated groups with different spike clocks, plus
//     a wobbly background — the dense case where skipping rarely engages
//     but must stay invisible.
func skipScenarios() map[string]func() sim.Config {
	wobbly := func(racks, spr int, horizon time.Duration, seed uint64) []*stats.Series {
		bg := make([]*stats.Series, racks*spr)
		rng := stats.NewRNG(seed)
		for i := range bg {
			r := rng.Split(uint64(i))
			s := stats.NewSeries(time.Second)
			for k := 0; k <= int(horizon/time.Second)+1; k++ {
				s.Append(0.35 + 0.4*r.Float64())
			}
			bg[i] = s
		}
		return bg
	}
	return map[string]func() sim.Config{
		"quiet": func() sim.Config {
			return sim.Config{
				Key:             "skip/quiet",
				Racks:           3,
				ServersPerRack:  5,
				Tick:            100 * time.Millisecond,
				Duration:        2 * time.Minute,
				Record:          true,
				MicroDEBFactory: schemes.MicroDEBFactory(0.01),
			}
		},
		"attack": func() sim.Config {
			return sim.Config{
				Key:             "skip/attack",
				Racks:           3,
				ServersPerRack:  5,
				Tick:            100 * time.Millisecond,
				Duration:        90 * time.Second,
				Record:          true,
				MicroDEBFactory: schemes.MicroDEBFactory(0.01),
				Attack: &sim.AttackSpec{
					Servers: []int{0, 1, 5},
					Attack: virus.MustNew(virus.Config{
						Profile:         virus.CPUIntensive,
						PrepDuration:    60 * time.Second,
						MaxPhaseI:       10 * time.Second,
						SpikeWidth:      time.Second,
						SpikesPerMinute: 15,
						Seed:            9,
					}),
				},
			}
		},
		"campaign": func() sim.Config {
			return sim.Config{
				Key:             "skip/campaign",
				Racks:           4,
				ServersPerRack:  5,
				Tick:            100 * time.Millisecond,
				Duration:        30 * time.Second,
				Background:      wobbly(4, 5, 30*time.Second, 77),
				Record:          true,
				MicroDEBFactory: schemes.MicroDEBFactory(0.01),
				Attacks: []sim.AttackSpec{
					{
						Servers: []int{0, 1, 6},
						Attack: virus.MustNew(virus.Config{
							Profile:         virus.CPUIntensive,
							PrepDuration:    time.Second,
							MaxPhaseI:       3 * time.Second,
							SpikeWidth:      time.Second,
							SpikesPerMinute: 15,
							Seed:            9,
						}),
					},
					{
						Servers: []int{12, 18},
						Attack: virus.MustNew(virus.Config{
							Profile:         virus.CPUIntensive,
							PrepDuration:    2 * time.Second,
							MaxPhaseI:       4 * time.Second,
							SpikeWidth:      500 * time.Millisecond,
							SpikesPerMinute: 20,
							Seed:            31,
						}),
					},
				},
			}
		},
	}
}

// TestSkipBitIdentity is the fast path's contract test: for every scheme
// and every scenario, a run with SkipQuiescent on must produce a Result —
// recordings, energy accounting, trip bookkeeping and all — deeply equal
// to the per-tick run. The quiet scenario must also actually skip (most
// of its horizon), or the fast path has silently stopped engaging and the
// benchmarks are measuring nothing.
func TestSkipBitIdentity(t *testing.T) {
	for scen, mkCfg := range skipScenarios() {
		for name, mk := range stepperMakers() {
			t.Run(scen+"/"+name, func(t *testing.T) {
				base, err := sim.Run(mkCfg(), mk())
				if err != nil {
					t.Fatal(err)
				}
				cfg := mkCfg()
				cfg.SkipQuiescent = true
				st, err := sim.NewStepper(cfg, mk())
				if err != nil {
					t.Fatal(err)
				}
				for {
					ok, err := st.Step()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
				if !reflect.DeepEqual(base, st.Result()) {
					t.Fatalf("%s/%s: skip run diverged from per-tick run", scen, name)
				}
				spans, ticks := st.SkipStats()
				if scen == "quiet" {
					total := int64(cfg.Duration / cfg.Tick)
					if ticks < total/2 {
						t.Fatalf("%s/%s: quiet run skipped only %d of %d ticks over %d spans",
							scen, name, ticks, total, spans)
					}
				}
			})
		}
	}
}

// TestSkipMaxSpan pins the span cap: capped runs stay bit-identical and
// no single span exceeds the cap (spans × cap must cover the skipped
// ticks).
func TestSkipMaxSpan(t *testing.T) {
	mk := stepperMakers()["PAD"]
	base, err := sim.Run(skipScenarios()["quiet"](), mk())
	if err != nil {
		t.Fatal(err)
	}
	cfg := skipScenarios()["quiet"]()
	cfg.SkipQuiescent = true
	cfg.SkipMaxSpan = 64
	st, err := sim.NewStepper(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if !reflect.DeepEqual(base, st.Result()) {
		t.Fatal("SkipMaxSpan run diverged from per-tick run")
	}
	spans, ticks := st.SkipStats()
	if spans == 0 || ticks == 0 {
		t.Fatal("SkipMaxSpan run never skipped")
	}
	if ticks > spans*int64(cfg.SkipMaxSpan) {
		t.Fatalf("skipped %d ticks in %d spans: some span exceeded the %d cap",
			ticks, spans, cfg.SkipMaxSpan)
	}

	cfg = skipScenarios()["quiet"]()
	cfg.SkipMaxSpan = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a negative SkipMaxSpan")
	}
}

// TestSkipOffByDefault guards the opt-in: a default config must never
// engage the fast path.
func TestSkipOffByDefault(t *testing.T) {
	st, err := sim.NewStepper(skipScenarios()["quiet"](), stepperMakers()["PAD"]())
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if spans, ticks := st.SkipStats(); spans != 0 || ticks != 0 {
		t.Fatalf("skip engaged (%d spans, %d ticks) without SkipQuiescent", spans, ticks)
	}
}

// FuzzSkipGuardBand fuzzes the attack clock geometry — preparation
// length, Phase I patience, spike width and cadence, RNG seed — against
// the span-boundary guard band: whatever the event layout, a skipping
// run must stay bit-identical to the per-tick run. This is the search
// for the off-by-one the fixed scenarios might miss: an event landing
// exactly on a span boundary, a spike narrower than a tick, a
// preparation phase ending mid-span.
func FuzzSkipGuardBand(f *testing.F) {
	f.Add(int64(60_000), int64(10_000), int64(1000), uint8(15), uint16(9))
	f.Add(int64(45_100), int64(5_000), int64(100), uint8(60), uint16(1))
	f.Add(int64(59_950), int64(3_333), int64(250), uint8(7), uint16(77))
	f.Fuzz(func(t *testing.T, prepMs, phaseIMs, widthMs int64, spm uint8, seed uint16) {
		// Clamp into the validated range rather than rejecting, so every
		// fuzz input exercises the engine.
		prep := time.Duration(clampI64(prepMs, 100, 70_000)) * time.Millisecond
		phaseI := time.Duration(clampI64(phaseIMs, 500, 15_000)) * time.Millisecond
		width := time.Duration(clampI64(widthMs, 50, 4_000)) * time.Millisecond
		// The spike must fit inside its period with some rest, so the
		// cadence ceiling follows from the fuzzed width.
		maxCad := clampI64(int64(59/width.Seconds()), 1, 60)
		cadence := float64(int64(spm)%maxCad) + 1
		mkCfg := func() sim.Config {
			return sim.Config{
				Key:            "skip/fuzz",
				Racks:          2,
				ServersPerRack: 3,
				Tick:           100 * time.Millisecond,
				Duration:       80 * time.Second,
				Record:         true,
				Attack: &sim.AttackSpec{
					Servers: []int{0, 4},
					Attack: virus.MustNew(virus.Config{
						Profile:         virus.CPUIntensive,
						PrepDuration:    prep,
						MaxPhaseI:       phaseI,
						SpikeWidth:      width,
						SpikesPerMinute: cadence,
						Seed:            uint64(seed),
					}),
				},
			}
		}
		mkScheme := func() sim.Scheme {
			s, err := schemes.ByName("PAD", schemes.Options{ServersPerRack: 3})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		base, err := sim.Run(mkCfg(), mkScheme())
		if err != nil {
			t.Fatal(err)
		}
		cfg := mkCfg()
		cfg.SkipQuiescent = true
		got, err := sim.Run(cfg, mkScheme())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("skip run diverged: prep=%v phaseI=%v width=%v spm=%v seed=%d",
				prep, phaseI, width, cadence, seed)
		}
	})
}

func clampI64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
