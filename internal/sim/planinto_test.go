package sim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// freshScratch ignores the engine's scratch slice and plans into a
// freshly allocated one every tick.
type freshScratch struct{ inner sim.Scheme }

func (p freshScratch) Name() string { return p.inner.Name() }
func (p freshScratch) PlanInto(view sim.ClusterView, _ []sim.Action) []sim.Action {
	return p.inner.PlanInto(view, make([]sim.Action, len(view.Racks)))
}

// freshScratchWithLevel keeps the security level visible (PAD), so the
// recorded Levels series is identical on both paths.
type freshScratchWithLevel struct {
	freshScratch
	lr sim.LevelReporter
}

func (p freshScratchWithLevel) Level() core.Level { return p.lr.Level() }

func withFreshScratch(s sim.Scheme) sim.Scheme {
	if lr, ok := s.(sim.LevelReporter); ok {
		return freshScratchWithLevel{freshScratch{s}, lr}
	}
	return freshScratch{s}
}

func planIntoConfig() sim.Config {
	const racks, spr = 3, 5
	horizon := 12 * time.Second
	bg := make([]*stats.Series, racks*spr)
	rng := stats.NewRNG(23)
	for i := range bg {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(time.Second)
		for k := 0; k <= int(horizon/time.Second)+1; k++ {
			s.Append(0.35 + 0.4*r.Float64())
		}
		bg[i] = s
	}
	return sim.Config{
		Key:            "planinto/equivalence",
		Racks:          racks,
		ServersPerRack: spr,
		Tick:           100 * time.Millisecond,
		Duration:       horizon,
		Background:     bg,
		Record:         true,
		Attack: &sim.AttackSpec{
			Servers: []int{0, 1, 5},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    time.Second,
				MaxPhaseI:       3 * time.Second,
				SpikeWidth:      time.Second,
				SpikesPerMinute: 15,
				Seed:            9,
			}),
		},
	}
}

// TestPlanIntoMatchesPlan is the scratch-slice contract check: for
// every scheme, a run planning into the engine's reused scratch slice
// must produce a Result deeply equal — recordings included — to a run
// where every tick plans into a fresh slice. Any divergence means a
// scheme kept the engine's scratch slice (or state derived from it)
// across ticks.
func TestPlanIntoMatchesPlan(t *testing.T) {
	makers := map[string]func() sim.Scheme{
		"Conv": func() sim.Scheme { return schemes.NewConv(schemes.Options{}) },
		"PS":   func() sim.Scheme { return schemes.NewPS(schemes.Options{}) },
		"PSPC": func() sim.Scheme { return schemes.NewPSPC(schemes.Options{}) },
		"uDEB": func() sim.Scheme { return schemes.NewUDEB(schemes.Options{}) },
		"vDEB": func() sim.Scheme { return schemes.NewVDEB(schemes.Options{}) },
		"PAD":  func() sim.Scheme { return schemes.NewPAD(schemes.Options{}) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			reused, err := sim.Run(planIntoConfig(), mk())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sim.Run(planIntoConfig(), withFreshScratch(mk()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("%s: engine-scratch and fresh-slice runs produced different Results", name)
			}
		})
	}
}
