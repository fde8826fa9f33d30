package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metering"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// tick is the control interval every session runs at (padd's default).
const tick = 100 * time.Millisecond

// shape is a session's cluster and defense configuration.
type shape struct {
	scheme         string
	racks, perRack int
	meter          bool // 5 s metering + CUSUM (padd's default) or off
	// attackOversub is the oversubscription ratio of clusters under the
	// virus. Figure 9's tight budgets drain the battery pool into Levels
	// 2-3 within a run (0.5: about 105 s of simulated attack); padd's
	// default 0.75 needs four minutes.
	attackOversub float64
}

func (s shape) servers() int { return s.racks * s.perRack }

// inputs are a workload's generated demand: nTraces closed-loop demand
// traces, each recorded from an offline sim.Stepper, which sessions
// share round-robin. The offline results are what every online session
// fed the same trace must reproduce.
type inputs struct {
	shape   shape
	ticks   int
	virus   int         // traces 0..virus-1 carry the power virus
	demand  [][]float64 // per trace: ticks × servers, sample-major
	results []*sim.Result
	grid    [][]units.Watts // per trace: cluster grid power per tick
	// Observed while recording: CUSUM flags over every trace's metered
	// grid power, and the highest security level any trace reached.
	flags    int
	maxLevel core.Level
}

// traceSeed derives trace k's seed from the run seed.
func traceSeed(seed uint64, k int) uint64 {
	return seed*1_000_003 + uint64(k)*7919 + 1
}

// simConfig is the engine configuration a padd session of this shape
// runs, so the offline recording and the online session agree.
func (s shape) simConfig(ticks int, attacked bool) sim.Config {
	cfg := sim.Config{
		Key:            "padbench",
		Racks:          s.racks,
		ServersPerRack: s.perRack,
		Tick:           tick,
		Duration:       time.Duration(ticks) * tick,
	}
	if attacked {
		cfg.OversubscriptionRatio = s.attackOversub
	}
	if schemes.NeedsMicroDEB(s.scheme) {
		cfg.MicroDEBFactory = schemes.MicroDEBFactory(0.01)
	}
	return cfg
}

// genInputs records nTraces demand traces of the given length; the
// first nVirus carry the paper's two-phase power virus on attackNodes
// servers. Breakers may trip: the engine keeps running to its horizon,
// so a trip changes the results, never the sample count.
func genInputs(s shape, nTraces, nVirus, attackNodes, ticks int, seed uint64) (*inputs, error) {
	in := &inputs{shape: s, ticks: ticks, virus: nVirus}
	for k := 0; k < nTraces; k++ {
		rec, err := record(s, ticks, k < nVirus, attackNodes, traceSeed(seed, k))
		if err != nil {
			return nil, err
		}
		in.demand = append(in.demand, rec.demand)
		in.results = append(in.results, rec.res)
		in.grid = append(in.grid, rec.grid)
		in.flags += rec.flags
		if rec.maxLevel > in.maxLevel {
			in.maxLevel = rec.maxLevel
		}
	}
	return in, nil
}

type recording struct {
	demand   []float64
	grid     []units.Watts
	res      *sim.Result
	flags    int
	maxLevel core.Level
}

// record runs one offline stepper, keeping each tick's closed-loop
// demand (background plus virus, the virus reacting to the caps the
// defense grants) exactly as padd.Replay records it.
func record(s shape, ticks int, attacked bool, attackNodes int, seed uint64) (*recording, error) {
	scheme, err := schemesByName(s)
	if err != nil {
		return nil, err
	}
	cfg := s.simConfig(ticks, attacked)
	n := s.servers()
	cfg.Background = stats.NoisyUtilization(n, 0.35, cfg.Duration, 10*time.Second, seed)
	if attacked {
		atk, err := virus.New(virus.Config{
			Profile:         virus.CPUIntensive,
			SpikeWidth:      5 * time.Second,
			SpikesPerMinute: 6,
			PrepDuration:    time.Second,
			Seed:            seed,
		})
		if err != nil {
			return nil, err
		}
		nodes := make([]int, attackNodes)
		for i := range nodes {
			nodes[i] = i
		}
		cfg.Attack = &sim.AttackSpec{Servers: nodes, Attack: atk}
	}
	st, err := sim.NewStepper(cfg, scheme)
	if err != nil {
		return nil, err
	}
	rec := &recording{
		demand: make([]float64, 0, ticks*n),
		grid:   make([]units.Watts, 0, ticks),
	}
	var (
		meter *metering.Meter
		cusum *metering.CUSUMDetector
	)
	if s.meter {
		if meter, err = metering.NewMeter(5*time.Second, 0, 1); err != nil {
			return nil, err
		}
		cusum = metering.NewCUSUMDetector(0)
	}
	for !st.Done() {
		d := st.ComputeDemand()
		rec.demand = append(rec.demand, d...)
		if err := st.Advance(d); err != nil {
			return nil, err
		}
		ts := st.Stats()
		rec.grid = append(rec.grid, ts.TotalGrid)
		if ts.Level > rec.maxLevel {
			rec.maxLevel = ts.Level
		}
		if meter != nil {
			for _, r := range meter.Record(ts.TotalGrid, tick) {
				if cusum.Observe(r) {
					rec.flags++
				}
			}
		}
	}
	if got := len(rec.demand) / n; got != ticks {
		return nil, fmt.Errorf("offline stepper ran %d ticks, want %d", got, ticks)
	}
	rec.res = st.Result()
	return rec, nil
}

func schemesByName(s shape) (sim.Scheme, error) {
	return schemes.ByName(s.scheme, schemes.Options{ServersPerRack: s.perRack})
}

// sample returns trace k's demand at tick t.
func (in *inputs) sample(k, t int) []float64 {
	n := in.shape.servers()
	return in.demand[k][t*n : (t+1)*n]
}
