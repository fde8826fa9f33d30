package main

import (
	"io"
	"time"

	"repro/internal/metering"
	"repro/internal/obs"
	"repro/internal/padd/wire"
	"repro/internal/sim"
)

// layerBudget is how long each standalone layer replay runs.
const layerBudget = 100 * time.Millisecond

// measureLayers replays the workload's own inputs through single layers
// outside padd, timing each from outside: the engine tick, its Stats
// snapshot, metering, the series rings and frame decoding. A layer the
// workload's sessions do not run reports 0.
func measureLayers(res *result, in *inputs, sp *onlineSpec, ids []string, members [][]int) error {
	if err := measureEngine(res, in); err != nil {
		return err
	}
	var decode float64
	if sp != nil {
		var err error
		if decode, err = measureDecode(in, sp, ids, members[0]); err != nil {
			return err
		}
	}
	res.set("wire.decode_ns_per_record", decode)
	var series float64
	if sp != nil {
		series = measureSeries()
	}
	res.set("obs.series_ns_per_tick", series)
	return nil
}

// measureEngine times sim.Stepper.Advance over trace 0's demand (a virus
// trace when the workload has one), Stepper.Stats, and the metering
// pipeline over trace 0's grid power.
func measureEngine(res *result, in *inputs) error {
	n := in.shape.servers()
	var st *sim.Stepper
	t := 0
	fresh := func() error {
		scheme, err := schemesByName(in.shape)
		if err != nil {
			return err
		}
		st, err = sim.NewStepper(in.shape.simConfig(in.ticks, in.virus > 0), scheme)
		t = 0
		return err
	}
	if err := fresh(); err != nil {
		return err
	}
	var err error
	perTick := timeLoop(layerBudget, func() int {
		if err != nil {
			return 1
		}
		if t == in.ticks {
			if err = fresh(); err != nil {
				return 1
			}
		}
		for k := 0; k < 64 && t < in.ticks; k++ {
			if err = st.Advance(in.demand[0][t*n : (t+1)*n]); err != nil {
				return 1
			}
			t++
		}
		return 64
	})
	if err != nil {
		return err
	}
	res.set("sim.advance_us_per_tick", perTick/1e3)
	var sink int
	res.set("sim.stats_ns_per_call", timeLoop(layerBudget, func() int {
		for k := 0; k < 256; k++ {
			sink += st.Stats().ShedServers
		}
		return 256
	}))
	_ = sink

	var meterNS float64
	if in.shape.meter {
		var (
			m  *metering.Meter
			cu *metering.CUSUMDetector
		)
		grid := in.grid[0]
		i := len(grid)
		meterNS = timeLoop(layerBudget, func() int {
			if i == len(grid) {
				m, err = metering.NewMeter(5*time.Second, 0, 1)
				cu = metering.NewCUSUMDetector(0)
				i = 0
			}
			if err != nil {
				return 1
			}
			for k := 0; k < 256 && i < len(grid); k++ {
				for _, r := range m.Record(grid[i], tick) {
					cu.Observe(r)
				}
				i++
			}
			return 256
		})
		if err != nil {
			return err
		}
	}
	res.set("metering.ns_per_tick", meterNS)
	res.set("metering.flags", float64(in.flags))
	return nil
}

// measureDecode encodes a few of the workload's frames and times the
// Decoder.Reset/Next pass over them.
func measureDecode(in *inputs, sp *onlineSpec, ids []string, members []int) (float64, error) {
	n := in.shape.servers()
	var frames [][]byte
	for t := 0; t < 4 && t < in.ticks; t++ {
		var enc wire.Encoder
		for _, i := range members {
			if err := enc.AppendFlat(ids[i], 1, n, in.demand[i%sp.traces][t*n:(t+1)*n]); err != nil {
				return 0, err
			}
		}
		frames = append(frames, append([]byte(nil), enc.Frame()...))
	}
	var (
		d   wire.Decoder
		rec wire.Record
		err error
	)
	perRecord := timeLoop(layerBudget, func() int {
		records := 0
		for _, f := range frames {
			if err = d.Reset(f); err != nil {
				return 1
			}
			for {
				if e := d.Next(&rec); e == io.EOF {
					break
				} else if e != nil {
					err = e
					return 1
				}
				records++
			}
		}
		return records
	})
	return perRecord, err
}

// measureSeries times the five ring appends a session makes per tick.
func measureSeries() float64 {
	tiers := obs.DefaultTiers(tick)
	var rings [5]*obs.Series
	for i := range rings {
		rings[i] = obs.NewSeries(tiers...)
	}
	v := 0.0
	return timeLoop(layerBudget, func() int {
		for k := 0; k < 256; k++ {
			v += 0.001
			for _, s := range rings {
				s.Append(v)
			}
		}
		return 256
	})
}
