package main

import (
	"fmt"
	"time"
)

// report fills the run's end-to-end metrics, and with tracing on its
// per-layer metrics.
func (r *onlineRun) report(e env, res *result) error {
	res.set("setup_s", median(r.setupCPU))
	res.set("setup_wall_s", median(r.setupS))
	res.set("decisions_per_s", median(r.segRate))
	res.set("cpu_us_per_decision", median(r.segCPU))
	var p50s, p99s []float64
	for _, win := range r.latWin {
		p99, err := tailQuantile(win, 0.99)
		if err != nil {
			return fmt.Errorf("decision latency window: %w", err)
		}
		p50s = append(p50s, quantile(win, 0.5))
		p99s = append(p99s, p99)
	}
	res.set("decision_p50_ms", median(p50s))
	res.set("decision_p99_ms", median(p99s))
	res.set("heap_kb_per_session", r.heapKB)
	res.set("batch_s", r.wallB.Seconds())
	res.set("batch_cpu_s", r.cpuB.Seconds())
	logf("%s: %d sessions, phase A %d frames at %.0f/s (%d probe decisions, p99 over %d windows), phase B %d frames",
		r.sp.name, r.sp.sessions, r.nA, r.sp.rateA, len(r.latMS), len(r.latWin), r.nB)
	if !e.traced {
		return nil
	}

	var acks, late []float64
	var frames, bp, encNS int64
	for _, st := range append(append([]*connStats(nil), r.gen...), r.genB...) {
		acks = append(acks, st.ackUS...)
		late = append(late, st.lateNS...)
		frames += st.frames
		bp += st.bp
		encNS += st.encodeNS
	}
	res.set("padd.ack_us_p50", quantile(acks, 0.5))
	ackP99, err := tailQuantile(acks, 0.99)
	if err != nil {
		return err
	}
	res.set("padd.ack_us_p99", ackP99)
	res.set("padd.backpressure_frac", ratio(float64(bp), float64(frames)))
	var create []float64
	for _, ns := range r.f.createNS {
		create = append(create, float64(ns)/1e3)
	}
	res.set("padd.session_create_us", mean(create))
	res.set("padd.queue_wait_ms_p50", quantile(r.waitMS, 0.5))
	waitP99, err := tailQuantile(r.waitMS, 0.99)
	if err != nil {
		return err
	}
	res.set("padd.queue_wait_ms_p99", waitP99)
	fs := r.f.mgr.Fleet()
	var maxAcc, sumAcc float64
	for _, sh := range fs.Shards {
		a := float64(sh.AcceptedSamples)
		sumAcc += a
		if a > maxAcc {
			maxAcc = a
		}
	}
	res.set("padd.shard_skew", ratio(maxAcc, sumAcc/float64(len(fs.Shards))))
	sc := r.scrapes
	if sc == nil {
		sc = &scrapeStats{}
	}
	res.set("padd.metrics_ms", medianOrZero(sc.metricsMS))
	res.set("padd.metrics_kb", medianOrZero(sc.metricsKB))
	res.set("padd.sessions_list_ms", medianOrZero(sc.listMS))
	res.set("padd.sessions_list_kb", medianOrZero(sc.listKB))
	res.set("padd.fleet_ms", medianOrZero(sc.fleetMS))
	var lateDecisions int
	for _, ms := range r.latMS {
		if ms > float64(lateDecision)/1e6 {
			lateDecisions++
		}
	}
	res.set("padd.late_frac", ratio(float64(lateDecisions), float64(len(r.latMS))))
	res.set("padd.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))

	decisionsAB := float64(r.nA+r.nB) * float64(r.sp.sessions)
	res.set("go.allocs_per_decision", float64(r.mem1.Mallocs-r.mem0.Mallocs)/decisionsAB)
	res.set("go.alloc_bytes_per_decision", float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc)/decisionsAB)
	res.set("go.gc_cycles", float64(r.mem1.NumGC-r.mem0.NumGC))
	res.set("go.gc_pause_ms", float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs)/1e6)

	// Too few sends for a p99 with 10 beyond it report the maximum, an
	// upper bound on the p99: this records validity, not a latency claim.
	lateP99, err := tailQuantile(late, 0.99)
	if err != nil {
		lateP99 = quantile(late, 1)
	}
	res.set("gen.late_ms_p99", lateP99/1e6)
	res.set("gen.encode_us_per_frame", float64(encNS)/1e3/float64(frames))
	res.set("gen.probe_polls", float64(r.polls.Load()))
	res.set("trace.spans", float64(r.tr.count()))
	res.set("trace.cpu_us_per_decision", res.Metrics["cpu_us_per_decision"].Value)
	res.set("runner.busy_frac", 0)
	for _, n := range experimentNames {
		res.set("experiments."+n+"_s", 0)
	}
	shares, err := cpuShares(r.profile)
	if err != nil {
		return err
	}
	for pkg, v := range shares {
		res.set("cpu_share."+pkg, v)
	}
	return nil
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// timeLoop runs body until at least minDur has passed and returns the
// mean time per call; body returns how many units it did.
func timeLoop(minDur time.Duration, body func() int) float64 {
	var units int
	t0 := time.Now()
	for time.Since(t0) < minDur {
		units += body()
	}
	return float64(time.Since(t0)) / float64(units)
}
