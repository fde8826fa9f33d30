package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// figuresSetupReps is how many CLI start-ups set-up time takes the
// median of.
const figuresSetupReps = 21

// regenSeconds is the nominal length of one full regeneration; a run
// makes seconds/regenSeconds of them (at least one).
const regenSeconds = 8

// regen is one full cmd/experiments regeneration as measured from
// outside the process.
type regen struct {
	wall, cpu time.Duration
	runsAt    []time.Duration // completion offset of each simulation run
	driverS   map[string]float64
	driverEnd map[string]time.Duration // completion offset of each driver
	gcCycles  int
	gcPauseMS float64
	peakLive  int64 // highest live heap after a GC, MB (gctrace)
	profile   []byte
}

var (
	runLine    = regexp.MustCompile(`msg="run finished"`)
	driverLine = regexp.MustCompile(`^\[(\w+) done in ([^\]]+)\]$`)
	// gctrace: "gc 7 @0.512s 3%: 0.021+1.2+0.004 ms clock, ..., 4->4->1 MB, ..."
	gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock.* \d+->\d+->(\d+) MB`)
)

// runFigures times full regenerations of every figure and table with
// the experiments CLI built from source (outside the timed region), as
// a researcher runs it: a fresh process with cold caches and one worker
// per CPU. A "decision" here is one simulation run of the regeneration,
// and its latency is the run's completion time from the start of the
// regeneration. The seed does not apply: the outputs must match the
// reference results/ byte for byte, and those are the seed-1 figures.
func runFigures(e env) (*result, error) {
	exe := e.buildPath("experiments")
	if _, err := os.Stat(exe); err != nil {
		return nil, fmt.Errorf("experiments CLI not built: %w", err)
	}
	outRoot := e.buildPath("figures")
	if err := os.RemoveAll(outRoot); err != nil {
		return nil, err
	}
	var setup, setupWall []float64
	for i := 0; i < figuresSetupReps; i++ {
		t0 := time.Now()
		cmd := exec.Command(exe, "-only", "none", "-results", filepath.Join(outRoot, "empty"))
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("CLI start-up: %v: %s", err, out)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setup = append(setup, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}

	res := newResult()
	n := e.seconds / regenSeconds
	if n < 1 {
		n = 1
	}
	var regens []*regen
	for i := 0; i < n; i++ {
		dir := filepath.Join(outRoot, fmt.Sprintf("out%d", i))
		rg, err := runRegen(e, exe, dir)
		if err != nil {
			return nil, err
		}
		regens = append(regens, rg)
		res.Attempted += int64(len(rg.runsAt))
		bad, err := dirDiff(filepath.Join(e.root, "results"), dir, map[string]bool{"full_run.log": true})
		if err != nil {
			return nil, err
		}
		for _, b := range bad {
			res.fail("regeneration %d: %s", i, b)
		}
		if len(bad) > 0 {
			res.Failed += int64(len(rg.runsAt))
		}
		if len(rg.runsAt) == 0 || len(rg.runsAt) != len(regens[0].runsAt) {
			res.fail("regeneration %d completed %d simulation runs, the first completed %d",
				i, len(rg.runsAt), len(regens[0].runsAt))
		}
	}

	var wall, cpu, rate, cpuPer, live, at []float64
	for _, rg := range regens {
		runs := float64(len(rg.runsAt))
		wall = append(wall, rg.wall.Seconds())
		cpu = append(cpu, rg.cpu.Seconds())
		rate = append(rate, runs/rg.wall.Seconds())
		cpuPer = append(cpuPer, float64(rg.cpu)/1e3/runs)
		live = append(live, float64(rg.peakLive)*1024/float64(nproc()))
		for _, d := range rg.runsAt {
			at = append(at, float64(d)/1e6)
		}
	}
	res.set("setup_s", median(setup))
	res.set("setup_wall_s", median(setupWall))
	res.set("decisions_per_s", median(rate))
	res.set("cpu_us_per_decision", median(cpuPer))
	// Completion offsets cover every run of the regeneration (a census,
	// not a sample), so the p99 is reported at any count.
	res.set("decision_p50_ms", quantile(at, 0.5))
	res.set("decision_p99_ms", quantile(at, 0.99))
	// A worker holds one run's engine at a time, as a padd session holds
	// one: the peak live heap per worker is the per-session analogue.
	res.set("heap_kb_per_session", median(live))
	res.set("batch_s", median(wall))
	res.set("batch_cpu_s", median(cpu))
	logf("figures: %d regenerations of %d simulation runs, median %.2fs wall %.2fs CPU",
		len(regens), len(regens[0].runsAt), median(wall), median(cpu))
	if !e.traced {
		return res, nil
	}
	return res, figuresLayers(e, res, regens)
}

// runRegen runs one regeneration into dir, timestamping each
// simulation run's completion from the CLI's -progress lines.
func runRegen(e env, exe, dir string) (*regen, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	args := []string{"-results", dir, "-progress", "-workers", strconv.Itoa(nproc())}
	profPath := dir + ".cpu.pprof"
	if e.traced {
		args = append(args, "-cpuprofile", profPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	rg := &regen{driverS: map[string]float64{}, driverEnd: map[string]time.Duration{}}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	outDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if m := driverLine.FindStringSubmatch(strings.TrimSpace(sc.Text())); m != nil {
				if d, err := time.ParseDuration(m[2]); err == nil {
					rg.driverS[m[1]] = d.Seconds()
					rg.driverEnd[m[1]] = time.Since(t0)
				}
			}
		}
		outDone <- sc.Err()
	}()
	var tail []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case runLine.MatchString(line):
			rg.runsAt = append(rg.runsAt, time.Since(t0))
		case gcLine.MatchString(line):
			m := gcLine.FindStringSubmatch(line)
			a, _ := strconv.ParseFloat(m[1], 64)
			b, _ := strconv.ParseFloat(m[2], 64)
			live, _ := strconv.ParseInt(m[3], 10, 64)
			rg.gcCycles++
			rg.gcPauseMS += a + b
			if live > rg.peakLive {
				rg.peakLive = live
			}
		default:
			if tail = append(tail, line); len(tail) > 20 {
				tail = tail[1:]
			}
		}
	}
	scanErr := sc.Err()
	outErr := <-outDone
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("experiments: %v: %s", err, strings.Join(tail, "\n"))
	}
	rg.wall = time.Since(t0)
	if scanErr != nil || outErr != nil {
		return nil, fmt.Errorf("reading experiments output: %v %v", scanErr, outErr)
	}
	rg.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if rg.peakLive == 0 {
		return nil, fmt.Errorf("experiments printed no gctrace heap sizes")
	}
	if e.traced {
		if rg.profile, err = os.ReadFile(profPath); err != nil {
			return nil, err
		}
	}
	return rg, nil
}

// figuresLayers fills the per-layer metrics of the figures workload:
// per-driver times, runner utilization, GC activity from gctrace and
// the CPU ledger of the child's profile, plus the standalone engine
// replays at padd's default 22×10 PAD shape. padd layers are not run.
func figuresLayers(e env, res *result, regens []*regen) error {
	var busy []float64
	for _, rg := range regens {
		busy = append(busy, rg.cpu.Seconds()/(float64(nproc())*rg.wall.Seconds()))
	}
	res.set("runner.busy_frac", median(busy))
	for _, name := range experimentNames {
		var xs []float64
		for _, rg := range regens {
			if v, ok := rg.driverS[name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return fmt.Errorf("experiment %s printed no completion line", name)
		}
		res.set("experiments."+name+"_s", median(xs))
	}
	last := regens[len(regens)-1]
	res.set("go.gc_cycles", float64(last.gcCycles))
	res.set("go.gc_pause_ms", last.gcPauseMS)
	// The child's allocation counters are not observable from outside.
	res.set("go.allocs_per_decision", 0)
	res.set("go.alloc_bytes_per_decision", 0)
	shares, err := cpuShares(last.profile)
	if err != nil {
		return err
	}
	for pkg, v := range shares {
		res.set("cpu_share."+pkg, v)
	}
	for _, name := range []string{
		"padd.ack_us_p50", "padd.ack_us_p99", "padd.backpressure_frac",
		"padd.session_create_us", "padd.queue_wait_ms_p50", "padd.queue_wait_ms_p99",
		"padd.shard_skew", "padd.metrics_ms", "padd.metrics_kb", "padd.sessions_list_ms",
		"padd.sessions_list_kb", "padd.fleet_ms", "padd.late_frac",
		"gen.late_ms_p99", "gen.encode_us_per_frame", "gen.probe_polls",
	} {
		res.set(name, 0)
	}
	res.set("padd.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)))
	// Regenerations laid end to end; each driver ends when its line
	// arrived and lasted as long as it printed.
	tr := newTracer()
	var base int64
	for i, rg := range regens {
		tr.addAt("experiments regeneration", 0, int64(i), base, base+int64(rg.wall))
		for _, name := range experimentNames {
			end := base + int64(rg.driverEnd[name])
			tr.addAt("experiments."+name, 1, int64(i), end-int64(rg.driverS[name]*1e9), end)
		}
		base += int64(rg.wall)
	}
	path := e.buildPath("trace-figures.json")
	if err := tr.write(path); err != nil {
		return err
	}
	res.set("trace.spans", float64(tr.count()))
	res.set("trace.cpu_us_per_decision", res.Metrics["cpu_us_per_decision"].Value)

	in, err := genInputs(fleetPad.shape, 1, 1, fleetPad.attackNodes, 600, 1)
	if err != nil {
		return err
	}
	return measureLayers(res, in, nil, nil, nil)
}
