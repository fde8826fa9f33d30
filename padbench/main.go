// Command padbench is the repository's sample-to-decision benchmark.
// It drives padd in-process through its public API (Manager, Session,
// StreamClient, NewServer) on two online fleet workloads, and times a
// full cmd/experiments regeneration on the offline one. Each run checks
// the program's outputs for correctness and prints, as its last line,
// one JSON object with the run's metrics:
//
//	padbench --workload fleet-pad --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// same workload runs again with spans, a CPU profile and standalone
// layer replays, and the metrics are the per-layer set. The steady
// subcommand repeats a workload over several seeds and prints each
// metric's median, quartiles and spread beside its bound:
//
//	padbench steady --workload fleet-wide --runs 5
//
// run.sh builds this command and the experiments CLI from source first;
// README.md documents the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last. Attempted and Failed count the
// workload's units of work: samples for the online workloads,
// simulation runs for figures.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json repeats the
// lists below (schema_test.go keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: the CPU and memory a user pays per
// unit of work. On a shared VM the host steals vCPU time in bursts
// (a quarter of it in some runs), which moves every wall-clock number by
// tens of percent while CPU time, which the guest does not charge for
// stolen time, holds; so wall-clock throughput and latency are reported
// per layer, beside the other traced numbers, and not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_decision", "us"},
	{"batch_cpu_s", "s"},
	{"heap_kb_per_session", "KB"},
}

// experimentNames are the cmd/experiments drivers, in run order.
var experimentNames = []string{
	"fig1", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "table1",
	"fig12", "fig13", "fig14", "fig15", "fig16a", "fig16b", "fig17", "ablations",
}

// cpuPackages are the cpu_share ledger's buckets (see profile.go).
var cpuPackages = []string{
	"sim", "schemes", "battery", "powersim", "core", "metering", "obs",
	"padd", "wire", "stats", "experiments", "runner", "bench",
	"runtime.gc", "runtime.sched", "syscall", "other",
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"decisions_per_s", "1/s"},
		{"decision_p50_ms", "ms"},
		{"decision_p99_ms", "ms"},
		{"batch_s", "s"},
		{"setup_wall_s", "s"},
		{"wire.decode_ns_per_record", "ns"},
		{"padd.ack_us_p50", "us"},
		{"padd.ack_us_p99", "us"},
		{"padd.backpressure_frac", "ratio"},
		{"padd.session_create_us", "us"},
		{"padd.queue_wait_ms_p50", "ms"},
		{"padd.queue_wait_ms_p99", "ms"},
		{"padd.shard_skew", "ratio"},
		{"padd.metrics_ms", "ms"},
		{"padd.metrics_kb", "KB"},
		{"padd.sessions_list_ms", "ms"},
		{"padd.sessions_list_kb", "KB"},
		{"padd.fleet_ms", "ms"},
		{"padd.late_frac", "ratio"},
		{"padd.failed_frac", "ratio"},
		{"sim.advance_us_per_tick", "us"},
		{"sim.stats_ns_per_call", "ns"},
		{"metering.ns_per_tick", "ns"},
		{"metering.flags", "count"},
		{"obs.series_ns_per_tick", "ns"},
		{"runner.busy_frac", "ratio"},
		{"go.allocs_per_decision", "count"},
		{"go.alloc_bytes_per_decision", "B"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_ms", "ms"},
		{"gen.late_ms_p99", "ms"},
		{"gen.encode_us_per_frame", "us"},
		{"gen.probe_polls", "count"},
		{"trace.spans", "count"},
		{"trace.cpu_us_per_decision", "us"},
	}
	for _, n := range experimentNames {
		defs = append(defs, metricDef{"experiments." + n + "_s", "s"})
	}
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu_share." + p, "ratio"})
	}
	return defs
}

// env is what every workload run needs to know about its invocation.
type env struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	build    string // build directory: binaries, outputs, traces
	root     string // checkout root: results/ lives here
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "padbench steady:", err)
			os.Exit(1)
		}
		return
	}
	var e env
	var trace int
	flag.StringVar(&e.workload, "workload", "", "workload: "+workloadList())
	flag.Uint64Var(&e.seed, "seed", 1, "input seed")
	flag.IntVar(&e.seconds, "seconds", 24, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&e.build, "build", ".bench_build", "build directory (binaries, outputs, traces)")
	flag.StringVar(&e.root, "root", ".", "checkout root")
	flag.Parse()
	e.traced = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", trace)
	}
	if e.seconds < 1 {
		fatalf("--seconds must be at least 1, got %d", e.seconds)
	}
	run, ok := workloads[e.workload]
	if !ok {
		fatalf("unknown workload %q (want %s)", e.workload, workloadList())
	}
	res, err := run(e)
	if err != nil {
		fatalf("%s: %v", e.workload, err)
	}
	if err := res.complete(e.traced); err != nil {
		fatalf("%s: %v", e.workload, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

var workloads = map[string]func(env) (*result, error){
	"fleet-pad":  func(e env) (*result, error) { return runOnline(e, fleetPad) },
	"fleet-wide": func(e env) (*result, error) { return runOnline(e, fleetWide) },
	"figures":    runFigures,
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// newResult starts a result whose metrics are filled by name.
func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a metric; the unit comes from the metric lists.
func (r *result) set(name string, v float64) { r.Metrics[name] = metric{Value: v} }

// complete keeps exactly the metrics of the run's mode, attaches their
// units, and fails when a workload forgot one or produced a non-finite
// value: a missing metric is a benchmark bug, not a zero.
func (r *result) complete(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	r.Metrics = out
	if r.Attempted < 1 {
		return fmt.Errorf("attempted %d units of work", r.Attempted)
	}
	return nil
}

// fail marks the run incorrect and says why on standard error, so the
// last line of standard output stays the result.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "padbench: check failed: "+format+"\n", args...)
}

// buildPath joins a name under the build directory.
func (e env) buildPath(name string) string { return filepath.Join(e.build, name) }

func nproc() int { return runtime.GOMAXPROCS(0) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "padbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "padbench: "+format+"\n", args...)
}
