package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report
// reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// steadyMain runs one workload --runs times with consecutive seeds and
// prints, per metric, the median, quartiles and interquartile spread as
// a share of the median, next to the metric's bound from BENCHMARK.json.
// A spread under a third of its bound is marked steady. With --overhead
// each seed also runs traced, and the report adds the traced-minus-
// untraced difference of the timing metrics the traced run repeats.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "runs, one seed each")
	seed := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0: BENCHMARK.json's run_seconds)")
	overhead := fs.Bool("overhead", false, "also run each seed traced and report the tracing overhead")
	build := fs.String("build", ".bench_build", "build directory")
	root := fs.String("root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := loadBenchmark(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	traced := map[string][]float64{}
	verdicts := map[bool]int{}
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(i)
		modes := []int{0}
		if *overhead {
			modes = append(modes, 1)
		}
		for _, mode := range modes {
			res, err := runChild(self, *build, *root, *workload, s, *seconds, mode)
			if err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
			into := values
			if mode == 1 {
				into = traced
			} else {
				verdicts[res.Correct]++
			}
			for name, m := range res.Metrics {
				into[name] = append(into[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "seed %d trace %d: correct=%v attempted=%d failed=%d",
				s, mode, res.Correct, res.Attempted, res.Failed)
			if mode == 0 {
				for _, m := range bf.EndToEnd {
					fmt.Fprintf(os.Stderr, " %s=%.5g", m.Name, res.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	fmt.Printf("%s: %d runs of %ds, seeds %d..%d, verdicts correct=%d incorrect=%d\n",
		*workload, *runs, *seconds, *seed, *seed+uint64(*runs)-1, verdicts[true], verdicts[false])
	fmt.Printf("%-22s %12s %12s %12s %8s %6s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		xs := values[m.Name]
		if len(xs) == 0 {
			fmt.Printf("%-22s missing\n", m.Name)
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := ratio(q3-q1, q2)
		verdict := "steady"
		if spread >= m.Bound/3 {
			verdict = "NOISY"
		}
		fmt.Printf("%-22s %12.5g %12.5g %12.5g %7.2f%% %5.0f%% %s\n",
			m.Name, q1, q2, q3, 100*spread, 100*m.Bound, verdict)
	}
	if *overhead {
		base, tr := median(values["cpu_us_per_decision"]), median(traced["trace.cpu_us_per_decision"])
		fmt.Printf("tracing overhead cpu_us_per_decision: traced %.5g - untraced %.5g = %+.5g (%+.1f%%)\n",
			tr, base, tr-base, 100*ratio(tr-base, base))
	}
	names := make([]string, 0, len(traced))
	for n := range traced {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("layer %-34s median %.5g\n", n, median(traced[n]))
	}
	return nil
}

// runChild runs this binary once on a workload and decodes the result
// line it prints last.
func runChild(self, build, root, workload string, seed uint64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "-build", build, "-root", root, "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds),
		"--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	return lastResult(out)
}

// lastResult decodes the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}
