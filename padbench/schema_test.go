package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer()) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16/128", len(endToEnd), len(perLayer()))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this package's metric and
// workload lists equal, and within the file's format rules.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Fatalf("BENCHMARK.json keys %v, want %s", got, want)
	}
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", bf.RunSeconds)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d elements", len(bf.Command))
	}
	for _, c := range bf.Command {
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") || len(c) > 200 {
			t.Errorf("command element %q", c)
		}
	}
	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Errorf("%d paths", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}

	var wl []string
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wl = append(wl, w.Name)
	}
	if len(wl) < 2 || len(wl) > 8 {
		t.Errorf("%d workloads", len(wl))
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code has %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) missing from end_to_end")
	}
	layers := perLayer()
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(bf.PerLayer), len(layers))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s better %q", m.Name, m.Better)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

// TestResultSchema checks the printed line: exactly the four keys, each
// metric a value with its unit, every metric of the mode present.
func TestResultSchema(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer()
		}
		res := newResult()
		res.Attempted = 10
		for i, d := range defs {
			res.set(d.name, float64(i)+0.5)
		}
		res.set("not.a.metric", 1)
		if err := res.complete(traced); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(b, &top); err != nil {
			t.Fatal(err)
		}
		if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
			t.Fatalf("result keys: %s", b)
		}
		back, err := lastResult(append([]byte("log line\n"), b...))
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Metrics) != len(defs) {
			t.Fatalf("%d metrics printed, want %d", len(back.Metrics), len(defs))
		}
		for _, d := range defs {
			if m := back.Metrics[d.name]; m.Unit != d.unit {
				t.Errorf("%s printed with unit %q, want %q", d.name, m.Unit, d.unit)
			}
		}
	}

	res := newResult()
	res.Attempted = 1
	for _, d := range endToEnd[1:] {
		res.set(d.name, 1)
	}
	if err := res.complete(false); err == nil {
		t.Error("a result missing setup_s was accepted")
	}
	res.set("setup_s", math.NaN())
	if err := res.complete(false); err == nil {
		t.Error("a NaN metric was accepted")
	}
	res.set("setup_s", 1)
	res.Attempted = 0
	if err := res.complete(false); err == nil {
		t.Error("a run that attempted nothing was accepted")
	}
}
