package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/padd"
	"repro/internal/sim"
)

// TestDirDiffCatchesMutatedByte plants a one-byte change in a copy of a
// reference CSV, plus a missing and an extra file.
func TestDirDiffCatchesMutatedByte(t *testing.T) {
	ref := filepath.Join("..", "results")
	want, got := t.TempDir(), t.TempDir()
	for _, name := range []string{"fig8a_nodes.csv", "table1_detection_rates.csv"} {
		b, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{want, got} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bad, err := dirDiff(want, got, nil); err != nil || len(bad) != 0 {
		t.Fatalf("identical outputs: %v %v", bad, err)
	}

	path := filepath.Join(got, "fig8a_nodes.csv")
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 1
	os.WriteFile(path, b, 0o644)
	bad, err := dirDiff(want, got, nil)
	if err != nil || !reflect.DeepEqual(bad, []string{"fig8a_nodes.csv: differs"}) {
		t.Fatalf("mutated byte: %v %v", bad, err)
	}

	os.Remove(filepath.Join(got, "table1_detection_rates.csv"))
	os.WriteFile(filepath.Join(got, "extra.csv"), []byte("x\n"), 0o644)
	os.WriteFile(filepath.Join(got, "full_run.log"), []byte("skipped\n"), 0o644)
	bad, _ = dirDiff(want, got, map[string]bool{"full_run.log": true})
	if len(bad) != 3 {
		t.Fatalf("missing+extra+mutated: %v", bad)
	}
}

// smallShape is a quick PAD cluster under the virus for the session
// tests: the same engine and policy as the workload, at toy size.
var smallShape = shape{scheme: "PAD", racks: 2, perRack: 5, meter: true, attackOversub: 0.5}

// feed streams one trace through a real padd session over the public
// API and returns its final status and result.
func feed(t *testing.T, in *inputs, demand []float64) (padd.SessionStatus, *sim.Result) {
	t.Helper()
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	sp := &onlineSpec{shape: in.shape, traces: 1, virusTraces: in.virus}
	s, err := mgr.Create(sp.sessionConfig(0, "probe", in.ticks))
	if err != nil {
		t.Fatal(err)
	}
	n := in.shape.servers()
	for tk := 0; tk < in.ticks; tk++ {
		for {
			err := s.Enqueue([][]float64{demand[tk*n : (tk+1)*n]})
			if err == nil {
				break
			}
			if err != padd.ErrQueueFull {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Status().Ticks < int64(in.ticks) {
		if time.Now().After(deadline) {
			t.Fatal("session did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Status()
	if _, err := mgr.Delete("probe"); err != nil {
		t.Fatal(err)
	}
	return st, s.Result()
}

func TestSessionMatchesOfflineAndCatchesDefects(t *testing.T) {
	in, err := genInputs(smallShape, 1, 1, 10, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, res := feed(t, in, in.demand[0])
	if msg := accountingDiff(st, in.ticks); msg != "" {
		t.Fatalf("clean run: %s", msg)
	}
	if diff := resultDiff(in.results[0], res); len(diff) > 0 {
		t.Fatalf("clean run differs from offline: %v", diff)
	}

	// Planted defect: an accepted sample that never became a tick.
	dropped := st
	dropped.Ticks--
	if accountingDiff(dropped, in.ticks) == "" {
		t.Error("a dropped accepted sample passed the accounting check")
	}
	discarded := st
	discarded.Discarded, discarded.Ticks = 1, st.Ticks-1
	if accountingDiff(discarded, in.ticks) == "" {
		t.Error("a discarded sample passed the accounting check")
	}

	// Planted defect: one probe sample perturbed on the way in.
	bad := append([]float64(nil), in.demand[0]...)
	bad[200*smallShape.servers()] += 0.25
	_, res = feed(t, in, bad)
	if diff := resultDiff(in.results[0], res); len(diff) == 0 {
		t.Error("a perturbed sample reproduced the offline result")
	}
}

func TestInputsDeterministic(t *testing.T) {
	a, err := genInputs(smallShape, 2, 1, 10, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genInputs(smallShape, 2, 1, 10, 100, 7)
	c, _ := genInputs(smallShape, 2, 1, 10, 100, 8)
	if !reflect.DeepEqual(a.demand, b.demand) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.demand, c.demand) {
		t.Error("a different seed gave the same inputs")
	}
}

func TestProbeSetCoversShardEnds(t *testing.T) {
	var ids []string
	var m []int
	for i := 0; i < 100; i++ {
		ids = append(ids, padID(i))
		m = append(m, i)
	}
	got := probeSet([][]int{m}, ids, 2)[0]
	has := map[int]bool{}
	for _, i := range got {
		has[i] = true
	}
	if !has[99] {
		t.Error("the frame's last record is not a probe")
	}
	for k := 0; k < 2; k++ {
		last := -1
		for _, i := range m {
			if fnvShard(ids[i], 2) == k {
				last = i
			}
		}
		if !has[last] {
			t.Errorf("shard %d's last record %d is not a probe", k, last)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/padd/wire.(*Encoder).AppendFlat", "main.main"}, "wire"},
		{[]string{"runtime.mallocgc", "repro/internal/sim.(*Stepper).Advance"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.read", "internal/poll.(*FD).Read", "net.(*conn).Read"}, "syscall"},
		{[]string{"main.(*sender).send"}, "bench"},
		{[]string{"net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestOnlineSmall runs the whole online path on a toy fleet, untraced
// and traced, and expects every check to pass and every metric of the
// mode to be reported.
func TestOnlineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small fleet for a few seconds")
	}
	sp := onlineSpec{
		name: "small", shape: shape{scheme: "PAD", racks: 2, perRack: 5, meter: true},
		sessions: 32, conns: 2, traces: 4, rateA: 100, rateB: 200,
	}
	for _, traced := range []bool{false, true} {
		res, err := runOnline(env{workload: "small", seed: 1, seconds: 5, traced: traced, build: t.TempDir()}, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("small fleet (traced %v): correct=%v failed=%d", traced, res.Correct, res.Failed)
		}
		if err := res.complete(traced); err != nil {
			t.Fatalf("traced %v: %v", traced, err)
		}
	}
}
