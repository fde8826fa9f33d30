package padd

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// engineEdges filters events to the kinds both the session log and an
// offline trace carry: the kept kinds minus the session's own anomaly
// and coast.
func engineEdges(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		switch e.Kind {
		case obs.KindLevel, obs.KindShed, obs.KindTrip, obs.KindOverload, obs.KindHeat:
			out = append(out, e)
		}
	}
	return out
}

// TestSessionTraceMatchesOffline feeds a session an offline run's
// closed-loop demand, as Replay does, and checks that its event log
// carries exactly the edges the offline sim.Run traces: same kinds,
// ticks, feeds and payloads, and the same meta header once the session
// finishes. The staging tracer must never have overflowed.
func TestSessionTraceMatchesOffline(t *testing.T) {
	const (
		racks, spr = 22, 10
		duration   = 4 * time.Minute
		tick       = 100 * time.Millisecond
	)
	bg := stats.NoisyUtilization(racks*spr, 0.7, duration, 10*time.Second, 7)
	for _, tc := range []struct {
		scheme string
		ratio  float64
		want   []obs.Kind // kinds the scenario must exercise
	}{
		{"PAD", 0.6, []obs.Kind{obs.KindLevel, obs.KindShed}},
		{"Conv", 0.6, []obs.Kind{obs.KindOverload, obs.KindTrip}},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			config := func() (sim.Config, sim.Scheme) {
				atk, err := virus.New(virus.Config{
					Profile: virus.CPUIntensive, SpikeWidth: 5 * time.Second, SpikesPerMinute: 6, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				attacked := make([]int, 120)
				for i := range attacked {
					attacked[i] = i
				}
				scheme, err := schemes.ByName(tc.scheme, schemes.Options{ServersPerRack: spr})
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{
					Racks: racks, ServersPerRack: spr, Duration: duration, Tick: tick,
					OversubscriptionRatio: tc.ratio,
					Background:            bg,
					Attack:                &sim.AttackSpec{Servers: attacked, Attack: atk},
				}
				if schemes.NeedsMicroDEB(tc.scheme) {
					cfg.MicroDEBFactory = schemes.MicroDEBFactory(0.01)
				}
				return cfg, scheme
			}

			// Offline: sim.Run with tracing on.
			cfg, scheme := config()
			tr := obs.NewTracer(0)
			cfg.Trace = tr
			if _, err := sim.Run(cfg, scheme); err != nil {
				t.Fatal(err)
			}
			if tr.Dropped() != 0 {
				t.Fatalf("offline tracer dropped %d events", tr.Dropped())
			}
			want := engineEdges(tr.Events())

			// The same run stepped by hand, keeping each tick's demand.
			cfg, scheme = config()
			st, err := sim.NewStepper(cfg, scheme)
			if err != nil {
				t.Fatal(err)
			}
			var demand [][]float64
			for !st.Done() {
				d := st.ComputeDemand()
				demand = append(demand, append([]float64(nil), d...))
				if err := st.Advance(d); err != nil {
					t.Fatal(err)
				}
			}

			// Online: the same demand through a live session.
			mgr := NewManager()
			defer mgr.Shutdown(context.Background())
			sess, err := mgr.Create(SessionConfig{
				ID: "trace", Scheme: tc.scheme, Racks: racks, ServersPerRack: spr,
				Tick: Duration{tick}, Horizon: Duration{duration}, Oversubscription: tc.ratio,
			})
			if err != nil {
				t.Fatal(err)
			}
			for start := 0; start < len(demand); start += 100 {
				for {
					err := sess.Enqueue(demand[start:min(start+100, len(demand))])
					if err == nil {
						break
					}
					if err != ErrQueueFull {
						t.Fatal(err)
					}
					time.Sleep(time.Millisecond)
				}
			}
			if _, err := mgr.Delete("trace"); err != nil {
				t.Fatal(err)
			}
			if d := sess.trace.Dropped(); d != 0 {
				t.Fatalf("staging tracer dropped %d events", d)
			}

			meta, events, dropped := sess.Events(0)
			if meta != tr.Meta() {
				t.Errorf("session meta %+v, offline %+v", meta, tr.Meta())
			}
			got := engineEdges(events)
			if dropped > 0 {
				// The ring keeps a suffix of the kept stream.
				if len(got) > len(want) {
					t.Fatalf("session logged %d engine edges, offline traced %d", len(got), len(want))
				}
				want = want[len(want)-len(got):]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session log (%d engine edges, %d dropped) differs from offline trace (%d)",
					len(got), dropped, len(want))
			}
			seen := map[obs.Kind]bool{}
			for _, e := range got {
				seen[e.Kind] = true
			}
			for _, k := range tc.want {
				if !seen[k] {
					t.Errorf("scenario logged no %v event; it proves less than it claims", k)
				}
			}
		})
	}
}

// TestEventLogRing overwrites the 512-entry log several times over while
// a concurrent poller follows it with the documented since arithmetic,
// then checks the dropped/since/footer accounting directly and through
// the HTTP endpoint.
func TestEventLogRing(t *testing.T) {
	const total = 3*eventLogCap + 7
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Create(SessionConfig{
		ID: "ring", Scheme: "Conv", Racks: 1, ServersPerRack: 2, Paused: true, DisableSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, initial, _ := s.Events(0)
	base := uint64(len(initial)) // the initial level assignment

	// Kept events carry their sequence number in A, so the poller can
	// check every batch is the contiguous run it asked for.
	var (
		wg       sync.WaitGroup
		pollErr  error
		lastSeen uint64
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := base
		for {
			select {
			case <-stop:
				lastSeen = since
				return
			default:
			}
			_, events, dropped := s.Events(since)
			first := max(since, dropped)
			for i, e := range events {
				if uint64(e.A) != first+uint64(i) {
					pollErr = fmt.Errorf("since=%d dropped=%d: event %d has seq %v", since, dropped, i, e.A)
					return
				}
			}
			since = first + uint64(len(events))
		}
	}()
	stats := s.st.Stats()
	for i := uint64(0); i < total; i++ {
		s.trace.Emit(obs.Event{Tick: int64(i), Rack: -1, Kind: obs.KindCoast, A: float64(base + i)})
		// A dropped kind between kept ones must not consume a slot.
		s.trace.Emit(obs.Event{Tick: int64(i), Rack: 0, Kind: obs.KindMicroShave})
		s.publish(stats)
	}
	close(stop)
	wg.Wait()
	if pollErr != nil {
		t.Fatal(pollErr)
	}
	next := base + total
	if lastSeen > next {
		t.Fatalf("poller reached seq %d past the log's end %d", lastSeen, next)
	}

	for _, tc := range []struct {
		since       uint64
		first, n    uint64
		wantDropped uint64
	}{
		{0, next - eventLogCap, eventLogCap, next - eventLogCap}, // lost entries: dropped > since
		{next - 10, next - 10, 10, next - eventLogCap},
		{next, next, 0, next - eventLogCap},
		{next + 5, next + 5, 0, next - eventLogCap},
	} {
		_, events, dropped := s.Events(tc.since)
		if dropped != tc.wantDropped || uint64(len(events)) != tc.n {
			t.Errorf("since=%d: %d events, dropped %d; want %d, %d", tc.since, len(events), dropped, tc.n, tc.wantDropped)
			continue
		}
		if tc.n > 0 && uint64(events[0].A) != tc.first {
			t.Errorf("since=%d: first seq %v, want %d", tc.since, events[0].A, tc.first)
		}
	}

	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()
	code, body := getBody(t, fmt.Sprintf("%s/v1/sessions/ring/events?since=%d", srv.URL, next-10))
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d: %s", code, body)
	}
	meta, events, foot, err := obs.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Scheme != "Conv" || len(events) != 10 || foot.Events != 10 || foot.Dropped != next-eventLogCap {
		t.Errorf("endpoint: meta %+v, %d events, footer %+v", meta, len(events), foot)
	}
}

// TestLiveEventLogSummary summarizes the log of a live, unfinished
// session: the header must carry the ticks run so far, so the summary
// spans the whole run and the current level's dwell is not cut off at
// the last logged event.
func TestLiveEventLogSummary(t *testing.T) {
	const ticks = 20
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Create(SessionConfig{ID: "live", Scheme: "PAD", Racks: 2, ServersPerRack: 3, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, ticks*s.st.TotalServers())
	for i := range u {
		u[i] = 0.3
	}
	s.processFlat(flatBatch{u: u, samples: ticks})
	meta, events, dropped := s.Events(0)
	if s.metrics().Finished || len(events) != 1 || events[0].Kind != obs.KindLevel {
		t.Fatalf("want a live session with one level event, got finished=%v events %v", s.metrics().Finished, events)
	}
	sum := obs.Summarize(meta, events, obs.Footer{Events: len(events), Dropped: dropped})
	run := ticks * meta.Tick
	if got := sum.Meta.Time(sum.Meta.Ticks); got != run {
		t.Errorf("run length %v, want %v", got, run)
	}
	var dwell time.Duration
	for _, d := range sum.Dwell {
		dwell += d
	}
	if dwell != run {
		t.Errorf("dwell %v covers %v of the %v run", sum.Dwell, dwell, run)
	}
}

// TestCoastEvents checks that the log records only the first coasted
// tick of each telemetry gap, at that tick's index.
func TestCoastEvents(t *testing.T) {
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Create(SessionConfig{ID: "coast", Scheme: "Conv", Racks: 1, ServersPerRack: 2, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	s.coast() // ticks 0-2: one gap
	s.coast()
	s.coast()
	s.processFlat(flatBatch{u: make([]float64, 2), samples: 1}) // tick 3 ends it
	s.coast()                                                   // ticks 4-5: a second gap
	s.coast()
	_, events, _ := s.Events(0)
	var coasts []int64
	for _, e := range events {
		if e.Kind == obs.KindCoast {
			coasts = append(coasts, e.Tick)
		}
	}
	if !reflect.DeepEqual(coasts, []int64{0, 4}) || s.metrics().Coasts != 5 {
		t.Errorf("coast events at ticks %v after %d coasts, want [0 4] after 5", coasts, s.metrics().Coasts)
	}
}

// BenchmarkSessionStep prices one full session tick at padd's default
// shape — 22×10 PAD with metering, series recording and the event log
// on: Advance with tracing, metering and CUSUM, the event flush and
// publish. One op is one fixed 100-tick demand cycle, five seconds
// quiet then five at full load, whose metering intervals the CUSUM
// detector flags, so every op logs anomaly edges. The CI gate holds it
// at 0 allocs/op.
func BenchmarkSessionStep(b *testing.B) {
	mgr := NewManagerWith(Options{Shards: 1})
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Create(SessionConfig{ID: "step", Paused: true, Horizon: Duration{10000 * time.Hour}})
	if err != nil {
		b.Fatal(err)
	}
	const half = 50 // one 5 s metering interval at the 100 ms tick
	servers := s.st.TotalServers()
	low, high := make([]float64, servers), make([]float64, servers)
	for i := range low {
		low[i], high[i] = 0.2, 1
	}
	cycle := func() {
		for i := 0; i < half; i++ {
			s.step(low)
		}
		for i := 0; i < half; i++ {
			s.step(high)
		}
	}
	// Warm up past the first 1 m series bucket (tick 600): seeds the
	// CUSUM baseline and sizes the meter's buffer and every series tier.
	for i := 0; i < 8; i++ {
		cycle()
	}
	before := s.log.next
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if s.log.next-before < uint64(b.N) {
		b.Fatalf("%d ops logged %d events; every cycle must cross an edge", b.N, s.log.next-before)
	}
}
