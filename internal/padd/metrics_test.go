package padd

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenFleet is a deterministic manager-level snapshot: two shards,
// both POST ingest formats exercised, hand-set histogram contents (so
// no wall clock leaks into the bytes), and a live stream with every ack
// result represented.
func goldenFleet() fleetMetrics {
	return fleetMetrics{
		ShardSessions:  []int{1, 1},
		FramesJSON:     40,
		FramesBinary:   8,
		BatchSizes:     histSnapshot{Counts: []uint64{5, 3, 10, 20, 8, 1, 0, 0, 0, 0, 1, 0}, Sum: 4850},
		StreamConns:    2,
		StreamInflight: 3,
		StreamFrames:   [numAckStatuses]int64{120, 4, 7, 1, 1},

		LevelSessions: [numLevels]int64{0, 1, 1, 0},
		UnderAttack:   1,
		MarginCounts:  [numMarginBounds + 1]int64{0, 0, 1, 1, 0, 0, 0, 0, 0, 0},
		ShardSamples:  []int64{4800, 50},
		TickLatency: histSnapshot{
			Counts: []uint64{53, 10, 40, 200, 800, 100, 40, 5, 1, 0, 0, 0, 0, 0, 0, 1},
			Sum:    321_550_000,
		},

		Onsets:           3,
		DetectionLatency: histSnapshot{Counts: []uint64{0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0}, Sum: 12_500_000_000},
		ShedLatency:      histSnapshot{Counts: []uint64{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, Sum: 6_200_000_000},

		Goroutines: 17,
		HeapBytes:  4 << 20,
		GCPauses:   histSnapshot{Counts: []uint64{2, 5, 1, 0, 0, 0, 0, 0, 0, 0}, Sum: 420_000},
	}
}

// TestMetricsGolden pins the Prometheus text exposition byte-for-byte.
// The format is an interface monitoring dashboards scrape; any change to
// names, ordering, label layout or number formatting must be deliberate
// (regenerate with -update) and called out.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	writeMetrics(&buf, goldenFleet())

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics exposition drifted from golden (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestMetricsEmpty covers the no-session scrape: every family still
// declares itself so dashboards see the schema before the first session.
func TestMetricsEmpty(t *testing.T) {
	var buf bytes.Buffer
	writeMetrics(&buf, fleetMetrics{})
	out := buf.String()
	for _, want := range []string{
		"padd_up 1\n", "padd_sessions 0\n",
		"# TYPE padd_shard_sessions gauge\n",
		"padd_ingest_frames_total{format=\"binary\"} 0\n",
		"padd_ingest_frames_total{format=\"json\"} 0\n",
		"# TYPE padd_ingest_batch_size histogram\n",
		"padd_stream_connections 0\n",
		"padd_stream_frames_total{result=\"ok\"} 0\n",
		"padd_stream_frames_total{result=\"backpressure\"} 0\n",
		"padd_stream_inflight_window 0\n",
		"padd_ingest_batch_size_count 0\n",
		"padd_fleet_level_sessions{level=\"0\"} 0\n",
		"padd_fleet_level_sessions{level=\"3\"} 0\n",
		"padd_fleet_sessions_under_attack 0\n",
		"padd_fleet_margin_watts{le=\"+Inf\"} 0\n",
		"padd_detection_onsets_total 0\n",
		"# TYPE padd_detection_latency_seconds histogram\n",
		"# TYPE padd_shed_latency_seconds histogram\n",
		"# TYPE padd_shard_ingest_samples_total counter\n",
		"padd_go_goroutines 0\n",
		"padd_go_heap_bytes 0\n",
		"# TYPE padd_go_gc_pauses histogram\n",
		"# TYPE padd_tick_latency_seconds histogram\n",
		"padd_tick_latency_seconds_count 0\n",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("empty exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramConcurrentExact observes from several goroutines at
// once: counts and the integer sum must come out exact whatever the
// interleaving, a value equal to a bound must land in that bound's
// bucket, and one past the last bound in +Inf.
func TestHistogramConcurrentExact(t *testing.T) {
	h := newHistogram(simLatency)
	values := []int64{0, 1e9, 1e9 + 1, 2_500_000_000, 299_999_999_999, 300e9, 300e9 + 1}
	want := []uint64{2, 2, 0, 0, 0, 0, 0, 0, 0, 2, 1} // per round: buckets ≤1s, ≤2.5s, …, ≤300s, +Inf
	const workers, rounds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, v := range values {
					h.observe(v)
				}
			}
		}()
	}
	wg.Wait()

	var s histSnapshot
	h.addTo(&s)
	var sum int64
	for _, v := range values {
		sum += v
	}
	if s.Sum != workers*rounds*sum {
		t.Errorf("sum = %d, want %d", s.Sum, workers*rounds*sum)
	}
	for i, c := range s.Counts {
		if c != workers*rounds*want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, c, workers*rounds*want[i], s.Counts)
		}
	}
	if n := s.count(); n != workers*rounds*uint64(len(values)) {
		t.Errorf("count = %d, want %d", n, workers*rounds*len(values))
	}
}
