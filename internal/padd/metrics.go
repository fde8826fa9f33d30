package padd

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/padd/wire"
)

// histSpec is a histogram's fixed bucket layout. Observations are
// integers in a base unit — nanoseconds for durations, samples for
// batch sizes — and scale base units make one exposed unit, the unit
// the bounds and the exported sum are given in.
type histSpec struct {
	bounds []float64 // bucket upper bounds in the exposed unit, ascending
	scale  float64   // base units per exposed unit
}

var (
	// tickLatency buckets wall time per control tick, in seconds. A
	// 22×10 cluster steps in single-digit microseconds, so the buckets
	// start fine and stretch to cover a loaded box.
	tickLatency = histSpec{[]float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
	}, 1e9}
	// batchSize buckets samples per accepted ingest batch: powers of
	// two from a single sample up to the largest burst a frame record
	// can reasonably carry.
	batchSize = histSpec{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, 1}
	// gcPause buckets Go stop-the-world pauses, in seconds; they sit
	// well under a millisecond on a healthy box, so the tail buckets
	// are the alarm zone.
	gcPause = histSpec{[]float64{10e-6, 50e-6, 100e-6, 500e-6, 1e-3, 5e-3, 10e-3, 50e-3, 100e-3}, 1e9}
	// simLatency buckets detection and shed latencies, in seconds of
	// simulated time. With the default 5s metering interval a
	// single-interval detection lands at 5–10s; the tail covers
	// slow-burn excursions that accumulate across many intervals.
	simLatency = histSpec{[]float64{1, 2.5, 5, 7.5, 10, 15, 30, 60, 120, 300}, 1e9}
)

// histogram is a lock-free fixed-bound histogram, observed by any
// goroutine concurrently without allocating. Its sum is an integer in
// the spec's base unit, so concurrent observes stay exact and do not
// depend on their order. A scrape may tear across one observe, which
// Prometheus histograms tolerate by design.
type histogram struct {
	limits []int64         // bucket upper bounds in base units
	counts []atomic.Uint64 // per bucket, +Inf last
	sum    atomic.Int64
}

func newHistogram(spec histSpec) *histogram {
	h := &histogram{
		limits: make([]int64, len(spec.bounds)),
		counts: make([]atomic.Uint64, len(spec.bounds)+1),
	}
	for i, b := range spec.bounds {
		h.limits[i] = int64(math.Round(b * spec.scale))
	}
	return h
}

func (h *histogram) observe(v int64) {
	h.sum.Add(v)
	for i, l := range h.limits {
		if v <= l {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.limits)].Add(1)
}

// histSnapshot is histogram contents read out: per-bucket
// (non-cumulative) counts, +Inf last, and the sum in base units.
type histSnapshot struct {
	Counts []uint64
	Sum    int64
}

// addTo adds the histogram's current contents into s, so a snapshot
// can sum several histograms of one spec.
func (h *histogram) addTo(s *histSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]uint64, len(h.counts))
	}
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// count is the number of observations in the snapshot.
func (s histSnapshot) count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// expose installs the snapshot as the registry's unlabeled histogram
// family name.
func (spec histSpec) expose(reg *obs.Registry, name, help string, s histSnapshot) {
	reg.Histogram(name, help, "", spec.bounds).
		SetHistogram("", s.Counts, float64(s.Sum)/spec.scale, s.count())
}

// noteIngest records the size of one accepted ingest batch.
// Frame-level accounting (frames_total) is done once per POST by
// noteFrame.
func (m *Manager) noteIngest(samples int) { m.batchSizes.observe(int64(samples)) }

// noteFrame counts one ingest POST by format.
func (m *Manager) noteFrame(binary bool) {
	if binary {
		m.framesBinary.Add(1)
	} else {
		m.framesJSON.Add(1)
	}
}

// numAckStatuses sizes the per-result stream frame counters
// (wire.AckOK through wire.AckMalformed).
const numAckStatuses = wire.AckMalformed + 1

// noteStreamFrame counts one stream data frame by its ack status.
func (m *Manager) noteStreamFrame(status byte) {
	if int(status) < len(m.streamFrames) {
		m.streamFrames[status].Add(1)
	}
}

// fleetMetrics is the manager-level scrape snapshot.
type fleetMetrics struct {
	ShardSessions  []int
	FramesJSON     int64
	FramesBinary   int64
	BatchSizes     histSnapshot
	StreamConns    int
	StreamInflight int64
	StreamFrames   [numAckStatuses]int64

	// Fleet rollups, summed over the per-shard atomics.
	LevelSessions [numLevels]int64
	UnderAttack   int64
	MarginCounts  [numMarginBounds + 1]int64
	ShardSamples  []int64
	TickLatency   histSnapshot

	// Detection-latency accounting (sim time).
	Onsets           int64
	DetectionLatency histSnapshot
	ShedLatency      histSnapshot

	// Go runtime families. Threaded through this snapshot (rather than
	// read inside the writer) so the golden test can pin the exposition
	// with synthetic values.
	Goroutines int
	HeapBytes  uint64
	GCPauses   histSnapshot
}

func (m *Manager) fleetMetrics() fleetMetrics {
	fm := fleetMetrics{
		ShardSessions:  m.ShardSessions(),
		FramesJSON:     m.framesJSON.Load(),
		FramesBinary:   m.framesBinary.Load(),
		StreamConns:    m.StreamConnections(),
		StreamInflight: m.streamInflight.Load(),
	}
	m.batchSizes.addTo(&fm.BatchSizes)
	for i := range fm.StreamFrames {
		fm.StreamFrames[i] = m.streamFrames[i].Load()
	}

	fm.ShardSamples = make([]int64, len(m.shards))
	for i, sh := range m.shards {
		fm.ShardSamples[i] = sh.rollup.samples.Load()
		fm.UnderAttack += sh.rollup.underAttack.Load()
		for l := 0; l < numLevels; l++ {
			fm.LevelSessions[l] += sh.rollup.levels[l].Load()
		}
		for b := 0; b <= numMarginBounds; b++ {
			fm.MarginCounts[b] += sh.rollup.margin[b].Load()
		}
		sh.rollup.latency.addTo(&fm.TickLatency)
	}
	fm.Onsets = m.det.onsets.Load()
	m.det.detect.addTo(&fm.DetectionLatency)
	m.det.shed.addTo(&fm.ShedLatency)

	fm.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fm.HeapBytes = ms.HeapAlloc
	m.gcMu.Lock()
	if ms.NumGC-m.lastNumGC > uint32(len(ms.PauseNs)) {
		// More cycles than the runtime's pause ring retains since the
		// last scrape; the older pauses are gone.
		m.lastNumGC = ms.NumGC - uint32(len(ms.PauseNs))
	}
	for n := m.lastNumGC; n < ms.NumGC; n++ {
		m.gcPauses.observe(int64(ms.PauseNs[n%uint32(len(ms.PauseNs))]))
	}
	m.lastNumGC = ms.NumGC
	m.gcMu.Unlock()
	m.gcPauses.addTo(&fm.GCPauses)
	return fm
}

// WriteMetrics renders the Prometheus text exposition. Every family is
// fleet-wide, so a scrape costs O(shards) whatever the session count;
// one session's state is GET /v1/sessions/{id}. Hand-rolled: the
// container has no client library, and the format is lines of
// `name{labels} value`.
func (m *Manager) WriteMetrics(w io.Writer) { writeMetrics(w, m.fleetMetrics()) }

// writeMetrics renders the exposition for a fleet snapshot, built on
// the shared obs.Registry so padd and the other instrumented subsystems
// speak one format. Split from WriteMetrics so the byte format is
// testable against a deterministic synthetic snapshot; the padd golden
// test pins it.
func writeMetrics(w io.Writer, fm fleetMetrics) {
	reg := obs.NewRegistry()
	sessions := 0
	for _, n := range fm.ShardSessions {
		sessions += n
	}
	reg.Gauge("padd_up", "Whether the daemon is serving.", "").Set("", 1)
	reg.Gauge("padd_sessions", "Number of live sessions.", "").Set("", float64(sessions))

	shardSessions := reg.Gauge("padd_shard_sessions", "Resident sessions per manager shard.", "shard")
	for i, n := range fm.ShardSessions {
		shardSessions.Set(strconv.Itoa(i), float64(n))
	}
	frames := reg.Counter("padd_ingest_frames_total", "Telemetry ingest requests by wire format.", "format")
	frames.Set("json", float64(fm.FramesJSON))
	frames.Set("binary", float64(fm.FramesBinary))
	batchSize.expose(reg, "padd_ingest_batch_size", "Samples per accepted ingest batch.", fm.BatchSizes)
	reg.Gauge("padd_stream_connections", "Live persistent ingest stream connections.", "").
		Set("", float64(fm.StreamConns))
	streamFrames := reg.Counter("padd_stream_frames_total", "Stream data frames by ack result.", "result")
	for status := 0; status < numAckStatuses; status++ {
		streamFrames.Set(wire.AckStatusName(byte(status)), float64(fm.StreamFrames[status]))
	}
	reg.Gauge("padd_stream_inflight_window", "Stream frames ingested but not yet acked (in-flight window occupancy).", "").
		Set("", float64(fm.StreamInflight))

	levelSessions := reg.Gauge("padd_fleet_level_sessions", "Resident sessions at each security level (0 = scheme without a policy).", "level")
	for l := 0; l < numLevels; l++ {
		levelSessions.Set(strconv.Itoa(l), float64(fm.LevelSessions[l]))
	}
	reg.Gauge("padd_fleet_sessions_under_attack", "Sessions with an open CUSUM excursion.", "").
		Set("", float64(fm.UnderAttack))
	marginDist := reg.Gauge("padd_fleet_margin_watts", "Sessions at or below each breaker-margin bound (cumulative occupancy).", "le")
	cumMargin := int64(0)
	for i, b := range marginBounds {
		cumMargin += fm.MarginCounts[i]
		marginDist.Set(strconv.FormatFloat(b, 'g', -1, 64), float64(cumMargin))
	}
	cumMargin += fm.MarginCounts[numMarginBounds]
	marginDist.Set("+Inf", float64(cumMargin))
	reg.Counter("padd_detection_onsets_total", "CUSUM excursions opened (statistic left zero).", "").
		Set("", float64(fm.Onsets))
	simLatency.expose(reg, "padd_detection_latency_seconds", "Sim time from excursion onset to the CUSUM flag.", fm.DetectionLatency)
	simLatency.expose(reg, "padd_shed_latency_seconds", "Sim time from excursion onset to the first shedding tick.", fm.ShedLatency)
	shardSamples := reg.Counter("padd_shard_ingest_samples_total", "Telemetry samples accepted per manager shard.", "shard")
	for i, n := range fm.ShardSamples {
		shardSamples.Set(strconv.Itoa(i), float64(n))
	}
	reg.Gauge("padd_go_goroutines", "Goroutines in the daemon process.", "").
		Set("", float64(fm.Goroutines))
	reg.Gauge("padd_go_heap_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", "").
		Set("", float64(fm.HeapBytes))
	gcPause.expose(reg, "padd_go_gc_pauses", "Stop-the-world GC pause durations in seconds.", fm.GCPauses)
	tickLatency.expose(reg, "padd_tick_latency_seconds", "Wall time per control tick, over every session.", fm.TickLatency)
	reg.Write(w) //nolint:errcheck // bytes.Buffer / http writers; matches the historical best-effort scrape
}
