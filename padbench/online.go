package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/padd"
	"repro/internal/padd/wire"
)

// onlineSpec sizes one online workload. Load comes from this process:
// conns stream connections, each carrying one sample for each of its
// sessions per frame (one frame = one fleet tick).
type onlineSpec struct {
	name                string
	shape               shape
	sessions, conns     int
	traces, virusTraces int
	attackNodes         int
	rateA               float64 // phase A open-loop fleet ticks per second
	rateB               float64 // nominal phase B fleet ticks per second (sizes its fixed work)
	// scrapeEvery is the read-path cadence during phase A (0: none): one
	// GET /metrics, /v1/fleet and /v1/sessions each time.
	scrapeEvery time.Duration
}

var (
	fleetPad = onlineSpec{
		name: "fleet-pad", shape: shape{"PAD", 22, 10, true, 0.5},
		sessions: 1024, conns: 2, traces: 16, virusTraces: 4, attackNodes: 220,
		rateA: 40, rateB: 80,
	}
	fleetWide = onlineSpec{
		name: "fleet-wide", shape: shape{"Conv", 1, 2, false, 0},
		sessions: 4096, conns: 1, traces: 16,
		rateA: 45, rateB: 110, scrapeEvery: time.Second,
	}
)

// Phase lengths as shares of --seconds: phase A runs open loop for
// phaseAShare of it; phase B's fixed work is what the nominal rate
// finishes in phaseBShare of it.
const (
	phaseAShare   = 0.4
	phaseBShare   = 0.5
	setupReps     = 7
	probesPerConn = 24
	pollEvery     = 500 * time.Microsecond
	// latencyWindow groups phase A frames for the tail: the reported p99
	// is the median over windows of each window's p99, so one stall (a
	// neighbour's burst, a GC cycle) moves one window, not the metric.
	latencyWindow = time.Second
	// segmentsB is how many equal parts phase B's rates are timed in.
	segmentsB = 5
	// windowB is phase B's in-flight frames per connection: enough queued
	// work that the engine never idles, far below padd's 64-batch queue.
	windowB = 4
	// lateLimit marks phase A invalid: a generator this far behind its
	// schedule means the open-loop rate exceeds capacity and the
	// backlog grows, so latency would measure the backlog, not the path.
	lateLimit = time.Second
	// lateDecision is one control interval of padd's default tick
	// grid: a decision later than this missed the next interval.
	lateDecision = 100 * time.Millisecond
)

// fleet is one set-up daemon: manager, HTTP server and raw stream
// listener on loopback, the sessions and the stream connections.
type fleet struct {
	mgr      *padd.Manager
	srv      *http.Server
	base     string
	streamLn net.Listener
	sessions []*padd.Session
	ids      []string
	streams  []*stream
	createNS []int64 // per Create call, traced runs only
}

// stream is one client connection to Manager.ServeStream. Frames go
// out through the StreamClient; acks are read by a separate goroutine
// straight off the connection, so an open-loop sender never waits for
// an ack (StreamClient.ReadAck would flush the client's write buffer,
// which only the sending goroutine may touch).
type stream struct {
	conn net.Conn
	cl   *padd.StreamClient
	acks *wire.AckReader
}

// sessionConfig is session i's configuration: padd's defaults except
// the horizon (the run's length, so results compare with the offline
// run) and, for sessions fed a virus trace, the oversubscription ratio.
func (sp *onlineSpec) sessionConfig(i int, id string, ticks int) padd.SessionConfig {
	cfg := padd.SessionConfig{
		ID:             id,
		Scheme:         sp.shape.scheme,
		Racks:          sp.shape.racks,
		ServersPerRack: sp.shape.perRack,
		Horizon:        padd.Duration{Duration: time.Duration(ticks) * tick},
	}
	if !sp.shape.meter {
		cfg.MeterInterval = padd.Duration{Duration: -1}
	}
	if i%sp.traces < sp.virusTraces {
		cfg.Oversubscription = sp.shape.attackOversub
	}
	return cfg
}

// setup creates the manager, server, sessions and stream connections.
func (sp *onlineSpec) setup(ticks int, tr *tracer) (*fleet, error) {
	f := &fleet{mgr: padd.NewManager()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = &http.Server{Handler: padd.NewServer(f.mgr)}
	go f.srv.Serve(ln)
	f.base = "http://" + ln.Addr().String()
	for i := 0; i < sp.sessions; i++ {
		id := padID(i)
		t0 := tr.now()
		s, err := f.mgr.Create(sp.sessionConfig(i, id, ticks))
		if err != nil {
			f.close()
			return nil, err
		}
		if tr != nil {
			tr.add("padd.Manager.Create", 0, int64(i), t0)
			f.createNS = append(f.createNS, tr.now()-t0)
		}
		f.sessions = append(f.sessions, s)
		f.ids = append(f.ids, id)
	}
	if f.streamLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	go func(ln net.Listener) {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go f.mgr.ServeStream(c)
		}
	}(f.streamLn)
	for c := 0; c < sp.conns; c++ {
		t0 := tr.now()
		conn, err := net.Dial("tcp", f.streamLn.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		tr.add("stream dial", 0, int64(c), t0)
		f.streams = append(f.streams, &stream{conn: conn, cl: padd.NewStreamClient(conn), acks: wire.NewAckReader(conn)})
	}
	return f, nil
}

func (f *fleet) close() {
	for _, st := range f.streams {
		st.conn.Close()
	}
	if f.streamLn != nil {
		f.streamLn.Close()
	}
	f.mgr.Shutdown(context.Background())
	f.srv.Close()
}

func padID(i int) string { return fmt.Sprintf("s%05d", i) }

// fnvShard mirrors padd's documented FNV-1a session routing, so probes
// can be placed on every shard; runOnline verifies the mirror against
// Manager.ShardSessions.
func fnvShard(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % uint32(n))
}

// probe is one session whose published tick count times decisions.
type probe struct {
	s       *padd.Session
	conn    int
	decided []int64 // phase A: ns (since phase start) the frame's tick was seen
}

// probeSet picks each connection's probes: probesPerConn sessions
// evenly spaced in frame order (the last one is the frame's last
// record), plus the first and last record of the frame on every shard.
func probeSet(members [][]int, ids []string, shards int) [][]int {
	out := make([][]int, len(members))
	for c, m := range members {
		seen := map[int]bool{}
		add := func(i int) {
			if !seen[i] {
				seen[i] = true
				out[c] = append(out[c], i)
			}
		}
		for j := 0; j < probesPerConn; j++ {
			if i := (j+1)*len(m)/probesPerConn - 1; i >= 0 {
				add(m[i])
			}
		}
		first := make([]int, shards)
		last := make([]int, shards)
		for k := range first {
			first[k], last[k] = -1, -1
		}
		for _, i := range m {
			k := fnvShard(ids[i], shards)
			if first[k] < 0 {
				first[k] = i
			}
			last[k] = i
		}
		for k := 0; k < shards; k++ {
			if first[k] >= 0 {
				add(first[k])
				add(last[k])
			}
		}
	}
	return out
}

// connStats is one connection generator's record of a phase.
type connStats struct {
	sentAt   []atomic.Int64 // ns since phase start each frame was sent
	ackAt    []int64        // ns since phase start each frame was acked
	lateNS   []float64
	ackUS    []float64
	encodeNS int64
	frames   int64
	bp       int64 // backpressure or partial acks
	rejected int64 // samples not accepted
	err      error
	ackErr   error
}

func newConnStats(frames int) *connStats {
	return &connStats{sentAt: make([]atomic.Int64, frames), ackAt: make([]int64, frames)}
}

// sender encodes and streams one connection's frames.
type sender struct {
	in      *inputs
	sp      *onlineSpec
	st      *stream
	ids     []string
	members []int
	enc     wire.Encoder
	tr      *tracer
	lane    int32
}

// send streams tick t to every member session as frame f of the phase
// and returns without waiting for the ack.
func (s *sender) send(f, t int, start time.Time, st *connStats) error {
	t0 := time.Now()
	s.enc.Reset()
	n := s.in.shape.servers()
	for _, i := range s.members {
		if err := s.enc.AppendFlat(s.ids[i], 1, n, s.in.sample(i%s.sp.traces, t)); err != nil {
			return err
		}
	}
	frame := s.enc.Frame()
	t1 := time.Now()
	st.encodeNS += int64(t1.Sub(t0))
	ts := s.tr.now()
	st.sentAt[f].Store(int64(t1.Sub(start)))
	if _, err := s.st.cl.Send(frame); err != nil {
		return err
	}
	if err := s.st.cl.Flush(); err != nil {
		return err
	}
	s.tr.add("padd.StreamClient.Send", s.lane, int64(t), ts)
	return nil
}

// readAcks reads the phase's acks on its own goroutine, in send order.
func (s *sender) readAcks(frames int, start time.Time, st *connStats) {
	var a wire.Ack
	for f := 0; f < frames; f++ {
		if err := s.st.acks.Next(&a); err != nil {
			st.ackErr = err
			return
		}
		now := int64(time.Since(start))
		sent := st.sentAt[f].Load()
		st.ackAt[f] = now
		st.ackUS = append(st.ackUS, float64(now-sent)/1e3)
		s.tr.addAt("stream ack", s.lane+100, int64(f), s.tr.since(start, sent), s.tr.since(start, now))
		st.frames++
		if a.Status != wire.AckOK || int(a.Records) != len(s.members) {
			st.bp++
			st.rejected += int64(len(s.members)) - int64(a.Records)
		}
	}
}

// drive runs one phase on one connection: sendAll sends every frame
// (waiting as the phase requires) while acks are read alongside.
func (s *sender) drive(frames int, start time.Time, st *connStats, sendAll func() error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.readAcks(frames, start, st)
	}()
	if err := sendAll(); err != nil {
		st.err = err
		// Unblock the ack reader: the connection is unusable now.
		s.st.conn.Close()
	}
	wg.Wait()
	if st.err == nil {
		st.err = st.ackErr
	}
}

// onlineRun holds everything one online run measures.
type onlineRun struct {
	sp      *onlineSpec
	in      *inputs
	f       *fleet
	tr      *tracer
	members [][]int
	probes  []*probe
	byConn  [][]*probe
	nA, nB  int
	polls   atomic.Int64

	setupS     []float64 // wall
	setupCPU   []float64
	latMS      []float64   // phase A decision latencies
	latWin     [][]float64 // the same, by latencyWindow
	waitMS     []float64   // phase A queue residency (decision − ack)
	gen        []*connStats
	genB       []*connStats
	maxLevel   int
	segRate    []float64 // phase B decisions per second, per segment
	segCPU     []float64 // phase B CPU µs per decision, per segment
	wallB      time.Duration
	cpuB       time.Duration
	scrapes    *scrapeStats
	heapKB     float64
	mem0, mem1 runtime.MemStats
	profile    []byte
}

func runOnline(e env, sp onlineSpec) (*result, error) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc

	r := &onlineRun{sp: &sp}
	if e.traced {
		r.tr = newTracer()
	}
	r.nA = int(sp.rateA * phaseAShare * float64(e.seconds))
	r.nB = int(sp.rateB * phaseBShare * float64(e.seconds))
	if r.nA < 1 || r.nB < 1 {
		return nil, fmt.Errorf("--seconds %d leaves a phase empty", e.seconds)
	}
	total := r.nA + r.nB
	in, err := genInputs(sp.shape, sp.traces, sp.virusTraces, sp.attackNodes, total, e.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	r.in = in

	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0, cpu0 := time.Now(), cpuTime()
		f, err := sp.setup(total, r.tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupCPU = append(r.setupCPU, (cpuTime() - cpu0).Seconds())
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			f.close()
			continue
		}
		r.f = f
	}
	defer r.f.close()

	shards := len(r.f.mgr.ShardSessions())
	if err := r.placeProbes(shards); err != nil {
		return nil, err
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	res := newResult()
	r.check(res)
	if e.traced {
		if err := measureLayers(res, in, &sp, r.f.ids, r.members); err != nil {
			return nil, err
		}
	}

	// Live heap per session: input traces and generator buffers are
	// released, and two collections empty the sync.Pool victim cache.
	in.demand = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapKB = (float64(ms.HeapAlloc) - float64(heapBase)) / 1024 / float64(sp.sessions)

	if err := r.checkResults(res); err != nil {
		return nil, err
	}
	if err := r.report(e, res); err != nil {
		return nil, err
	}
	if r.tr != nil {
		path := e.buildPath(fmt.Sprintf("trace-%s-seed%d.json", sp.name, e.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		logf("trace written to %s", path)
	}
	return res, nil
}

// placeProbes splits the sessions over the connections and picks the
// probes, after checking the routing mirror against the manager.
func (r *onlineRun) placeProbes(shards int) error {
	want := make([]int, shards)
	for _, id := range r.f.ids {
		want[fnvShard(id, shards)]++
	}
	got := r.f.mgr.ShardSessions()
	for k := range want {
		if want[k] != got[k] {
			return fmt.Errorf("session routing: shard %d holds %d sessions, mirror says %d", k, got[k], want[k])
		}
	}
	n, conns := r.sp.sessions, r.sp.conns
	r.members = make([][]int, conns)
	for c := 0; c < conns; c++ {
		for i := c * n / conns; i < (c+1)*n/conns; i++ {
			r.members[c] = append(r.members[c], i)
		}
	}
	r.byConn = make([][]*probe, conns)
	for c, idx := range probeSet(r.members, r.f.ids, shards) {
		for _, i := range idx {
			p := &probe{s: r.f.sessions[i], conn: c, decided: make([]int64, r.nA)}
			r.probes = append(r.probes, p)
			r.byConn[c] = append(r.byConn[c], p)
		}
	}
	return nil
}

func (r *onlineRun) senders() []*sender {
	out := make([]*sender, r.sp.conns)
	for c := range out {
		out[c] = &sender{in: r.in, sp: r.sp, st: r.f.streams[c], ids: r.f.ids,
			members: r.members[c], tr: r.tr, lane: int32(1 + c)}
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives phase A (open loop) then phase B (closed loop).
func (r *onlineRun) run() error {
	var prof bytes.Buffer
	if r.tr != nil {
		runtime.ReadMemStats(&r.mem0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	stopWatch := r.watchLevels()
	senders := r.senders()

	if err := r.phaseA(senders); err != nil {
		stopWatch()
		return err
	}
	if err := r.phaseB(senders); err != nil {
		stopWatch()
		return err
	}
	stopWatch()
	if r.tr != nil {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&r.mem1)
		r.profile = prof.Bytes()
	}
	return nil
}

// watchLevels polls the O(shards) fleet rollup for the highest security
// level any session holds, until the returned stop is called.
func (r *onlineRun) watchLevels() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			fs := r.f.mgr.Fleet()
			for lvl, n := range fs.LevelSessions {
				if n > 0 && lvl > r.maxLevel {
					r.maxLevel = lvl
				}
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// phaseA sends nA frames per connection on a fixed schedule, blocking
// (not spinning) until each is due, while a poller timestamps when each
// probe publishes each frame's tick.
func (r *onlineRun) phaseA(senders []*sender) error {
	interval := time.Duration(float64(time.Second) / r.sp.rateA)
	start := time.Now().Add(20 * time.Millisecond)
	r.gen = make([]*connStats, len(senders))
	var wg sync.WaitGroup
	for c, s := range senders {
		st := newConnStats(r.nA)
		r.gen[c] = st
		wg.Add(1)
		go func(s *sender, st *connStats) {
			defer wg.Done()
			s.drive(r.nA, start, st, func() error {
				for f := 0; f < r.nA; f++ {
					due := start.Add(time.Duration(f) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					late := time.Since(due)
					st.lateNS = append(st.lateNS, float64(late))
					if late > lateLimit {
						return fmt.Errorf("generator %v behind schedule at frame %d: phase A invalid", late, f)
					}
					if err := s.send(f, f, start, st); err != nil {
						return err
					}
				}
				return nil
			})
		}(s, st)
	}
	stopScrape := func() {}
	if r.sp.scrapeEvery > 0 {
		r.scrapes = &scrapeStats{}
		stopScrape = r.scrapes.run(r.f.base, r.sp, r.tr)
	}
	stopPoll := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() { pollErr <- r.pollProbes(start, stopPoll) }()
	wg.Wait()
	for _, st := range r.gen {
		if st.err != nil {
			close(stopPoll)
			<-pollErr
			stopScrape()
			return st.err
		}
	}
	perr := <-pollErr
	stopScrape()
	if perr != nil {
		return perr
	}
	// A short last window joins the one before it.
	perWin := int(latencyWindow / interval)
	nWin := r.nA / perWin
	if nWin < 1 {
		nWin = 1
	}
	r.latWin = make([][]float64, nWin)
	for _, p := range r.probes {
		for f, d := range p.decided {
			due := int64(time.Duration(f) * interval)
			ms := float64(d-due) / 1e6
			r.latMS = append(r.latMS, ms)
			w := f / perWin
			if w >= nWin {
				w = nWin - 1
			}
			r.latWin[w] = append(r.latWin[w], ms)
			r.waitMS = append(r.waitMS, float64(d-r.gen[p.conn].ackAt[f])/1e6)
		}
	}
	return r.waitTicks(r.nA, 30*time.Second)
}

// pollProbes records, per probe and frame, the first poll that saw the
// frame's tick published.
func (r *onlineRun) pollProbes(start time.Time, stop <-chan struct{}) error {
	next := make([]int, len(r.probes))
	deadline := time.Now().Add(time.Duration(float64(r.nA)/r.sp.rateA*float64(time.Second)) + 60*time.Second)
	for {
		t0 := r.tr.now()
		now := int64(time.Since(start))
		pending := 0
		for i, p := range r.probes {
			ticks := int(p.s.Status().Ticks)
			for next[i] < r.nA && next[i] < ticks {
				p.decided[next[i]] = now
				next[i]++
			}
			if next[i] < r.nA {
				pending++
			}
		}
		r.polls.Add(int64(len(r.probes)))
		r.tr.add("padd.Session.Status(probes)", 10, -1, t0)
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("probes still waiting for phase A decisions at the deadline")
		}
		select {
		case <-stop:
			return nil
		case <-time.After(pollEvery):
		}
	}
}

// waitTicks waits until every session has published target ticks.
func (r *onlineRun) waitTicks(target int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	i := 0
	for i < len(r.f.sessions) {
		if int(r.f.sessions[i].Status().Ticks) >= target {
			i++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s stuck below %d ticks", r.f.ids[i], target)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// phaseB sends nB frames per connection as fast as the fleet decides
// them, keeping at most windowB frames undecided per connection.
func (r *onlineRun) phaseB(senders []*sender) error {
	r.genB = make([]*connStats, len(senders))
	t0 := time.Now()
	cpu0 := cpuTime()
	segDone := make(chan struct{})
	go func() {
		defer close(segDone)
		r.timeSegments(t0, cpu0)
	}()
	var wg sync.WaitGroup
	for c, s := range senders {
		st := newConnStats(r.nB)
		r.genB[c] = st
		wg.Add(1)
		go func(c int, s *sender, st *connStats) {
			defer wg.Done()
			s.drive(r.nB, t0, st, func() error {
				for j := 0; j < r.nB; j++ {
					if j >= windowB {
						if err := r.waitProbes(r.byConn[c], r.nA+j-windowB+1); err != nil {
							return err
						}
					}
					if err := s.send(j, r.nA+j, t0, st); err != nil {
						return err
					}
				}
				return nil
			})
		}(c, s, st)
	}
	wg.Wait()
	for _, st := range r.genB {
		if st.err != nil {
			return st.err
		}
	}
	if err := r.waitTicks(r.nA+r.nB, 60*time.Second); err != nil {
		return err
	}
	r.wallB = time.Since(t0)
	r.cpuB = cpuTime() - cpu0
	<-segDone
	return nil
}

// timeSegments splits phase B into segments of equal frame counts and
// records each one's wall and CPU time, from when every probe had
// published the segment's first frame to when every probe published its
// last. The reported rates are the median segment's, so a burst of
// outside load that slows one segment does not move them.
func (r *onlineRun) timeSegments(t0 time.Time, cpu0 time.Duration) {
	prevT, prevCPU := t0, cpu0
	for k := 1; k <= segmentsB; k++ {
		if r.waitProbes(r.probes, r.nA+k*r.nB/segmentsB) != nil {
			return // phase B failed; its senders report why
		}
		now, cpu := time.Now(), cpuTime()
		frames := k*r.nB/segmentsB - (k-1)*r.nB/segmentsB
		r.segRate = append(r.segRate, float64(frames*r.sp.sessions)/now.Sub(prevT).Seconds())
		r.segCPU = append(r.segCPU, float64(cpu-prevCPU)/1e3/float64(frames*r.sp.sessions))
		prevT, prevCPU = now, cpu
	}
}

// waitProbes blocks until every probe in ps has published target
// ticks, or fails after a minute without them.
func (r *onlineRun) waitProbes(ps []*probe, target int) error {
	deadline := time.Now().Add(time.Minute)
	for _, p := range ps {
		for {
			r.polls.Add(1)
			if int(p.s.Status().Ticks) >= target {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("probe %s stuck below %d ticks", p.s.ID(), target)
			}
			time.Sleep(pollEvery)
		}
	}
	return nil
}

// scrapeStats times the read path from one HTTP connection.
type scrapeStats struct {
	metricsMS, fleetMS, listMS []float64
	metricsKB, listKB          []float64
	bad                        []string
}

func (s *scrapeStats) run(base string, sp *onlineSpec, tr *tracer) (stop func()) {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	get := func(path string) (float64, []byte) {
		t0 := time.Now()
		ts := tr.now()
		resp, err := client.Get(base + path)
		if err != nil {
			s.bad = append(s.bad, path+": "+err.Error())
			return 0, nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(t0)) / 1e6
		tr.add("GET "+path, 20, -1, ts)
		if err != nil || resp.StatusCode != http.StatusOK {
			s.bad = append(s.bad, fmt.Sprintf("%s: HTTP %d %v", path, resp.StatusCode, err))
		}
		return ms, body
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer client.CloseIdleConnections()
		t := time.NewTicker(sp.scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			ms, body := get("/metrics")
			s.metricsMS = append(s.metricsMS, ms)
			s.metricsKB = append(s.metricsKB, float64(len(body))/1024)
			ms, body = get("/v1/fleet")
			s.fleetMS = append(s.fleetMS, ms)
			var fs padd.FleetStatus
			if err := json.Unmarshal(body, &fs); err != nil {
				s.bad = append(s.bad, "/v1/fleet: "+err.Error())
			} else if fs.Sessions != sp.sessions {
				s.bad = append(s.bad, fmt.Sprintf("/v1/fleet: %d sessions, want %d", fs.Sessions, sp.sessions))
			}
			ms, body = get("/v1/sessions")
			s.listMS = append(s.listMS, ms)
			s.listKB = append(s.listKB, float64(len(body))/1024)
		}
	}()
	return func() { close(done); wg.Wait() }
}
