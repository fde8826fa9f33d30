package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps spans around the benchmark's calls into each layer in
// memory and writes them out as Chrome trace-event JSON at the end
// (load the file in chrome://tracing or Perfetto). A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans on one lane nest by time; id ties the
// spans of one request (a frame's send, ack and decisions) together.
type span struct {
	name       string
	lane       int32
	id         int64
	start, end int64 // ns since base
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// now returns the tracer clock (0 when tracing is off).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// add records a span that began at start (from now) and ends now.
func (t *tracer) add(name string, lane int32, id, start int64) {
	t.addAt(name, lane, id, start, t.now())
}

// addAt records a span with both ends given on the tracer clock.
func (t *tracer) addAt(name string, lane int32, id, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, lane: lane, id: id, start: start, end: end})
	t.mu.Unlock()
}

// since converts a phase-relative offset into the tracer clock.
func (t *tracer) since(phaseStart time.Time, offset int64) int64 {
	if t == nil {
		return 0
	}
	return int64(phaseStart.Sub(t.base)) + offset
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write emits the spans as complete ("X") trace events.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int32            `json:"tid"`
		Args map[string]int64 `json:"args,omitempty"`
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.lane}
		if s.id >= 0 {
			ev.Args = map[string]int64{"id": s.id}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
		w.Write(b)
	}
	t.mu.Unlock()
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
