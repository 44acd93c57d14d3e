package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into the program, kept in memory
// during a traced run and written out at exit. Times are ns since the
// trace started; self time is the duration minus the time its child spans
// cover (children never overlap: the harness is single-goroutine).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Trial  int    `json:"trial"`  // the seed of the trial
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`

	childNs int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	t0    time.Time
	trial int // stamped on every span
	// unit is the open unit[k] span of the slab, the parent of probe
	// spans (-1 outside the slab).
	unit  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), unit: -1} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Trial: t.trial, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	if s.Parent >= 0 {
		t.spans[s.Parent].childNs += s.dur()
	}
}

func (t *tracer) unitSpan() int {
	if t == nil {
		return -1
	}
	return t.unit
}

// selfNs is a closed span's duration minus its children's.
func (t *tracer) selfNs(id int) int64 { return t.spans[id].dur() - t.spans[id].childNs }

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	for k := range t.spans {
		t.spans[k].Self = t.selfNs(k)
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
