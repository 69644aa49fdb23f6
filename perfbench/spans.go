package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a job, a request, or a
// layer inside them. Parent is the ID of the span that caused it (0 for a
// root); spans of one job share Track, which becomes the Perfetto thread.
type span struct {
	ID     int
	Parent int
	Track  int
	Name   string
	Start  time.Time
	End    time.Time
}

// spanLog keeps a traced run's spans in memory; write exports them once
// the run ends. Safe for concurrent use by the serve workload's clients.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID for use as a parent. A nil log
// records nothing and returns 0, so untraced code paths need no branches.
func (l *spanLog) add(parent, track int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Track: track, Name: name, Start: start, End: end})
	return id
}

// setEnd closes a span opened with add(…, start, start).
func (l *spanLog) setEnd(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = end
}

// chromeEvent is one complete ("X") event of the Chrome trace-event JSON
// format, which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write exports the spans as a Chrome trace-event file at path, creating
// its directory. Times are relative to the earliest span start.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var origin time.Time
	for _, s := range l.spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Track,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// phaseTimer turns distcolor's progress events into layer spans. Each
// ledger charge closes the interval since the previous charge (or since
// the job started) and attributes it to the charged phase, so the phase
// spans of a job tile it from start to the last charge; finish attributes
// the remainder (the run's final verification) to tailPhase.
type phaseTimer struct {
	log   *spanLog
	job   int // the job's span ID, parent of its phase spans
	track int
	last  time.Time
	byPh  map[string]float64 // seconds per phase, summed
}

// tailPhase names the interval after the last ledger charge: Run's
// verification of the finished coloring.
const tailPhase = "verify"

// newPhaseTimer opens a job span named name at start.
func newPhaseTimer(log *spanLog, track int, name string, start time.Time) *phaseTimer {
	return &phaseTimer{
		log:   log,
		job:   log.add(0, track, name, start, start),
		track: track,
		last:  start,
		byPh:  map[string]float64{},
	}
}

// mark closes the current interval at now and charges it to phase.
func (t *phaseTimer) mark(phase string, now time.Time) {
	t.byPh[phase] += now.Sub(t.last).Seconds()
	t.log.add(t.job, t.track, phase, t.last, now)
	t.last = now
}

// finish charges the tail interval to tailPhase and closes the job span.
func (t *phaseTimer) finish(end time.Time) {
	t.mark(tailPhase, end)
	t.log.setEnd(t.job, end)
}
