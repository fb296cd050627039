package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into the program.
// Start and End are milliseconds since the recorder's origin; Parent is
// 0 for a root span.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_ms"`
	End    float64           `json:"end_ms"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced passes pay one nil compare per span.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records the interval [start, end] and returns the span's id.
func (l *spanLog) add(parent int, name string, start, end time.Time, attrs map[string]string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: msSince(l.origin, start), End: msSince(l.origin, end),
		Attrs: attrs,
	})
	return id
}

// begin opens a span starting now; finish closes it.
func (l *spanLog) begin(parent int, name string, attrs map[string]string) int {
	now := time.Now()
	return l.add(parent, name, now, now, attrs)
}

func (l *spanLog) finish(id int) {
	if l == nil || id == 0 {
		return
	}
	end := msSince(l.origin, time.Now())
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

func msSince(origin, t time.Time) float64 {
	return float64(t.Sub(origin).Nanoseconds()) / 1e6
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.MarshalIndent(map[string]any{"spans": l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
