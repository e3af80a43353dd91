package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one layer boundary crossing observed from the harness: the spans
// of one round, sample or call share ID; Parent names the enclosing span of
// the same ID ("" for the root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how an untraced run pays nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(id int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// selfTime is a layer's account over a run: how many spans, their total
// duration, and the part of it not covered by child spans.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, total duration and self time: a span's
// duration minus the part of its interval that its children (same ID,
// Parent == its name) cover.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type key struct {
		id     int64
		parent string
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] = append(children[key{s.ID, s.Parent}], s)
		}
	}
	acc := map[string]*selfTime{}
	for _, s := range spans {
		a := acc[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			acc[s.Name] = a
		}
		a.Count++
		dur := s.End - s.Start
		a.TotalMS += float64(dur) / 1e6
		a.SelfMS += float64(dur-covered(s, children[key{s.ID, s.Name}])) / 1e6
	}
	out := make([]selfTime, 0, len(acc))
	for _, a := range acc {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, at), min(k.End, parent.End)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// write dumps the spans and the self-time table as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans     []span     `json:"spans"`
		SelfTimes []selfTime `json:"self_times"`
	}{spans, t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
