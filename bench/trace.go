package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// job share Job; Parent is the ID of the span that caused this one
// (-1 for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site. Safe
// for concurrent use: dist workers open evaluators on their own
// goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(job, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration in seconds,
// measured whether or not the tracer is on.
func (t *tracer) do(job, parent int, name string, fn func(id int) error) (float64, error) {
	id := t.begin(job, parent, name)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0).Seconds()
	t.end(id)
	return d, err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds, indexed by
// span ID: its duration minus the part of its interval that its direct
// children cover. Children may overlap one another (two dist workers
// under one job) and may stick out of the parent; the covered part is
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cursor := s.Start
		for _, k := range kids {
			start, end := max(k.Start, cursor), min(k.End, s.End)
			if end > start {
				covered += end - start
				cursor = end
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanKey names a kind of span: its own name under the name of its
// root ancestor (the rung, in a traced run).
type spanKey struct{ root, name string }

// perJobSelf sums self time by span kind within each job and returns,
// per kind, the per-job totals in seconds, in job order (one entry per
// job that has a span of that kind).
func perJobSelf(spans []span) map[spanKey][]float64 {
	self := selfTimes(spans)
	type jobKey struct {
		spanKey
		job int
	}
	totals := map[jobKey]int64{}
	var order []jobKey
	for _, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		k := jobKey{spanKey{root.Name, s.Name}, s.Job}
		if _, ok := totals[k]; !ok {
			order = append(order, k)
		}
		totals[k] += self[s.ID]
	}
	out := map[spanKey][]float64{}
	for _, k := range order {
		out[k.spanKey] = append(out[k.spanKey], float64(totals[k])/1e9)
	}
	return out
}

// writeTrace dumps the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
