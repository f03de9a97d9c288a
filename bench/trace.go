package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one cell share Cell; Parent is the
// ID of the span that made the call (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; they are written out
// once, at exit, so recording costs two clock reads and a locked append.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(cell, parent int, name string) int {
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Cell: cell, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON at path.
func (r *recorder) write(path, workload string) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover
// (overlapping children count once; child time outside the parent's
// interval does not count).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// routeTimer is the benchmark's own http.Handler in front of the farm
// coordinator's public Handler: it records one span per request, named
// after the route, so farm RPC cost is measured from outside the farm.
type routeTimer struct {
	next http.Handler
	rec  *recorder
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := t.rec.begin(-1, 0, "farm."+r.Method+" "+r.URL.Path)
	t.next.ServeHTTP(w, r)
	t.rec.end(id)
}
