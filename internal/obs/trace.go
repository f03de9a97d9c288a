package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Trace accumulates Chrome-trace events ("Trace Event Format" JSON, the
// format chrome://tracing and Perfetto load) for one simulation run. It
// keeps one TraceShard per SM plus one memory-system shard; each shard's
// event sequence is a function of the simulated schedule alone, so the
// flushed file is deterministic.
//
// Timestamps are simulated cycles (core cycles on SM shards, memory bus
// cycles on the memory shard), rendered as integer microseconds in the
// trace — absolute units are meaningless inside a simulator; relative
// spans are what the timeline shows.
type Trace struct {
	shards []*TraceShard // SMs 0..n-1, then the memory shard
}

// TraceShard is one process row of the trace (pid = SM id, or the
// memory-system pseudo-process). Events on a shard are appended in
// simulated-time order per track (tid), which is what the schema
// validator checks.
type TraceShard struct {
	pid    int
	events []traceEvent
	depth  map[int]int // open Begin count per tid, for CloseOpen
}

// traceEvent is one trace record; ph selects the Chrome event phase
// ('B' begin, 'E' end, 'X' complete-with-duration, 'M' metadata).
type traceEvent struct {
	ph       byte
	ts, dur  uint64
	tid      int
	name, ct string
}

// NewTrace returns a trace with one shard per SM plus the memory shard,
// each pre-labeled with a process_name metadata record.
func NewTrace(numSMs int) *Trace {
	t := &Trace{shards: make([]*TraceShard, numSMs+1)}
	for i := range t.shards {
		t.shards[i] = &TraceShard{pid: i, depth: make(map[int]int)}
	}
	for i := 0; i < numSMs; i++ {
		t.shards[i].meta("process_name", fmt.Sprintf("SM %d", i))
	}
	t.shards[numSMs].meta("process_name", "memory")
	return t
}

// SM returns SM i's shard.
func (t *Trace) SM(i int) *TraceShard { return t.shards[i] }

// Mem returns the memory-system shard.
func (t *Trace) Mem() *TraceShard { return t.shards[len(t.shards)-1] }

// meta appends a process-scoped metadata record (tid 0).
func (sh *TraceShard) meta(name, value string) {
	sh.events = append(sh.events, traceEvent{ph: 'M', name: name, ct: value})
}

// ThreadName labels track tid within the shard (a thread_name metadata
// record). Call once per track; duplicate labels are harmless but bloat
// the file.
func (sh *TraceShard) ThreadName(tid int, name string) {
	sh.events = append(sh.events, traceEvent{ph: 'M', tid: tid, name: "thread_name", ct: name})
}

// Begin opens a span on track tid at time ts.
func (sh *TraceShard) Begin(ts uint64, tid int, name, cat string) {
	sh.events = append(sh.events, traceEvent{ph: 'B', ts: ts, tid: tid, name: name, ct: cat})
	sh.depth[tid]++
}

// End closes the innermost open span on track tid at time ts.
func (sh *TraceShard) End(ts uint64, tid int) {
	sh.events = append(sh.events, traceEvent{ph: 'E', ts: ts, tid: tid})
	sh.depth[tid]--
}

// Complete records a closed span of length dur starting at ts on track
// tid (a Chrome 'X' event).
func (sh *TraceShard) Complete(ts, dur uint64, tid int, name, cat string) {
	sh.events = append(sh.events, traceEvent{ph: 'X', ts: ts, dur: dur, tid: tid, name: name, ct: cat})
}

// CloseOpen closes every still-open span at time ts, deepest first, so a
// run that ends with live warps or in-flight memory still flushes a
// schema-valid trace. Tracks are visited in tid order for deterministic
// output.
func (t *Trace) CloseOpen(ts uint64) {
	for _, sh := range t.shards {
		tids := make([]int, 0, len(sh.depth))
		for tid, d := range sh.depth {
			if d > 0 {
				tids = append(tids, tid)
			}
		}
		sort.Ints(tids)
		for _, tid := range tids {
			for sh.depth[tid] > 0 {
				sh.End(ts, tid)
			}
		}
	}
}

// Flush writes the trace as a single JSON object in the Chrome trace
// event format. Shards are concatenated in pid order — the format does
// not require global timestamp ordering, and per-track order is already
// correct — so output is deterministic.
func (t *Trace) Flush(w io.Writer) error {
	b := make([]byte, 0, 1<<16)
	b = append(b, `{"traceEvents":[`...)
	first := true
	for _, sh := range t.shards {
		for i := range sh.events {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = sh.events[i].append(b, sh.pid)
			if len(b) >= 1<<16 {
				if _, err := w.Write(b); err != nil {
					return fmt.Errorf("trace flush: %w", err)
				}
				b = b[:0]
			}
		}
	}
	b = append(b, "]}\n"...)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("trace flush: %w", err)
	}
	return nil
}

// append renders the event as one JSON object.
func (e *traceEvent) append(b []byte, pid int) []byte {
	b = append(b, `{"ph":"`...)
	b = append(b, e.ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.tid), 10)
	if e.ph == 'M' {
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, e.name)
		b = append(b, `,"args":{"name":`...)
		b = strconv.AppendQuote(b, e.ct)
		b = append(b, `}}`...)
		return b
	}
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, e.ts, 10)
	if e.ph == 'X' {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, e.dur, 10)
	}
	if e.ph != 'E' {
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, e.name)
		b = append(b, `,"cat":`...)
		b = strconv.AppendQuote(b, e.ct)
	}
	b = append(b, '}')
	return b
}

// validateEvent mirrors the JSON shape of a flushed event for the schema
// validator.
type validateEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Name string  `json:"name"`
}

// validateFile mirrors the top-level JSON object of a flushed trace.
type validateFile struct {
	TraceEvents []validateEvent `json:"traceEvents"`
}

// Validate checks a flushed trace against the schema the exporter
// guarantees: every event phase is one of B/E/X/M, timestamps are
// non-decreasing per (pid,tid) track, every Begin has a matching End
// (properly nested per track, never negative depth), X durations are
// non-negative, and no span is left open at end of file. It returns nil
// for a conforming trace and a descriptive error for the first
// violation found.
func Validate(r io.Reader) error {
	var f validateFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("trace parse: %w", err)
	}
	type track struct{ pid, tid int }
	lastTS := make(map[track]float64)
	depth := make(map[track]int)
	for i, e := range f.TraceEvents {
		tr := track{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			continue // metadata carries no timestamp
		case "B", "E", "X":
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if last, ok := lastTS[tr]; ok && e.Ts < last {
			return fmt.Errorf("event %d (pid %d tid %d): timestamp %v regresses below %v",
				i, e.Pid, e.Tid, e.Ts, last)
		}
		lastTS[tr] = e.Ts
		switch e.Ph {
		case "B":
			depth[tr]++
		case "E":
			depth[tr]--
			if depth[tr] < 0 {
				return fmt.Errorf("event %d (pid %d tid %d): end without matching begin", i, e.Pid, e.Tid)
			}
		case "X":
			if e.Dur < 0 {
				return fmt.Errorf("event %d (pid %d tid %d): negative duration %v", i, e.Pid, e.Tid, e.Dur)
			}
		}
	}
	for tr, d := range depth {
		if d != 0 {
			return fmt.Errorf("pid %d tid %d: %d span(s) left open at end of trace", tr.pid, tr.tid, d)
		}
	}
	return nil
}

// ValidateBytes validates an in-memory flushed trace; it is Validate
// over a byte slice, for tests and the trace-check target.
func ValidateBytes(b []byte) error { return Validate(bytes.NewReader(b)) }
