package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/caba-sim/caba/internal/snapshot"
)

// sampleRows returns a small deterministic series for round-trip tests.
func sampleRows() []Sample {
	return []Sample{
		{Cycle: 100, IPC: 1.5, IssueActive: 0.5, IssueComp: 0.1, IssueMem: 0.2, IssueDep: 0.1, IssueIdle: 0.1,
			L1HitRate: 0.75, L2HitRate: 0.5, MSHROcc: 0.25, DRAMBusy: 0.3, AWOcc: 0.125, CompRatio: 2.5},
		{Cycle: 200, IPC: 0.25, IssueIdle: 1},
	}
}

func TestSeriesRoundTripJSONL(t *testing.T) {
	var s Series
	for _, r := range sampleRows() {
		s.Append(r)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != s.Len() {
		t.Fatalf("got %d lines, want %d", len(lines), s.Len())
	}
	for i, ln := range lines {
		var got Sample
		if err := json.Unmarshal([]byte(ln), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != s.At(i) {
			t.Fatalf("line %d: got %+v want %+v", i, got, s.At(i))
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	var s Series
	for _, r := range sampleRows() {
		s.Append(r)
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != s.Len()+1 {
		t.Fatalf("got %d lines, want header + %d rows", len(lines), s.Len())
	}
	if want := strings.Join(csvHeader, ","); lines[0] != want {
		t.Fatalf("header %q, want %q", lines[0], want)
	}
	for i, ln := range lines[1:] {
		if got := strings.Count(ln, ","); got != len(csvHeader)-1 {
			t.Fatalf("row %d: %d commas, want %d", i, got, len(csvHeader)-1)
		}
	}
}

func TestSeriesSnapshotRoundTrip(t *testing.T) {
	var s Series
	for _, r := range sampleRows() {
		s.Append(r)
	}
	enc := snapshot.Encoder()
	s.Snap(enc)
	var got Series
	dec := snapshot.Decoder(enc.Payload())
	if got.Snap(dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if !reflect.DeepEqual(&s, &got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestSeriesLoadRejectsTruncated(t *testing.T) {
	var s Series
	s.Append(sampleRows()[0])
	enc := snapshot.Encoder()
	s.Snap(enc)
	var got Series
	dec := snapshot.Decoder(enc.Payload()[:len(enc.Payload())-3])
	if got.Snap(dec); dec.Err() == nil {
		t.Fatal("truncated payload loaded without error")
	}
}

func TestAttrChargeAndInvariants(t *testing.T) {
	a := NewAttr(4)
	a.Charge(0, CauseScoreboard, 3)
	a.Charge(3, CauseMSHRFull, 2)
	a.Charge(-1, CauseEmpty, 7) // SM-level row
	if got := a.Sum(); got != 12 {
		t.Fatalf("Sum = %d, want 12", got)
	}
	tt := a.Totals()
	if tt[CauseScoreboard] != 3 || tt[CauseMSHRFull] != 2 || tt[CauseEmpty] != 7 {
		t.Fatalf("Totals = %v", tt)
	}
	if a.Counts[4][CauseEmpty] != 7 {
		t.Fatalf("SM-level charge landed on %v", a.Counts)
	}
}

func TestAttrSnapshotRoundTrip(t *testing.T) {
	a := NewAttr(2)
	a.Charge(1, CauseBarrier, 5)
	a.Charge(-1, CauseEmpty, 1)
	enc := snapshot.Encoder()
	a.Snap(enc)
	got := NewAttr(2)
	dec := snapshot.Decoder(enc.Payload())
	if got.Snap(dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", a, got)
	}
	wrong := NewAttr(3)
	dec = snapshot.Decoder(enc.Payload())
	if wrong.Snap(dec); dec.Err() == nil {
		t.Fatal("geometry mismatch loaded without error")
	}
}

func TestCauseString(t *testing.T) {
	if CauseScoreboard.String() != "scoreboard" || CauseEmpty.String() != "empty" {
		t.Fatal("cause names drifted")
	}
	if got := Cause(200).String(); got != "cause(200)" {
		t.Fatalf("out-of-range cause: %q", got)
	}
}

func TestAttributionRenderTable(t *testing.T) {
	at := &Attribution{WarpSlots: 2, PerSM: []*Attr{NewAttr(2), NewAttr(2)}}
	at.PerSM[0].Charge(0, CauseScoreboard, 10)
	at.PerSM[1].Charge(1, CauseLSUBusy, 4)
	var buf bytes.Buffer
	at.RenderTable(&buf, 8)
	out := buf.String()
	for _, want := range []string{"14 unissued", "scoreboard", "sm0.w0", "sm1.w1", "lsu-busy=100%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTraceFlushAndValidate(t *testing.T) {
	tr := NewTrace(2)
	tr.SM(0).ThreadName(3, "warp 3")
	tr.SM(0).Begin(10, 3, "warp", "cta0")
	tr.SM(0).Begin(12, 3, "nested", "cta0")
	tr.SM(0).End(15, 3)
	tr.SM(0).End(20, 3)
	tr.SM(1).Begin(5, 1000, "assist", "fill-decompress")
	tr.SM(1).End(9, 1000)
	tr.Mem().Complete(30, 4, 0, "burst", "read")
	var buf bytes.Buffer
	if err := tr.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBytes(buf.Bytes()); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("flushed trace is not valid JSON")
	}
}

func TestTraceCloseOpen(t *testing.T) {
	tr := NewTrace(1)
	tr.SM(0).Begin(1, 7, "warp", "cta0")
	tr.SM(0).Begin(2, 7, "inner", "cta0")
	tr.SM(0).Begin(3, 9, "other", "cta0")
	var buf bytes.Buffer
	if err := tr.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBytes(buf.Bytes()); err == nil {
		t.Fatal("open spans passed validation")
	}
	tr.CloseOpen(50)
	buf.Reset()
	if err := tr.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBytes(buf.Bytes()); err != nil {
		t.Fatalf("closed trace rejected: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"unmatched end":     `{"traceEvents":[{"ph":"E","pid":0,"tid":1,"ts":5}]}`,
		"ts regression":     `{"traceEvents":[{"ph":"B","pid":0,"tid":1,"ts":5,"name":"a"},{"ph":"E","pid":0,"tid":1,"ts":4}]}`,
		"unknown phase":     `{"traceEvents":[{"ph":"Q","pid":0,"tid":1,"ts":5}]}`,
		"open at eof":       `{"traceEvents":[{"ph":"B","pid":0,"tid":1,"ts":5,"name":"a"}]}`,
		"negative duration": `{"traceEvents":[{"ph":"X","pid":0,"tid":1,"ts":5,"dur":-2,"name":"a"}]}`,
		"not json":          `]`,
	}
	for name, in := range cases {
		if err := ValidateBytes([]byte(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"traceEvents":[{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"SM 0"}},` +
		`{"ph":"B","pid":0,"tid":1,"ts":5,"name":"a"},{"ph":"E","pid":0,"tid":1,"ts":5}]}`
	if err := ValidateBytes([]byte(ok)); err != nil {
		t.Errorf("conforming trace rejected: %v", err)
	}
}
