package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleSpans() []Span {
	return []Span{
		{Req: 2, ID: 1, Kind: SpanRequest, Start: 5 * time.Second, End: 9 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 80, Preempts: 1,
			EnergyJ: 412.5, CapSec: 0.8, CapJ: -33.25, TTFTSec: 1.25},
		{Req: 2, ID: 2, Parent: 1, Kind: SpanQueue, Start: 5 * time.Second, End: 6 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat"},
		{Req: 2, ID: 3, Parent: 1, Kind: SpanPrefill, Start: 6 * time.Second, End: 6*time.Second + 250*time.Millisecond,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 512, EnergyJ: 50},
		{Req: 2, ID: 4, Parent: 1, Kind: SpanPreempt, Start: 7 * time.Second, End: 7 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 600, Reason: "kv-pressure"},
		{Req: 2, ID: 5, Parent: 1, Kind: SpanPrefill, Start: 7 * time.Second, End: 7*time.Second + 300*time.Millisecond,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 512, Recompute: true, EnergyJ: 55},
		{Req: 2, ID: 6, Parent: 1, Kind: SpanDecode, Start: 7*time.Second + 300*time.Millisecond, End: 9 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 80, EnergyJ: 307.5, CapSec: 0.8, CapJ: -33.25},
		{Req: 1, ID: 1, Kind: SpanRequest, Start: 0, End: 4 * time.Second,
			Server: 0, Pool: PoolLow, Class: "code", Tokens: 0, TTFTSec: -1, Reason: "node-death"},
		{Req: 1, ID: 2, Parent: 1, Kind: SpanQueue, Start: 0, End: time.Second,
			Server: 0, Pool: PoolLow, Class: "code"},
	}
}

// TestSpanJSONLRoundTrip writes spans out and reads them back; every field
// must survive, and the output must come back sorted by (req, id).
func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := NewSpanTracer()
	for _, sp := range sampleSpans() {
		tr.Emit(sp)
	}
	var buf bytes.Buffer
	buf.WriteString("# git: unknown\n\n") // headers and blanks must be skipped
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.sortedSpans()
	if len(got) != len(want) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w.Kind != SpanRequest {
			// ttft_s is only on the wire for roots; readers see the
			// "absent" sentinel on children.
			w.TTFTSec = -1
		}
		if got[i] != w {
			t.Errorf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], w)
		}
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Req > b.Req || (a.Req == b.Req && a.ID >= b.ID) {
			t.Errorf("output not sorted by (req,id) at line %d", i)
		}
	}
}

// TestSpanJSONLValid checks every emitted line is standalone valid JSON with
// the fixed leading fields.
func TestSpanJSONLValid(t *testing.T) {
	tr := NewSpanTracer()
	for _, sp := range sampleSpans() {
		tr.Emit(sp)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i+1, err, line)
		}
		if !strings.HasPrefix(line, `{"req":`) {
			t.Errorf("line %d does not lead with req: %s", i+1, line)
		}
	}
}

// TestSpanChromeTrace checks the Perfetto export is valid JSON with one
// thread_name metadata row per request and an instant for the preemption.
func TestSpanChromeTrace(t *testing.T) {
	tr := NewSpanTracer()
	for _, sp := range sampleSpans() {
		tr.Emit(sp)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	var threads, instants, slices int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				threads++
			}
		case "i":
			instants++
		case "X":
			slices++
		}
	}
	if threads != 2 {
		t.Errorf("thread_name rows = %d, want 2 (one per request)", threads)
	}
	if instants != 1 {
		t.Errorf("instant rows = %d, want 1 (the preemption)", instants)
	}
	if slices != len(sampleSpans())-1 {
		t.Errorf("slice rows = %d, want %d", slices, len(sampleSpans())-1)
	}
}

func TestSpanTracerNil(t *testing.T) {
	var tr *SpanTracer
	tr.Emit(Span{Req: 1}) // must not panic
	if tr.Enabled() || tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer should be disabled and empty")
	}
	tr.Reset()
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
}

func TestReadSpansErrors(t *testing.T) {
	if _, err := ReadSpans(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed JSON line should error")
	}
	if _, err := ReadSpans(strings.NewReader(`{"req":1,"id":1,"kind":"zebra","start_us":0,"end_us":1}` + "\n")); err == nil {
		t.Error("unknown span kind should error")
	}
}

func TestParseSpanKind(t *testing.T) {
	for _, k := range []SpanKind{SpanRequest, SpanQueue, SpanPrefill, SpanDecode, SpanPreempt} {
		got, ok := ParseSpanKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseSpanKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseSpanKind("none"); ok {
		t.Error(`ParseSpanKind("none") should reject the zero kind`)
	}
}

// BenchmarkSpanTracerDisabled measures the cost of the disabled path — a
// nil-receiver Emit must be a branch, not an allocation.
func BenchmarkSpanTracerDisabled(b *testing.B) {
	var tr *SpanTracer
	sp := Span{Req: 42, ID: 1, Kind: SpanDecode, Tokens: 8, EnergyJ: 1.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(sp)
	}
}

// TestScanSpans: spans stream through the callback decoded, in file
// order. Line-level errors are part of the shared TestScanContract.
func TestScanSpans(t *testing.T) {
	input := `{"req":2,"id":1,"kind":"request","start_us":0,"end_us":100,"ttft_s":0.01}` + "\n" +
		`{"req":2,"id":2,"parent":1,"kind":"queue","start_us":0,"end_us":5}` + "\n"
	var got []Span
	err := ScanSpans(strings.NewReader(input), nil, func(sp Span) error { got = append(got, sp); return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{
		{Req: 2, ID: 1, Kind: SpanRequest, End: 100 * time.Microsecond, Server: -1, Pool: PoolNone, TTFTSec: 0.01},
		{Req: 2, ID: 2, Parent: 1, Kind: SpanQueue, End: 5 * time.Microsecond, Server: -1, Pool: PoolNone, TTFTSec: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans = %+v, want %+v", got, want)
	}
}

// TestScanSpansOutOfOrder feeds children before their root — the scanner
// itself has no ordering opinion, so both must stream through.
func TestScanSpansOutOfOrder(t *testing.T) {
	input := `{"req":7,"id":2,"kind":"queue","start_us":0,"end_us":5}` + "\n" +
		`{"req":7,"id":1,"kind":"request","start_us":0,"end_us":100,"ttft_s":0.01}` + "\n"
	var ids []int32
	if err := ScanSpans(strings.NewReader(input), nil, func(sp Span) error {
		ids = append(ids, sp.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Errorf("ids = %v, want file order [2 1]", ids)
	}
}
