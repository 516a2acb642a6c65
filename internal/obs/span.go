package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// SpanKind enumerates the node types of a request span tree. The serve
// path emits a depth-two tree per request:
//
//	request (root)
//	├── queue            waiting for admission (re-opened after preemption)
//	├── prefill[i]       one prompt-chunk iteration (Recompute after preempt)
//	├── decode[j]        a coalesced run of back-to-back decode iterations
//	└── preempt          instant: evicted from the batch under KV pressure
type SpanKind uint8

const (
	SpanNone SpanKind = iota
	// SpanRequest is the root span covering a request end to end, from
	// arrival to completion (or drop — Reason is set on drops). It carries
	// the request-level attributions: TTFTSec, Tokens (decoded), EnergyJ,
	// CapSec/CapJ, Preempts.
	SpanRequest
	// SpanQueue covers time spent waiting for batch admission, including
	// the requeue wait after a preemption.
	SpanQueue
	// SpanPrefill covers one prompt-chunk prefill iteration; Tokens is the
	// chunk size and Recompute marks chunks that re-run work lost to a
	// preemption.
	SpanPrefill
	// SpanDecode covers a run of consecutive decode iterations, coalesced
	// while they chain back-to-back so a 500-token generation yields one
	// span, not 500; Tokens is the number of tokens generated in the run.
	SpanDecode
	// SpanPreempt is a zero-duration marker at the instant a sequence was
	// evicted for recompute; Tokens is the KV tokens released.
	SpanPreempt
)

var spanKindNames = [...]string{
	SpanNone:    "none",
	SpanRequest: "request",
	SpanQueue:   "queue",
	SpanPrefill: "prefill",
	SpanDecode:  "decode",
	SpanPreempt: "preempt",
}

// String returns the span kind's wire name ("prefill").
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// ParseSpanKind maps a wire name back to its SpanKind.
func ParseSpanKind(s string) (SpanKind, bool) {
	for k, name := range spanKindNames {
		if name == s && k != int(SpanNone) {
			return SpanKind(k), true
		}
	}
	return SpanNone, false
}

// Span is one node of a request span tree: a flat value type like Event,
// so emitting costs only the tracer's amortized buffer growth. Spans are
// keyed by (Req, ID): Req is the workload request ID, ID numbers the spans
// within one request's tree (the root is always 1), Parent is the ID of
// the enclosing span (0 on the root).
//
// Attribute use by kind: Server/Pool/Class locate the request; Tokens is
// kind-specific (see SpanKind docs); EnergyJ is the GPU energy attributed
// to the span across the replica's tensor-parallel group; CapSec and CapJ
// are the extra seconds and extra (or, negative, saved) joules versus the
// DVFS-uncapped counterfactual of the same iterations; TTFTSec (root only)
// is the time to first token, or -1 when the request never produced one;
// Reason (root only) records why a request ended without completing.
type Span struct {
	Req       int64
	ID        int32
	Parent    int32
	Kind      SpanKind
	Start     time.Duration // simulated time
	End       time.Duration // simulated time
	Server    int32
	Pool      int8
	Class     string
	Tokens    int32
	Recompute bool
	Preempts  int32
	EnergyJ   float64
	CapSec    float64
	CapJ      float64
	TTFTSec   float64
	Reason    string
	// Retry is the failover attempt number of the request span's attempt
	// (0 = first admission); the analyzer uses it to fold multiple root
	// spans of one failed-over request into a single outcome.
	Retry int32
	// Session groups the root spans of one scenario multi-turn session
	// (0 = no session structure); Turn is the request's 1-based position
	// in it. Both are omitted from the wire format when zero, so legacy
	// traffic produces unchanged output.
	Session int64
	Turn    int32
}

// SpanTracer records request spans. Like Tracer, it is safe for concurrent
// use and a nil *SpanTracer is a valid disabled sink — Emit on nil is a
// single branch (see BenchmarkSpanTracerDisabled). Spans carry no sequence
// number: the export is sorted, not emission-ordered.
type SpanTracer struct {
	buf recordBuf[Span]
}

// NewSpanTracer returns an enabled span tracer.
func NewSpanTracer() *SpanTracer {
	return &SpanTracer{}
}

// Emit records a span. On a nil tracer it returns immediately; emitters
// that need per-sequence bookkeeping should additionally gate that work on
// Enabled so the disabled path allocates nothing.
func (t *SpanTracer) Emit(sp Span) {
	if t == nil {
		return
	}
	t.buf.push(sp, nil)
}

// Enabled reports whether spans are being recorded.
func (t *SpanTracer) Enabled() bool { return t != nil }

// Len returns the number of recorded spans.
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	return t.buf.len()
}

// Spans returns a copy of the recorded spans in emission order.
func (t *SpanTracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.buf.snapshot()
}

// Reset discards recorded spans but keeps the buffer capacity.
func (t *SpanTracer) Reset() {
	if t == nil {
		return
	}
	t.buf.reset(nil)
}

// appendSpanJSON renders one span as a single JSON object with fixed field
// order and omitted zero fields, mirroring appendEventJSON.
func appendSpanJSON(b []byte, sp Span) []byte {
	b = append(b, `{"req":`...)
	b = strconv.AppendInt(b, sp.Req, 10)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, int64(sp.ID), 10)
	if sp.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(sp.Parent), 10)
	}
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, sp.Kind.String())
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, int64(sp.Start/time.Microsecond), 10)
	b = append(b, `,"end_us":`...)
	b = strconv.AppendInt(b, int64(sp.End/time.Microsecond), 10)
	if sp.Server >= 0 {
		b = append(b, `,"server":`...)
		b = strconv.AppendInt(b, int64(sp.Server), 10)
	}
	if name := PoolName(sp.Pool); name != "" {
		b = append(b, `,"pool":`...)
		b = appendJSONString(b, name)
	}
	if sp.Class != "" {
		b = append(b, `,"class":`...)
		b = appendJSONString(b, sp.Class)
	}
	if sp.Tokens != 0 {
		b = append(b, `,"tokens":`...)
		b = strconv.AppendInt(b, int64(sp.Tokens), 10)
	}
	if sp.Recompute {
		b = append(b, `,"recompute":true`...)
	}
	if sp.Preempts != 0 {
		b = append(b, `,"preempts":`...)
		b = strconv.AppendInt(b, int64(sp.Preempts), 10)
	}
	if sp.EnergyJ != 0 {
		b = append(b, `,"energy_j":`...)
		b = strconv.AppendFloat(b, sp.EnergyJ, 'g', -1, 64)
	}
	if sp.CapSec != 0 {
		b = append(b, `,"cap_s":`...)
		b = strconv.AppendFloat(b, sp.CapSec, 'g', -1, 64)
	}
	if sp.CapJ != 0 {
		b = append(b, `,"cap_j":`...)
		b = strconv.AppendFloat(b, sp.CapJ, 'g', -1, 64)
	}
	if sp.Kind == SpanRequest {
		b = append(b, `,"ttft_s":`...)
		b = strconv.AppendFloat(b, sp.TTFTSec, 'g', -1, 64)
	}
	if sp.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, sp.Reason)
	}
	if sp.Retry != 0 {
		b = append(b, `,"retry":`...)
		b = strconv.AppendInt(b, int64(sp.Retry), 10)
	}
	if sp.Session != 0 {
		b = append(b, `,"session":`...)
		b = strconv.AppendInt(b, sp.Session, 10)
	}
	if sp.Turn != 0 {
		b = append(b, `,"turn":`...)
		b = strconv.AppendInt(b, int64(sp.Turn), 10)
	}
	return append(b, '}')
}

// sortedSpans returns the tracer's spans ordered by (Req, ID), so one
// request's tree is a contiguous block led by its root regardless of how
// emission interleaved across requests.
func (t *SpanTracer) sortedSpans() []Span {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Req != spans[j].Req {
			return spans[i].Req < spans[j].Req
		}
		if spans[i].Retry != spans[j].Retry {
			return spans[i].Retry < spans[j].Retry
		}
		return spans[i].ID < spans[j].ID
	})
	return spans
}

// WriteJSONL writes the spans, one JSON object per line, sorted by
// (request, span ID). The encoding is hand-rolled like the event export,
// so identical runs produce identical bytes.
func (t *SpanTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeJSONL(w, nil, t.sortedSpans(), appendSpanJSON)
}

// WriteChromeTrace renders the spans in the Chrome trace-event JSON format
// with one track per request, so a single request's queue → prefill →
// decode lifecycle reads left to right in ui.perfetto.dev. Tracks are
// ordered by request ID; preemptions render as instants.
func (t *SpanTracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.sortedSpans()
	ct := NewChromeTrace(w)
	// Name every request's track first.
	tids := map[int64]int32{}
	for _, sp := range spans {
		if _, ok := tids[sp.Req]; ok {
			continue
		}
		tid := int32(len(tids))
		tids[sp.Req] = tid
		label := fmt.Sprintf("req %d", sp.Req)
		if sp.Class != "" {
			label += " (" + sp.Class + ")"
		}
		ct.row(chromeTraceRow{name: "thread_name", ph: "M", tid: tid, args: `"name":` + JSONString(label)})
	}
	for _, sp := range spans {
		name := sp.Kind.String()
		if sp.Kind == SpanPrefill && sp.Recompute {
			name = "prefill (recompute)"
		}
		args := `"tokens":` + strconv.FormatInt(int64(sp.Tokens), 10)
		if sp.EnergyJ != 0 {
			args += `,"energy_j":` + strconv.FormatFloat(sp.EnergyJ, 'g', -1, 64)
		}
		if sp.CapSec != 0 {
			args += `,"cap_s":` + strconv.FormatFloat(sp.CapSec, 'g', -1, 64)
		}
		if sp.Kind == SpanRequest {
			args += `,"ttft_s":` + strconv.FormatFloat(sp.TTFTSec, 'g', -1, 64)
			if sp.Reason != "" {
				args += `,"reason":` + JSONString(sp.Reason)
			}
		}
		row := chromeTraceRow{name: name, ph: "X", ts: int64(sp.Start / time.Microsecond), tid: tids[sp.Req], args: args}
		if sp.Kind == SpanPreempt {
			row.ph = "i"
		} else {
			row.dur = int64((sp.End - sp.Start) / time.Microsecond)
		}
		ct.row(row)
	}
	return ct.Close()
}

// spanJSON is the decode-side shadow of appendSpanJSON's wire format.
type spanJSON struct {
	Req       int64   `json:"req"`
	ID        int32   `json:"id"`
	Parent    int32   `json:"parent"`
	Kind      string  `json:"kind"`
	StartUS   int64   `json:"start_us"`
	EndUS     int64   `json:"end_us"`
	Server    int32   `json:"server"`
	Pool      string  `json:"pool"`
	Class     string  `json:"class"`
	Tokens    int32   `json:"tokens"`
	Recompute bool    `json:"recompute"`
	Preempts  int32   `json:"preempts"`
	EnergyJ   float64 `json:"energy_j"`
	CapSec    float64 `json:"cap_s"`
	CapJ      float64 `json:"cap_j"`
	TTFTSec   float64 `json:"ttft_s"`
	Reason    string  `json:"reason"`
	Retry     int32   `json:"retry"`
	Session   int64   `json:"session"`
	Turn      int32   `json:"turn"`
}

// ScanSpans streams span JSONL produced by WriteJSONL: one callback per
// parsed span, in file order, without materializing the file or the span
// slice. Blank lines are skipped; `#` provenance lines go to comment (when
// non-nil) instead of the parser. Errors — malformed JSON, unknown kinds,
// lines beyond the 64 MiB cap, or an error returned by fn (which aborts the
// scan) — carry the 1-based line number.
func ScanSpans(r io.Reader, comment func(line string), fn func(sp Span) error) error {
	return scanJSONL(r, "spans", comment, func(raw []byte) error {
		sp, err := parseSpanLine(raw)
		if err != nil {
			return err
		}
		return fn(sp)
	})
}

// parseSpanLine decodes one non-comment JSONL line into a Span.
func parseSpanLine(raw []byte) (Span, error) {
	sj := spanJSON{Server: -1, Pool: "", TTFTSec: -1}
	if err := json.Unmarshal(raw, &sj); err != nil {
		return Span{}, err
	}
	kind, ok := ParseSpanKind(sj.Kind)
	if !ok {
		return Span{}, fmt.Errorf("unknown kind %q", sj.Kind)
	}
	return Span{
		Req:       sj.Req,
		ID:        sj.ID,
		Parent:    sj.Parent,
		Kind:      kind,
		Start:     time.Duration(sj.StartUS) * time.Microsecond,
		End:       time.Duration(sj.EndUS) * time.Microsecond,
		Server:    sj.Server,
		Pool:      parsePool(sj.Pool),
		Class:     sj.Class,
		Tokens:    sj.Tokens,
		Recompute: sj.Recompute,
		Preempts:  sj.Preempts,
		EnergyJ:   sj.EnergyJ,
		CapSec:    sj.CapSec,
		CapJ:      sj.CapJ,
		TTFTSec:   sj.TTFTSec,
		Reason:    sj.Reason,
		Retry:     sj.Retry,
		Session:   sj.Session,
		Turn:      sj.Turn,
	}, nil
}

// ReadSpans parses span JSONL produced by WriteJSONL, skipping blank lines
// and `#` provenance headers. Consumers that don't need the whole slice at
// once should prefer ScanSpans, which this wraps.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	err := ScanSpans(r, nil, func(sp Span) error {
		out = append(out, sp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
