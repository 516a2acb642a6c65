package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// appendJSONString appends s as a JSON string literal. Event strings are
// short static reasons/labels, so only the escapes that can actually occur
// plus the mandatory control-character range are handled.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20:
			b = append(b, fmt.Sprintf("\\u%04x", r)...)
		default:
			b = utf8AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// JSONString returns s as a JSON string literal, escaped as the export
// path escapes it; hand-framed exporters use it for names and labels.
func JSONString(s string) string {
	return string(appendJSONString(nil, s))
}

func utf8AppendRune(b []byte, r rune) []byte {
	var tmp [4]byte
	n := copy(tmp[:], string(r))
	return append(b, tmp[:n]...)
}

// appendEventJSON renders one event as a single JSON object. Fields are
// emitted in a fixed order and zero-valued optional fields are omitted, so
// the JSONL output is deterministic and diff-friendly.
func appendEventJSON(b []byte, ev Event) []byte {
	b = append(b, '{')
	if ev.Seq != 0 {
		b = append(b, `"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
		b = append(b, ',')
	}
	b = append(b, `"t_us":`...)
	b = strconv.AppendInt(b, int64(ev.At/time.Microsecond), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, ev.Kind.String())
	if ev.Server >= 0 {
		b = append(b, `,"server":`...)
		b = strconv.AppendInt(b, int64(ev.Server), 10)
	}
	if name := PoolName(ev.Pool); name != "" {
		b = append(b, `,"pool":`...)
		b = appendJSONString(b, name)
	}
	if ev.MHz != 0 {
		b = append(b, `,"mhz":`...)
		b = strconv.AppendFloat(b, ev.MHz, 'g', -1, 64)
	}
	if ev.Value != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
	}
	if ev.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, ev.Reason)
	}
	if ev.Label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, ev.Label)
	}
	return append(b, '}')
}

// WriteJSONL writes the tracer's events, one JSON object per line, in
// emission order. It encodes straight from the buffer, so concurrent Emit
// calls wait until it returns.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.buf.mu.Lock()
	defer t.buf.mu.Unlock()
	return writeJSONL(w, nil, t.buf.recs, appendEventJSON)
}

// chromeTraceRow is one emitted trace-event object in the Chrome
// trace-event format (the "JSON array format" Perfetto and chrome://tracing
// both load).
type chromeTraceRow struct {
	name string
	ph   string // "X" duration, "i" instant, "M" metadata
	ts   int64  // microseconds
	dur  int64  // microseconds, ph "X" only
	tid  int32
	args string // pre-rendered JSON object body, may be ""
}

func (r chromeTraceRow) append(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, r.name)
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, r.ph)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(r.tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, r.ts, 10)
	if r.ph == "X" {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, r.dur, 10)
	}
	if r.ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if r.args != "" {
		b = append(b, `,"args":{`...)
		b = append(b, r.args...)
		b = append(b, '}')
	}
	return append(b, '}')
}

// ChromeTrace writes one file in the Chrome trace-event JSON format (the
// object form chrome://tracing and ui.perfetto.dev load). It owns the
// framing — the header that opens the event array, the separators between
// rows, the trailer — and error propagation, so each exporter renders only
// its own rows. Write errors stick: later rows are dropped and Close
// returns the first one.
type ChromeTrace struct {
	bw   *bufio.Writer
	buf  []byte
	rows int
}

// NewChromeTrace starts a trace on w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	c := &ChromeTrace{bw: bufio.NewWriter(w)}
	c.bw.WriteString(`{"traceEvents":[`)
	return c
}

// Rowf writes one trace-event object rendered fmt-style; string values
// should go through JSONString.
func (c *ChromeTrace) Rowf(format string, a ...any) {
	c.sep()
	fmt.Fprintf(c.bw, format, a...)
}

func (c *ChromeTrace) row(r chromeTraceRow) {
	c.sep()
	c.buf = r.append(c.buf[:0])
	c.bw.Write(c.buf)
}

func (c *ChromeTrace) sep() {
	if c.rows > 0 {
		c.bw.WriteString(",\n")
	}
	c.rows++
}

// Close writes the trailer and flushes. A bufio.Writer refuses every write
// after its first failure, so the error it returns is the first one.
func (c *ChromeTrace) Close() error {
	c.bw.WriteString("]}\n")
	return c.bw.Flush()
}

// Track ids: row-level events live on tid 0; server s lives on tid s+1.
const rowTrack = 0

func serverTrack(server int32) int32 { return server + 1 }

// WriteChromeTrace renders the tracer's events in the Chrome trace-event
// JSON format: one thread ("track") for row-level events and one per
// server, with capping intervals (cap.apply → cap.release) and the power
// brake (brake.engage → brake.release) as duration spans and everything
// else as instants. The output loads directly in chrome://tracing and
// ui.perfetto.dev. Like WriteJSONL it reads the buffer in place, so
// concurrent Emit calls wait until it returns.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.buf.mu.Lock()
	defer t.buf.mu.Unlock()
	events := t.buf.recs
	ct := NewChromeTrace(w)
	// Name the tracks: the row, then every server the stream mentions.
	maxServer := int32(-1)
	for i := range events {
		maxServer = max(maxServer, events[i].Server)
	}
	ct.row(chromeTraceRow{name: "thread_name", ph: "M", tid: rowTrack, args: `"name":"row"`})
	for s := int32(0); s <= maxServer; s++ {
		ct.row(chromeTraceRow{
			name: "thread_name", ph: "M", tid: serverTrack(s),
			args: `"name":` + JSONString(fmt.Sprintf("server %d", s)),
		})
	}

	capOpen := map[int32]openSpan{} // server -> open capping span
	var brakeOpen *openSpan         // row-level brake span
	lastTS := int64(0)
	for _, ev := range events {
		ts := int64(ev.At / time.Microsecond)
		lastTS = max(lastTS, ts)
		switch ev.Kind {
		case KindCapApply:
			// A re-lock at a new frequency closes the previous span.
			if sp, ok := capOpen[ev.Server]; ok {
				ct.row(sp.until(ts, serverTrack(ev.Server)))
			}
			capOpen[ev.Server] = openSpan{
				startUS: ts,
				name:    fmt.Sprintf("cap %.0f MHz", ev.MHz),
				args:    `"mhz":` + strconv.FormatFloat(ev.MHz, 'g', -1, 64) + `,"pool":"` + PoolName(ev.Pool) + `"`,
			}
		case KindCapRelease:
			if sp, ok := capOpen[ev.Server]; ok {
				ct.row(sp.until(ts, serverTrack(ev.Server)))
				delete(capOpen, ev.Server)
			}
		case KindBrakeEngage:
			brakeOpen = &openSpan{startUS: ts, name: "power brake"}
		case KindBrakeRelease:
			if brakeOpen != nil {
				ct.row(brakeOpen.until(ts, rowTrack))
				brakeOpen = nil
			}
		case KindArrive, KindComplete, KindDrop:
			// Request-level instants flood the UI at full-run scale; they
			// remain in the JSONL export but are skipped here.
		default:
			tid := int32(rowTrack)
			if ev.Server >= 0 {
				tid = serverTrack(ev.Server)
			}
			args := ""
			if ev.Reason != "" {
				args = `"reason":` + JSONString(ev.Reason)
			}
			if ev.Value != 0 {
				if args != "" {
					args += ","
				}
				args += `"value":` + strconv.FormatFloat(ev.Value, 'g', -1, 64)
			}
			ct.row(chromeTraceRow{name: ev.Kind.String(), ph: "i", ts: ts, tid: tid, args: args})
		}
	}
	// Close dangling spans at the last observed timestamp so locks still
	// held at end of run are visible, in server order so the export is
	// deterministic.
	servers := make([]int32, 0, len(capOpen))
	for server := range capOpen {
		servers = append(servers, server)
	}
	slices.Sort(servers)
	for _, server := range servers {
		ct.row(capOpen[server].until(lastTS, serverTrack(server)))
	}
	if brakeOpen != nil {
		ct.row(brakeOpen.until(lastTS, rowTrack))
	}
	return ct.Close()
}

// openSpan is a capping or brake interval still waiting for its end.
type openSpan struct {
	startUS int64
	name    string
	args    string
}

// until closes the span at endUS on track tid.
func (sp openSpan) until(endUS int64, tid int32) chromeTraceRow {
	return chromeTraceRow{name: sp.name, ph: "X", ts: sp.startUS, dur: endUS - sp.startUS, tid: tid, args: sp.args}
}
