package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every instrument must accept a nil receiver as "disabled" without
	// panicking or allocating observable state.
	var tr *Tracer
	tr.Emit(Event{Kind: KindCapApply})
	tr.Reset()
	if tr.Enabled() || tr.Len() != 0 || tr.Events() != nil || tr.CountKind(KindCapApply) != 0 {
		t.Fatal("nil tracer should be fully inert")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(1.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(0.5, time.Second)

	var reg *Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil {
		t.Fatal("nil registry should hand out nil metrics")
	}
	reg.Snapshot() // must not panic

	var p *Progress
	p.Start("a")
	p.Done("a", false)
	if s := p.Snapshot(); s.Total != 0 || len(s.InFlight) != 0 {
		t.Fatal("nil progress should snapshot empty")
	}

	var o *Observer
	o.Emit(Event{})
	if o.Trace() != nil || o.Counter("x") != nil || o.Gauge("x") != nil ||
		o.Histogram("x", nil) != nil || o.MetricsOnly() != nil {
		t.Fatal("nil observer should stay nil through derivation")
	}
}

func TestTracerRecordsAndCounts(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{At: time.Second, Kind: KindCapApply, Server: 3, MHz: 1200})
	tr.Emit(Event{At: 2 * time.Second, Kind: KindCapRelease, Server: 3})
	tr.Emit(Event{At: 3 * time.Second, Kind: KindCapApply, Server: 4, MHz: 900})
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := tr.CountKind(KindCapApply); got != 2 {
		t.Fatalf("CountKind(apply) = %d, want 2", got)
	}
	evs := tr.Events()
	if evs[0].Server != 3 || evs[0].MHz != 1200 {
		t.Fatalf("unexpected first event %+v", evs[0])
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset should discard events")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: KindArrive})
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 8000 {
		t.Fatalf("Len = %d, want 8000", got)
	}
}

func TestWriteJSONLDeterministicAndValid(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{At: 1500 * time.Microsecond, Kind: KindThreshold, Server: -1,
		Pool: PoolNone, Value: 0.87, Reason: "t1.engage", Label: "polca"})
	tr.Emit(Event{At: 2 * time.Second, Kind: KindCapApply, Server: 7, Pool: PoolLow, MHz: 1200})

	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSONL export should be deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["kind"] != "policy.threshold" || first["reason"] != "t1.engage" {
		t.Fatalf("unexpected decoded event: %v", first)
	}
	if first["t_us"] != float64(1500) {
		t.Fatalf("t_us = %v, want 1500", first["t_us"])
	}
	if _, hasServer := first["server"]; hasServer {
		t.Fatal("server -1 should be omitted")
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["pool"] != "low" || second["mhz"] != float64(1200) {
		t.Fatalf("unexpected decoded event: %v", second)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{At: time.Second, Kind: KindCapApply, Server: 0, Pool: PoolLow, MHz: 1200})
	tr.Emit(Event{At: 3 * time.Second, Kind: KindCapRelease, Server: 0})
	tr.Emit(Event{At: 4 * time.Second, Kind: KindBrakeEngage, Server: -1})
	tr.Emit(Event{At: 5 * time.Second, Kind: KindBrakeRelease, Server: -1})
	// Dangling cap span: applied but never released before end of run.
	tr.Emit(Event{At: 6 * time.Second, Kind: KindCapApply, Server: 1, Pool: PoolLow, MHz: 900})
	tr.Emit(Event{At: 7 * time.Second, Kind: KindThreshold, Server: -1, Value: 0.8, Reason: "t1.release"})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var spans, instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["dur"] == nil {
				t.Fatalf("span without dur: %v", ev)
			}
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	// cap span on server 0, brake span, dangling cap span on server 1.
	if spans != 3 {
		t.Fatalf("spans = %d, want 3", spans)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1 (threshold)", instants)
	}
	// Track metadata: row + server 0 + server 1.
	if metas != 3 {
		t.Fatalf("metadata rows = %d, want 3", metas)
	}
}

// TestWriteChromeTraceClosesOpenCapsInServerOrder: locks still held at
// end of run are closed in server order, so the export is byte-identical
// from one write to the next however many servers are still capped.
func TestWriteChromeTraceClosesOpenCapsInServerOrder(t *testing.T) {
	tr := NewTracer()
	for s := int32(7); s >= 0; s-- {
		tr.Emit(Event{At: time.Duration(8-s) * time.Second, Kind: KindCapApply, Server: s, Pool: PoolLow, MHz: 1100})
	}
	var first bytes.Buffer
	if err := tr.WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := tr.WriteChromeTrace(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("write %d differs from the first", i+2)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var tids []int32
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids = append(tids, ev.Tid)
		}
	}
	if len(tids) != 8 {
		t.Fatalf("closed %d cap spans, want 8", len(tids))
	}
	for i, tid := range tids {
		if tid != serverTrack(int32(i)) {
			t.Fatalf("cap span tids = %v, want servers in order", tids)
		}
	}
}

func TestRegistryAndPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`row_requests_total{priority="low"}`).Add(10)
	reg.Counter(`row_requests_total{priority="high"}`).Add(20)
	if got := reg.Counter(`row_requests_total{priority="low"}`).Value(); got != 10 {
		t.Fatalf("counter identity broken: %d", got)
	}
	reg.Gauge("row_util").Set(0.75)
	h := reg.Histogram("row_util_seconds", []float64{0.5, 1.0})
	h.Observe(0.25, 2*time.Second) // bucket le=0.5
	h.Observe(0.75, 4*time.Second) // bucket le=1.0
	h.Observe(2.0, 1*time.Second)  // +Inf bucket

	s := reg.Snapshot()
	if s.Counters[`row_requests_total{priority="low"}`] != 10 {
		t.Fatalf("snapshot counters: %v", s.Counters)
	}
	if s.Gauges["row_util"] != 0.75 {
		t.Fatalf("snapshot gauges: %v", s.Gauges)
	}
	hs := s.Histograms["row_util_seconds"]
	if hs.Total != 7 {
		t.Fatalf("histogram total = %v, want 7", hs.Total)
	}
	wantSum := 0.25*2 + 0.75*4 + 2.0*1
	if math.Abs(hs.Sum-wantSum) > 1e-9 {
		t.Fatalf("histogram sum = %v, want %v", hs.Sum, wantSum)
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE row_requests_total counter",
		`row_requests_total{priority="high"} 20`,
		`row_requests_total{priority="low"} 10`,
		"# TYPE row_util gauge",
		"row_util 0.75",
		"# TYPE row_util_seconds histogram",
		`row_util_seconds_bucket{le="0.5"} 2`,
		`row_util_seconds_bucket{le="1"} 6`,
		`row_util_seconds_bucket{le="+Inf"} 7`,
		"row_util_seconds_sum 5.5",
		"row_util_seconds_count 7",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// Determinism: two renders are byte-identical.
	var buf2 bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("prometheus output should be deterministic")
	}
}

func TestMergeLabelsAndLabel(t *testing.T) {
	if got := MergeLabels("m", ""); got != "m" {
		t.Fatalf("got %q", got)
	}
	if got := MergeLabels("m", `a="1"`); got != `m{a="1"}` {
		t.Fatalf("got %q", got)
	}
	if got := MergeLabels(`m{a="1"}`, `b="2"`); got != `m{a="1",b="2"}` {
		t.Fatalf("got %q", got)
	}
	if got := Label("k", `va"l\ue`); got != `k="va\"l\\ue"` {
		t.Fatalf("got %q", got)
	}
}

func TestObserverLabelScoping(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer()
	po := &Observer{Tracer: tr, Metrics: reg, Labels: Label("policy", "polca")}
	po.Counter("row_lock_commands_total").Add(3)
	if got := reg.Counter(`row_lock_commands_total{policy="polca"}`).Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	mo := po.MetricsOnly()
	if mo.Trace() != nil {
		t.Fatal("MetricsOnly should drop the tracer")
	}
	mo.Counter("row_lock_commands_total").Inc()
	if got := reg.Counter(`row_lock_commands_total{policy="polca"}`).Value(); got != 4 {
		t.Fatalf("MetricsOnly should keep labels; got %d", got)
	}
	// Metrics-less observer derivations collapse to nil.
	to := &Observer{Tracer: tr}
	if to.MetricsOnly() != nil {
		t.Fatal("MetricsOnly with no registry should be nil")
	}
}

func TestProgress(t *testing.T) {
	p := NewProgress(3)
	type doneRec struct {
		name   string
		done   int
		cached bool
	}
	var mu sync.Mutex
	var recs []doneRec
	p.OnDone = func(name string, done, total int, cached bool, elapsed time.Duration) {
		mu.Lock()
		recs = append(recs, doneRec{name, done, cached})
		mu.Unlock()
		if total != 3 {
			t.Errorf("total = %d, want 3", total)
		}
	}
	p.Start("a")
	p.Start("b")
	s := p.Snapshot()
	if s.Done != 0 || len(s.InFlight) != 2 || s.InFlight[0].Name != "a" {
		t.Fatalf("snapshot: %+v", s)
	}
	p.Done("a", false)
	p.Done("b", true)
	p.Start("c")
	p.Done("c", false)
	s = p.Snapshot()
	if s.Done != 3 || s.Cached != 1 || len(s.InFlight) != 0 {
		t.Fatalf("final snapshot: %+v", s)
	}
	if len(recs) != 3 || recs[0] != (doneRec{"a", 1, false}) || recs[1] != (doneRec{"b", 2, true}) {
		t.Fatalf("OnDone records: %+v", recs)
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sweep_points_total").Add(42)
	prog := NewProgress(10)
	prog.Start("fig13/polca")

	h := Handler(reg, prog)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "sweep_points_total 42") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress code = %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if snap.Total != 10 || len(snap.InFlight) != 1 || snap.InFlight[0].Name != "fig13/polca" {
		t.Fatalf("/progress snapshot: %+v", snap)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline code = %d", code)
	}
	// Nil registry and progress must still serve.
	hn := Handler(nil, nil)
	rec := httptest.NewRecorder()
	hn.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("nil /metrics code = %d", rec.Code)
	}
}

func TestWriteProvenance(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProvenance(&buf, Provenance{
		"seed":   int64(42),
		"policy": "polca",
		"t1":     0.85,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "# policy: polca\n# seed: 42\n# t1: 0.85\n"
	if buf.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestGitDescribeDoesNotPanic(t *testing.T) {
	if GitDescribe() == "" {
		t.Fatal("GitDescribe should never be empty")
	}
}

func TestKindString(t *testing.T) {
	if KindCapApply.String() != "cap.apply" {
		t.Fatalf("got %q", KindCapApply.String())
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("got %q", Kind(200).String())
	}
	for k := KindNone; k <= KindGridDone; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestPoolName(t *testing.T) {
	if PoolName(PoolLow) != "low" || PoolName(PoolHigh) != "high" || PoolName(PoolNone) != "" {
		t.Fatal("pool names wrong")
	}
}
