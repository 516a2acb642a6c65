package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testDB returns a small TSDB: 1s raw step, one 10s rollup window, tiny
// rings so eviction is easy to reach.
func testDB(capacity int) *TSDB {
	return NewTSDB(TSDBConfig{
		Step:     time.Second,
		Windows:  []time.Duration{10 * time.Second},
		Capacity: capacity,
	})
}

func TestBucketDownsampleSemantics(t *testing.T) {
	db := testDB(8)
	s := db.Series("sig", LevelRow)

	// Two samples in raw bucket [0,1s), one in [1s,2s).
	s.Observe(0, 4)
	s.Observe(500*time.Millisecond, 2)
	s.Observe(time.Second, 9)

	raw := s.Buckets(time.Second)
	if len(raw) != 2 {
		t.Fatalf("raw buckets = %d, want 2", len(raw))
	}
	b0 := raw[0]
	if b0.Min != 2 || b0.Max != 4 || b0.Mean() != 3 || b0.Last != 2 || b0.Count != 2 {
		t.Errorf("bucket0 = %+v, want min 2 max 4 mean 3 last 2 count 2", b0)
	}
	// The 10s rollup absorbs all three samples into one open bucket.
	coarse := s.Buckets(10 * time.Second)
	if len(coarse) != 1 {
		t.Fatalf("10s buckets = %d, want 1", len(coarse))
	}
	if c := coarse[0]; c.Min != 2 || c.Max != 9 || c.Count != 3 || c.Last != 9 {
		t.Errorf("10s bucket = %+v, want min 2 max 9 last 9 count 3", c)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	db := testDB(4)
	s := db.Series("sig", LevelRow)
	// 6 sealed raw buckets + 1 open; capacity 4 keeps the newest 4 sealed.
	for i := 0; i <= 6; i++ {
		s.Observe(time.Duration(i)*time.Second, float64(i))
	}
	raw := s.Buckets(time.Second)
	if len(raw) != 5 { // 4 sealed + open
		t.Fatalf("raw buckets = %d, want 5", len(raw))
	}
	if raw[0].Start != 2*time.Second || raw[len(raw)-1].Start != 6*time.Second {
		t.Errorf("retained window [%v,%v], want [2s,6s]", raw[0].Start, raw[len(raw)-1].Start)
	}
	// t=0 fell off the raw ring but the open 10s rollup bucket [0,10s)
	// still covers it; its Last is the newest sample in the window.
	if v, ok := s.ValueAt(0); !ok || v != 6 {
		t.Errorf("ValueAt(0) = %v,%v, want 6,true (10s rollup)", v, ok)
	}
}

func TestValueAtPrefersFinestResolution(t *testing.T) {
	db := testDB(4)
	s := db.Series("sig", LevelRow)
	for i := 0; i <= 6; i++ {
		s.Observe(time.Duration(i)*time.Second, float64(i))
	}
	// t=3s is retained raw: exact per-second value.
	if v, ok := s.ValueAt(3 * time.Second); !ok || v != 3 {
		t.Errorf("ValueAt(3s) = %v,%v, want 3,true", v, ok)
	}
	// t=1s was evicted from raw; the open 10s bucket covers it but its
	// Last reflects the newest sample in the window — coarser, still
	// available.
	if v, ok := s.ValueAt(time.Second); !ok || v != 6 {
		t.Errorf("ValueAt(1s) = %v,%v, want 6,true (coarse bucket last)", v, ok)
	}
	// Future time: not covered.
	if _, ok := s.ValueAt(time.Hour); ok {
		t.Error("ValueAt(1h) = ok, want false")
	}
}

func TestRollupHierarchySumAndMax(t *testing.T) {
	db := testDB(8)
	// Register in the cluster's order: site, then row, then servers —
	// Flush walks reverse registration order so aggregates propagate
	// upward in one call.
	site := db.Series("site.power", LevelSite, WithUnit("W"))
	row := db.Series("row.power", LevelRow, WithParent(site, AggSum), WithUnit("W"))
	s1 := db.Series(`server.power{server="0"}`, LevelServer, WithParent(row, AggSum))
	s2 := db.Series(`server.power{server="1"}`, LevelServer, WithParent(row, AggSum))

	s1.Observe(0, 10)
	s2.Observe(0, 20)
	s1.Observe(time.Second, 11)
	s2.Observe(time.Second, 21)
	db.Flush()

	if v, ok := row.Last(); !ok || v != 32 {
		t.Errorf("row.Last = %v,%v, want 32,true", v, ok)
	}
	if v, ok := site.Last(); !ok || v != 32 {
		t.Errorf("site.Last = %v,%v, want 32,true", v, ok)
	}
	// The first step's aggregate is retained at t=0.
	if v, ok := row.ValueAt(0); !ok || v != 30 {
		t.Errorf("row.ValueAt(0) = %v,%v, want 30,true", v, ok)
	}
	if v, ok := site.ValueAt(0); !ok || v != 30 {
		t.Errorf("site.ValueAt(0) = %v,%v, want 30,true", v, ok)
	}
	// Flush is idempotent: a second call must not double-ingest.
	db.Flush()
	if b := row.Buckets(time.Second); len(b) != 2 {
		t.Errorf("row raw buckets after double flush = %d, want 2", len(b))
	}

	// Max rollup: first child's Agg wins for the parent.
	rowCap := db.Series("row.capmhz", LevelRow)
	c1 := db.Series(`server.capmhz{server="0"}`, LevelServer, WithParent(rowCap, AggMax))
	c2 := db.Series(`server.capmhz{server="1"}`, LevelServer, WithParent(rowCap, AggMax))
	c1.Observe(0, 1200)
	c2.Observe(0, 1980)
	db.Flush()
	if v, ok := rowCap.Last(); !ok || v != 1980 {
		t.Errorf("rowCap.Last = %v,%v, want 1980,true (max)", v, ok)
	}
}

func TestCounterAddAndDeltaOver(t *testing.T) {
	db := testDB(32)
	c := db.Series("row.req_total", LevelRow, CounterSeries())
	if !c.IsCounter() {
		t.Fatal("CounterSeries not applied")
	}
	for i := 0; i < 20; i++ {
		c.Add(time.Duration(i)*time.Second, 2) // +2/s
	}
	now := 19 * time.Second
	if d, ok := c.DeltaOver(now, 10*time.Second); !ok || d != 20 {
		t.Errorf("DeltaOver(10s) = %v,%v, want 20,true", d, ok)
	}
	// Window reaching before t=0: unretained.
	if _, ok := c.DeltaOver(5*time.Second, 10*time.Second); ok {
		t.Error("DeltaOver with pre-run window start = ok, want false")
	}
	if _, ok := c.DeltaOver(now, 0); ok {
		t.Error("DeltaOver(0) = ok, want false")
	}
}

func TestSeriesRegistrationIdempotent(t *testing.T) {
	db := testDB(8)
	a := db.Series("sig", LevelRow, WithUnit("W"))
	b := db.Series("sig", LevelSite, WithUnit("MHz")) // options ignored
	if a != b {
		t.Fatal("re-registration returned a different series")
	}
	if a.Unit() != "W" || a.Level() != LevelRow {
		t.Errorf("first registration's options lost: unit=%q level=%v", a.Unit(), a.Level())
	}
	if db.NumSeries() != 1 {
		t.Errorf("NumSeries = %d, want 1", db.NumSeries())
	}
	if db.Lookup("sig") != a || db.Lookup("nope") != nil {
		t.Error("Lookup mismatch")
	}
}

func TestTSDBNilSafety(t *testing.T) {
	var db *TSDB
	if db.Enabled() || db.Step() != 0 || db.Windows() != nil || db.NumSeries() != 0 || db.MemoryBytes() != 0 {
		t.Error("nil TSDB accessors not zero")
	}
	db.Flush()
	db.Each(func(*TSSeries) { t.Error("Each on nil db called fn") })
	if db.Series("x", LevelRow) != nil || db.Lookup("x") != nil {
		t.Error("nil db Series/Lookup not nil")
	}
	if err := db.WritePrometheus(nil, ""); err != nil {
		t.Error(err)
	}
	if err := db.WriteChromeTrace(nil, time.Second); err != nil {
		t.Error(err)
	}

	var s *TSSeries
	s.Observe(0, 1)
	s.Add(0, 1)
	if _, ok := s.Last(); ok {
		t.Error("nil series Last ok")
	}
	if s.LastTime() != 0 || s.Name() != "" || s.Unit() != "" || s.IsCounter() {
		t.Error("nil series accessors not zero")
	}
	if _, ok := s.ValueAt(0); ok {
		t.Error("nil series ValueAt ok")
	}
	if _, ok := s.DeltaOver(time.Second, time.Second); ok {
		t.Error("nil series DeltaOver ok")
	}
	if s.Buckets(time.Second) != nil {
		t.Error("nil series Buckets not nil")
	}
}

// TestTSDBMemoryIndependentOfRunLength is the acceptance criterion: the
// retained footprint is fixed at registration and does not grow with the
// number of observations (a 7-day run retains the same bytes as a 1-hour
// run).
func TestTSDBMemoryIndependentOfRunLength(t *testing.T) {
	build := func(ticks int) int {
		db := NewTSDB(TSDBConfig{Step: 2 * time.Second})
		site := db.Series("site.power", LevelSite)
		row := db.Series("row.power", LevelRow, WithParent(site, AggSum))
		srv := make([]*TSSeries, 16)
		for i := range srv {
			srv[i] = db.Series("server.power{server=\""+string(rune('a'+i))+"\"}",
				LevelServer, WithParent(row, AggSum), WithCapacity(128))
		}
		for tick := 0; tick < ticks; tick++ {
			at := time.Duration(tick) * 2 * time.Second
			for _, s := range srv {
				s.Observe(at, 400)
			}
		}
		db.Flush()
		return db.MemoryBytes()
	}
	short := build(100)       // ~3 sim-minutes
	long := build(7 * 43_200) // 7 sim-days of 2s ticks
	if short != long {
		t.Errorf("MemoryBytes grew with run length: %d (short) vs %d (long)", short, long)
	}
	if short == 0 {
		t.Error("MemoryBytes = 0, want positive")
	}
}

// TestTSDBIngestSteadyStateZeroAlloc pins the zero-perturbation ingest
// property: after registration and first ring wrap, Observe and Add do not
// allocate. CI enforces the same property via BenchmarkTSDBIngest's
// allocs/op.
func TestTSDBIngestSteadyStateZeroAlloc(t *testing.T) {
	db := testDB(16)
	row := db.Series("row.power", LevelRow)
	srv := db.Series("server.power", LevelServer, WithParent(row, AggSum))
	ctr := db.Series("row.req_total", LevelRow, CounterSeries())

	// Warm past every ring's wrap point (10s window × 16 buckets = 160s).
	at := time.Duration(0)
	for i := 0; i < 400; i++ {
		at += time.Second
		srv.Observe(at, float64(i))
		ctr.Add(at, 1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at += time.Second
		srv.Observe(at, 512)
		ctr.Add(at, 1)
		db.Flush()
	})
	if allocs != 0 {
		t.Errorf("steady-state ingest allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestTSDBWritePrometheus(t *testing.T) {
	db := testDB(8)
	site := db.Series("site.power", LevelSite, WithUnit("W"))
	row := db.Series("row.power", LevelRow, WithParent(site, AggSum))
	srv := db.Series(`server.power{server="3"}`, LevelServer, WithParent(row, AggSum))
	ctr := db.Series("row.oob-fail_total", LevelRow, CounterSeries())
	srv.Observe(0, 420.5)
	ctr.Add(0, 3)
	db.Series("row.silent", LevelRow) // never observed: omitted
	srv.Observe(time.Second, 421)
	db.Flush()

	var b strings.Builder
	if err := db.WritePrometheus(&b, `policy="polca"`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# TYPE server_power gauge\n",
		`server_power{server="3",level="server",policy="polca"} 421`,
		"# TYPE row_oob_fail_total counter\n",
		`row_oob_fail_total{level="row",policy="polca"} 3`,
		`row_power{level="row",policy="polca"} 421`,
		`site_power{level="site",policy="polca"} 421`,
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "row_silent") {
		t.Errorf("exposition contains never-observed series:\n%s", out)
	}
	// Determinism: two renders are identical.
	var b2 strings.Builder
	if err := db.WritePrometheus(&b2, `policy="polca"`); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("WritePrometheus not deterministic")
	}
}

func TestTSDBWriteChromeTrace(t *testing.T) {
	db := testDB(8)
	site := db.Series("site.power", LevelSite)
	row := db.Series("row.power", LevelRow, WithParent(site, AggSum))
	srv := db.Series(`server.power{server="0"}`, LevelServer, WithParent(row, AggSum))
	for i := 0; i < 5; i++ {
		srv.Observe(time.Duration(i)*time.Second, 400+float64(i))
	}
	var b strings.Builder
	if err := db.WriteChromeTrace(&b, time.Second); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`"name":"process_name"`, `"tsdb:site"`, `"tsdb:row"`, `"tsdb:server"`,
		`"ph":"C"`, `"server.power{server=\"0\"}"`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("chrome trace missing %q:\n%s", w, out)
		}
	}

	// Every counter row sits in the process named after its series' level.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"].(string)
		}
	}
	levels := map[string]Level{}
	for _, s := range []*TSSeries{site, row, srv} {
		levels[s.Name()] = s.Level()
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		counters++
		if want := "tsdb:" + levels[ev.Name].String(); procs[ev.Pid] != want {
			t.Errorf("counter %q in pid %d named %q, want %q", ev.Name, ev.Pid, procs[ev.Pid], want)
		}
	}
	if counters == 0 {
		t.Fatal("no counter rows")
	}
}

// BenchmarkTSDBIngest is part of the CI benchmark trajectory; CI fails the
// build if allocs/op is nonzero (the observability tax on the hot sim loop
// must stay fixed-cost).
func BenchmarkTSDBIngest(b *testing.B) {
	db := NewTSDB(TSDBConfig{Step: 2 * time.Second})
	site := db.Series("site.power", LevelSite)
	row := db.Series("row.power", LevelRow, WithParent(site, AggSum))
	srv := make([]*TSSeries, 16)
	for i := range srv {
		srv[i] = db.Series("server.power{server=\""+string(rune('a'+i))+"\"}",
			LevelServer, WithParent(row, AggSum), WithCapacity(128))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * 2 * time.Second
		for _, s := range srv {
			s.Observe(at, float64(i&1023))
		}
		db.Flush()
	}
}
