package cluster_test

import (
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

// runObservedRow runs a row with the full observability stack attached —
// tracer, span tracer, metrics registry, TSDB, and the default alert
// ruleset (the -tsdb -rules flag combination) — and returns both the run metrics and
// the row (for in-flight inspection). Attaching everything here means the
// zero-perturbation test below covers the whole pipeline.
func runObservedRow(t *testing.T, cfg cluster.RowConfig, ctrl cluster.Controller,
	busy float64, horizon time.Duration) (*cluster.Metrics, *cluster.Row, *obs.Observer) {
	t.Helper()
	o := &obs.Observer{Tracer: obs.NewTracer(), Spans: obs.NewSpanTracer(), Metrics: obs.NewRegistry()}
	set, err := obs.ParseRules(obs.DefaultRules)
	if err != nil {
		t.Fatal(err)
	}
	o.DB = obs.NewTSDB(obs.TSDBConfig{Step: cfg.TelemetryInterval})
	o.Rules = obs.NewRules(o.DB, set, o.Tracer)
	eng := sim.New(cfg.Seed)
	eng.SetObserver(o)
	row := cluster.MustRow(eng, cfg, ctrl)
	m := row.Run(flatPlan(cfg, busy, horizon))
	return m, row, o
}

// TestTraceReconcilesWithMetrics is the acceptance-criteria anchor: every
// aggregate the run reports must be re-derivable from the event stream.
func TestTraceReconcilesWithMetrics(t *testing.T) {
	cfg := testConfig()
	cfg.AddedFraction = 0.30 // oversubscribed so capping actually happens
	m, row, o := runObservedRow(t, cfg, polca.New(polca.DefaultConfig()), 0.95, 2*time.Hour)
	tr := o.Tracer

	if tr.CountKind(obs.KindOOBIssue) == 0 {
		t.Fatal("expected capping traffic in an oversubscribed hot run")
	}
	// OOB pipeline: issues == LockCommands, fails == FailedCommands, and
	// every issue either landed (apply/release), failed, was dropped as
	// stale (superseded while in flight), or is still in flight.
	if got := tr.CountKind(obs.KindOOBIssue); got != m.LockCommands {
		t.Errorf("oob.issue events = %d, LockCommands = %d", got, m.LockCommands)
	}
	if got := tr.CountKind(obs.KindOOBFail); got != m.FailedCommands {
		t.Errorf("oob.fail events = %d, FailedCommands = %d", got, m.FailedCommands)
	}
	if got := tr.CountKind(obs.KindOOBStale); got != m.StaleOOBDrops {
		t.Errorf("oob.stale events = %d, StaleOOBDrops = %d", got, m.StaleOOBDrops)
	}
	landed := tr.CountKind(obs.KindCapApply) + tr.CountKind(obs.KindCapRelease)
	if got := landed + m.FailedCommands + m.StaleOOBDrops + row.InFlightCommands(); got != m.LockCommands {
		t.Errorf("applies+releases+fails+stale+inflight = %d, want %d issues", got, m.LockCommands)
	}
	// Request lifecycle per pool.
	arrived, completed, dropped := 0, 0, 0
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		arrived += m.Arrived[p]
		completed += m.Completed[p]
		dropped += m.Dropped[p]
	}
	if got := tr.CountKind(obs.KindArrive); got != arrived {
		t.Errorf("req.arrive events = %d, Arrived = %d", got, arrived)
	}
	if got := tr.CountKind(obs.KindComplete); got != completed {
		t.Errorf("req.complete events = %d, Completed = %d", got, completed)
	}
	if got := tr.CountKind(obs.KindDrop); got != dropped {
		t.Errorf("req.drop events = %d, Dropped = %d", got, dropped)
	}
	// Brake engagements.
	if got := tr.CountKind(obs.KindBrakeTrigger); got != m.BrakeEvents {
		t.Errorf("brake.trigger events = %d, BrakeEvents = %d", got, m.BrakeEvents)
	}
	// The metrics registry must agree with the same aggregates.
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["row_oob_commands_total"]; got != int64(m.LockCommands) {
		t.Errorf("row_oob_commands_total = %d, want %d", got, m.LockCommands)
	}
	ctrArrived := snap.Counters[`row_requests_arrived_total{priority="low"}`] +
		snap.Counters[`row_requests_arrived_total{priority="high"}`]
	if ctrArrived != int64(arrived) {
		t.Errorf("arrived counters = %d, want %d", ctrArrived, arrived)
	}
	if snap.Counters["sim_events_dispatched_total"] == 0 {
		t.Error("engine should count dispatched events")
	}
	checkOutcomes(t, m, o)
	hist, ok := snap.Histograms["row_util_seconds"]
	if !ok {
		t.Fatal("row_util_seconds histogram missing")
	}
	wantSec := float64(len(m.Util.Values)) * cfg.TelemetryInterval.Seconds()
	if hist.Total != wantSec {
		t.Errorf("util histogram total = %v s, want %v s", hist.Total, wantSec)
	}
	// Events must be timestamp-ordered (the engine dispatches in order, and
	// emission happens inside handlers).
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event %d out of order: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

// checkOutcomes requires the per-priority completion and drop counters and
// req.complete/req.drop events to agree with Metrics.Completed/Dropped. In
// serve mode every request must also close with a root span, and no
// attempt (request id and retry count) with more than one.
func checkOutcomes(t *testing.T, m *cluster.Metrics, o *obs.Observer) {
	t.Helper()
	if m.Config.Serve != nil {
		type attempt struct {
			req   int64
			retry int32
		}
		roots := map[attempt]int{}
		reqs := map[int64]bool{}
		for _, sp := range o.Spans.Spans() {
			if sp.Kind != obs.SpanRequest {
				continue
			}
			a := attempt{sp.Req, sp.Retry}
			if roots[a]++; roots[a] == 2 {
				t.Errorf("request %d attempt %d has more than one root span", a.req, a.retry)
			}
			reqs[sp.Req] = true
		}
		if arrived := m.Arrived[workload.Low] + m.Arrived[workload.High]; len(reqs) != arrived {
			t.Errorf("%d requests have a root span, %d arrived", len(reqs), arrived)
		}
	}
	snap := o.Metrics.Snapshot()
	events := map[obs.Kind]map[int8]int{obs.KindComplete: {}, obs.KindDrop: {}}
	for _, ev := range o.Tracer.Events() {
		if byPool, ok := events[ev.Kind]; ok {
			byPool[ev.Pool]++
		}
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		lbl := `{priority="` + p.String() + `"}`
		if got := snap.Counters["row_requests_completed_total"+lbl]; got != int64(m.Completed[p]) {
			t.Errorf("row_requests_completed_total%s = %d, Completed = %d", lbl, got, m.Completed[p])
		}
		if got := snap.Counters["row_requests_dropped_total"+lbl]; got != int64(m.Dropped[p]) {
			t.Errorf("row_requests_dropped_total%s = %d, Dropped = %d", lbl, got, m.Dropped[p])
		}
		if got := events[obs.KindComplete][int8(p)]; got != m.Completed[p] {
			t.Errorf("%v req.complete events = %d, Completed = %d", p, got, m.Completed[p])
		}
		if got := events[obs.KindDrop][int8(p)]; got != m.Dropped[p] {
			t.Errorf("%v req.drop events = %d, Dropped = %d", p, got, m.Dropped[p])
		}
	}
}

// TestObservedRunMatchesUnobserved locks the perturbation-free contract at
// the row level: attaching a tracer and registry must not change a single
// simulated aggregate.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := testConfig()
	cfg.AddedFraction = 0.30
	plain := runRow(t, cfg, polca.New(polca.DefaultConfig()), flatPlan(cfg, 0.95, time.Hour))
	observed, _, _ := runObservedRow(t, cfg, polca.New(polca.DefaultConfig()), 0.95, time.Hour)

	if plain.LockCommands != observed.LockCommands ||
		plain.FailedCommands != observed.FailedCommands ||
		plain.BrakeEvents != observed.BrakeEvents ||
		plain.MaxQueueLen != observed.MaxQueueLen {
		t.Fatalf("control aggregates diverged: %+v vs %+v", plain, observed)
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		if plain.Arrived[p] != observed.Arrived[p] ||
			plain.Completed[p] != observed.Completed[p] ||
			plain.Dropped[p] != observed.Dropped[p] {
			t.Fatalf("request aggregates diverged for %v", p)
		}
		if len(plain.LatencySec[p]) != len(observed.LatencySec[p]) {
			t.Fatalf("latency sample counts diverged for %v", p)
		}
		for i := range plain.LatencySec[p] {
			if plain.LatencySec[p][i] != observed.LatencySec[p][i] {
				t.Fatalf("latency sample %d diverged for %v", i, p)
			}
		}
	}
	if len(plain.Util.Values) != len(observed.Util.Values) {
		t.Fatal("utilization series lengths diverged")
	}
	for i := range plain.Util.Values {
		if plain.Util.Values[i] != observed.Util.Values[i] {
			t.Fatalf("utilization sample %d diverged", i)
		}
	}
}
