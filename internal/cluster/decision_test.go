package cluster_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

// runDecisionRow runs a row with only a decision recorder attached (the
// -decisions flag without -trace) and returns the run metrics plus the
// recorder.
func runDecisionRow(t *testing.T, cfg cluster.RowConfig, ctrl cluster.Controller,
	busy float64, horizon time.Duration) (*cluster.Metrics, *obs.DecisionRecorder) {
	t.Helper()
	rec := obs.NewDecisionRecorder()
	o := &obs.Observer{Decisions: rec}
	eng := sim.New(cfg.Seed)
	eng.SetObserver(o)
	row := cluster.MustRow(eng, cfg, ctrl)
	m := row.Run(flatPlan(cfg, busy, horizon))
	return m, rec
}

// faultedServeDecisionConfig is a serve-mode row with enough chaos to
// exercise every tick flag the recorder captures: telemetry loss, a
// controller crash (down + reset + watchdog), and a node death.
func faultedServeDecisionConfig(t *testing.T) cluster.RowConfig {
	t.Helper()
	cfg := serveFTConfig(t, "tdrop=0.15,crash=2m+45,kill=1@6m+1m")
	return cfg
}

// TestDecisionRecordingDoesNotPerturb locks the observability contract for
// the new recorder: attaching it to a fully faulted serve-mode run must not
// change a single simulated aggregate — recording reads row state, never
// writes it.
func TestDecisionRecordingDoesNotPerturb(t *testing.T) {
	cfg := faultedServeDecisionConfig(t)
	mk := func() cluster.Controller {
		return polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
	}
	plain := runRow(t, cfg, mk(), flatPlan(cfg, 0.95, 10*time.Minute))
	recorded, rec := runDecisionRow(t, cfg, mk(), 0.95, 10*time.Minute)
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing; the comparison is vacuous")
	}
	if !reflect.DeepEqual(plain.Util.Values, recorded.Util.Values) {
		t.Error("recording changed the utilization series")
	}
	if plain.LockCommands != recorded.LockCommands ||
		plain.FailedCommands != recorded.FailedCommands ||
		plain.BrakeEvents != recorded.BrakeEvents ||
		plain.WatchdogEngagements != recorded.WatchdogEngagements ||
		plain.NodeDeaths != recorded.NodeDeaths ||
		plain.ServeRetries != recorded.ServeRetries {
		t.Errorf("recording changed control aggregates: %+v vs %+v", plain, recorded)
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		if plain.Arrived[p] != recorded.Arrived[p] ||
			plain.Completed[p] != recorded.Completed[p] ||
			plain.Dropped[p] != recorded.Dropped[p] {
			t.Fatalf("recording changed request aggregates for %v", p)
		}
	}
}

// TestDecisionLogCapturesFaultedServeRun exercises the full recording path
// end to end: a faulted serve-mode day produces tick decisions carrying
// every outage flag, route decisions with candidate snapshots, a header
// describing the row, and a JSONL round trip that preserves all of it.
func TestDecisionLogCapturesFaultedServeRun(t *testing.T) {
	cfg := faultedServeDecisionConfig(t)
	ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
	m, rec := runDecisionRow(t, cfg, ctrl, 0.95, 10*time.Minute)

	meta := rec.Meta()
	if meta.Policy != ctrl.Name() {
		t.Errorf("meta.Policy = %q, want %q", meta.Policy, ctrl.Name())
	}
	if meta.Servers != cfg.Servers() || meta.LPServers+meta.HPServers != cfg.Servers() {
		t.Errorf("meta servers %d (%d LP + %d HP), want %d",
			meta.Servers, meta.LPServers, meta.HPServers, cfg.Servers())
	}
	if !meta.Serve || meta.Router != "least-queue" {
		t.Errorf("meta serve/router = %v/%q, want true/least-queue", meta.Serve, meta.Router)
	}
	if meta.TelemetrySec != cfg.TelemetryInterval.Seconds() {
		t.Errorf("meta.TelemetrySec = %v, want %v", meta.TelemetrySec, cfg.TelemetryInterval.Seconds())
	}
	if meta.WatchdogEpochs != cfg.WatchdogEpochs {
		t.Errorf("meta.WatchdogEpochs = %d, want %d", meta.WatchdogEpochs, cfg.WatchdogEpochs)
	}
	if meta.ProvisionedW != cfg.ProvisionedWatts() || meta.BrakeUtil != cfg.BrakeUtil {
		t.Error("meta power-model constants do not match the config")
	}

	recs, arena := rec.Decisions()
	ticks, routes := 0, 0
	var delivered, lost, down, reset, wd int
	for i, d := range recs {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d, want %d", i, d.Seq, i+1)
		}
		switch d.Kind {
		case obs.DecTick:
			ticks++
			if d.Delivered {
				delivered++
			}
			if d.Lost {
				lost++
			}
			if d.Down {
				down++
			}
			if d.Reset {
				reset++
			}
			if d.Watchdog {
				wd++
			}
		case obs.DecRoute:
			routes++
			cands := d.Candidates(arena)
			if len(cands) == 0 != (d.Chosen < 0) {
				t.Fatalf("route %d: %d candidates but chosen %d", i, len(cands), d.Chosen)
			}
			if d.Chosen >= int32(len(cands)) {
				t.Fatalf("route %d: chosen %d out of range (%d candidates)", i, d.Chosen, len(cands))
			}
		}
	}
	if ticks != len(m.Util.Values) {
		t.Errorf("recorded %d tick decisions, want one per telemetry sample (%d)", ticks, len(m.Util.Values))
	}
	if routes == 0 {
		t.Fatal("no route decisions recorded in serve mode")
	}
	if delivered == 0 || lost == 0 || down == 0 || reset == 0 || wd == 0 {
		t.Errorf("fault flags missing from the log: delivered=%d lost=%d down=%d reset=%d wd=%d",
			delivered, lost, down, reset, wd)
	}

	// JSONL round trip: everything the recorder holds survives the wire.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []obs.Decision
	var gotCands [][]obs.RouteCandidate
	meta2, err := obs.ScanDecisions(&buf, nil, func(d obs.Decision, cands []obs.RouteCandidate) error {
		got = append(got, d)
		gotCands = append(gotCands, append([]obs.RouteCandidate(nil), cands...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	meta.Schema = obs.DecisionSchema
	if !reflect.DeepEqual(meta2, meta) {
		t.Errorf("meta did not round-trip:\n got %+v\nwant %+v", meta2, meta)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip returned %d decisions, want %d", len(got), len(recs))
	}
	for i := range recs {
		want, wantCands := recs[i], recs[i].Candidates(arena)
		// Arena offsets are scanner-local; compare the resolved snapshots.
		// The wire carries microseconds (t_us), so truncate the expectation.
		want.EpOff, got[i].EpOff = 0, 0
		want.At = want.At / time.Microsecond * time.Microsecond
		if want != got[i] {
			t.Fatalf("decision %d did not round-trip:\n got %+v\nwant %+v", i, got[i], want)
		}
		if !reflect.DeepEqual(wantCands, gotCands[i]) && len(wantCands)+len(gotCands[i]) > 0 {
			t.Fatalf("decision %d candidates did not round-trip", i)
		}
	}
}

// TestDecisionRecorderDroppedBySweepObserver: MetricsOnly must strip the
// recorder, so sweep executors sharing an observer never interleave decision
// streams from parallel rows.
func TestDecisionRecorderDroppedBySweepObserver(t *testing.T) {
	o := &obs.Observer{Decisions: obs.NewDecisionRecorder(), Metrics: obs.NewRegistry()}
	if mo := o.MetricsOnly(); mo.DecisionLog() != nil {
		t.Error("MetricsOnly kept the decision recorder")
	}
}
