package replay_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/replay"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/trace"
	"polca/internal/workload"
)

// recordedDay runs a faulted serve-mode day (telemetry dropout, a
// controller crash long enough to engage the watchdog, a node death) with
// the decision recorder attached, and returns the written log. The router
// is round-robin — the stateful policy — so route fidelity checks cursor
// reproduction, not just snapshot arithmetic. ctrl is the deployed
// controller; nil deploys the guarded POLCA policy.
func recordedDay(t *testing.T, horizon time.Duration, ctrl cluster.Controller) *replay.Log {
	t.Helper()
	cfg := cluster.Production()
	cfg.BaseServers = 8
	cfg.AddedFraction = 0.30
	cfg.BrakeUtil = 0.90
	cfg.BrakeReleaseUtil = 0.80
	cfg.Serve = &serve.Config{Router: "round-robin"}
	spec, err := faults.Parse("tdrop=0.15,crash=2m+45,kill=1@6m+1m")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = spec
	cfg.WatchdogEpochs = 5
	cfg.OOBRetryBudget = 8
	cfg.OOBRetryBackoff = 4 * time.Second
	cfg.DropStaleOOB = true
	cfg.ServeRetries = 3
	cfg.ServeRetryBackoff = 2 * time.Second

	if ctrl == nil {
		ctrl = polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
	}
	pspec, gspec, err := polca.DescribeController(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewDecisionRecorder()
	rec.UpdateMeta(func(m *obs.DecisionMeta) {
		m.Spec, m.Guard, m.Seed = pspec, gspec, cfg.Seed
	})
	eng := sim.New(cfg.Seed)
	eng.SetObserver(&obs.Observer{Decisions: rec})
	row := cluster.MustRow(eng, cfg, ctrl)

	shape := cfg.Shape()
	rate := 0.95 * float64(cfg.Servers()) / shape.MeanServiceSec
	rates := make([]float64, int(horizon/time.Minute))
	for i := range rates {
		rates[i] = rate
	}
	row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Shape: 32})

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := replay.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSelfReplayFidelity is the acceptance anchor: replaying a recorded
// faulted serve-mode day against its own configuration must reproduce the
// recorded action for 100% of decisions — every cap tick and every router
// pick. Nothing less proves the log carries the policy's full input. The
// guarded policy is loss-aware, so its lost epochs are contact; the plain
// policy is not, so the same dropout replays as watchdog silence.
func TestSelfReplayFidelity(t *testing.T) {
	horizon := 24 * time.Hour
	if testing.Short() {
		horizon = 20 * time.Minute
	}
	for _, tc := range []struct {
		name string
		ctrl cluster.Controller
	}{
		{"guarded", nil},
		{"plain", polca.New(polca.DefaultConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := recordedDay(t, horizon, tc.ctrl)
			if l.Ticks() == 0 || l.Routes() == 0 {
				t.Fatalf("log has %d ticks, %d routes; the fidelity check is vacuous", l.Ticks(), l.Routes())
			}
			lost := 0
			for _, d := range l.Decisions {
				if d.Kind == obs.DecTick && d.Lost {
					lost++
				}
			}
			if lost == 0 {
				t.Fatal("log has no lost epochs; the loss path is not exercised")
			}

			diverged, ticks, err := replay.SelfCheck(l)
			if err != nil {
				t.Fatal(err)
			}
			if ticks != l.Ticks() {
				t.Fatalf("self-check covered %d ticks, log has %d", ticks, l.Ticks())
			}
			if diverged != 0 {
				t.Fatalf("self replay diverged on %d/%d ticks; the log does not carry the policy's full input", diverged, ticks)
			}

			outs, sum, err := replay.ReplayRoutes(l, l.Meta.Router)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != l.Routes() {
				t.Fatalf("route replay covered %d picks, log has %d", len(outs), l.Routes())
			}
			if sum.Diverged != 0 {
				t.Fatalf("self route replay diverged on %d/%d picks", sum.Diverged, sum.Routes)
			}
		})
	}
}

// TestAlternatesDivergeAndPrice: the alternate set must contain policies
// that genuinely diverge from the deployed run, and the regret model must
// price the divergence — no-cap leaves headroom claims on a run where the
// deployed policy capped.
func TestAlternatesDivergeAndPrice(t *testing.T) {
	l := recordedDay(t, 30*time.Minute, nil)
	prof, err := replay.NewProfiler(l.Meta)
	if err != nil {
		t.Fatal(err)
	}
	alts, err := replay.Alternates(l)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var nocap *replay.PolicySummary
	for _, a := range alts {
		names[a.Name] = true
		s := replay.Evaluate(l, a.Name, a.Ctrl, prof, 10)
		if s.Ticks != l.Ticks() {
			t.Fatalf("%s: evaluated %d ticks, log has %d", a.Name, s.Ticks, l.Ticks())
		}
		if a.Name == "deployed" && s.Diverged != 0 {
			t.Fatalf("deployed alternate diverged on %d ticks", s.Diverged)
		}
		if a.Name == "nocap" {
			nocap = s
		}
		if len(s.TopRegret) > 10 {
			t.Fatalf("%s: top-K regret table has %d entries", a.Name, len(s.TopRegret))
		}
		for i := 1; i < len(s.TopRegret); i++ {
			if s.TopRegret[i].Score() > s.TopRegret[i-1].Score() {
				t.Fatalf("%s: regret table not sorted at %d", a.Name, i)
			}
		}
	}
	for _, want := range []string{"deployed", "1t-lowpri", "1t-all", "nocap", "ladder"} {
		if !names[want] {
			t.Errorf("alternate set missing %q", want)
		}
	}
	if nocap == nil || nocap.Diverged == 0 {
		t.Fatal("no-cap never diverged from a capping run")
	}
	if nocap.HeadroomJ+nocap.SavedJ == 0 {
		t.Error("no-cap divergence carries no priced regret")
	}
	if nocap.HeadroomJ > 0 && nocap.LatencyS <= 0 {
		t.Error("headroom left implies the deployed config was capping, which must show as latency burned")
	}

	grid := replay.ThresholdGrid(l, []float64{-0.05, 0, 0.05})
	if len(grid) == 0 {
		t.Fatal("threshold grid is empty for a POLCA log")
	}
	for _, g := range grid {
		if !strings.Contains(g.Name, "T1=") {
			t.Fatalf("grid name %q does not carry thresholds", g.Name)
		}
	}
}

// TestRouterReplayAllPolicies: every registered router must replay over
// the recorded candidate snapshots, and the deployed router must be the
// only one guaranteed divergence-free.
func TestRouterReplayAllPolicies(t *testing.T) {
	l := recordedDay(t, 20*time.Minute, nil)
	anyDiverged := false
	for _, name := range serve.RouterNames() {
		outs, sum, err := replay.ReplayRoutes(l, name)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Routes != l.Routes() || len(outs) != l.Routes() {
			t.Fatalf("%s: covered %d/%d routes", name, sum.Routes, l.Routes())
		}
		if name == l.Meta.Router {
			if sum.Diverged != 0 {
				t.Fatalf("deployed router %s diverged on %d picks", name, sum.Diverged)
			}
		} else if sum.Diverged > 0 {
			anyDiverged = true
		}
		if sum.MeanExcessLoad < 0 {
			t.Fatalf("%s: negative mean excess load", name)
		}
	}
	if !anyDiverged {
		t.Error("no alternate router ever diverged; the comparison is vacuous")
	}
	if _, _, err := replay.ReplayRoutes(l, "bogus"); err == nil {
		t.Error("unknown router accepted")
	}
}

// TestProfilerFactors: capping must slow execution and save busy power,
// uncapped must be the identity, and memoization must be stable.
func TestProfilerFactors(t *testing.T) {
	prof, err := replay.NewProfiler(obs.DecisionMeta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pri := range []workload.Priority{workload.Low, workload.High} {
		tf0, pf0 := prof.Factors(pri, 0)
		if tf0 != 1 || pf0 != 1 {
			t.Fatalf("uncapped factors = %v/%v, want 1/1", tf0, pf0)
		}
		tf, pf := prof.Factors(pri, 1110)
		if tf <= 1 {
			t.Errorf("%v: capping at 1110 MHz must slow execution, tf=%v", pri, tf)
		}
		if pf >= 1 {
			t.Errorf("%v: capping at 1110 MHz must save busy power, pf=%v", pri, pf)
		}
		tf2, pf2 := prof.Factors(pri, 1110)
		if tf2 != tf || pf2 != pf {
			t.Error("memoized factors differ from first computation")
		}
		deepTF, deepPF := prof.Factors(pri, 990)
		if deepTF <= tf || deepPF >= pf {
			t.Errorf("%v: deeper cap must slow more (%v vs %v) and save more (%v vs %v)",
				pri, deepTF, tf, deepPF, pf)
		}
	}
	if _, err := replay.NewProfiler(obs.DecisionMeta{Model: "no-such-model"}); err == nil {
		t.Error("unknown header model accepted")
	}
	if _, err := replay.NewProfiler(obs.DecisionMeta{DType: "fp7"}); err == nil {
		t.Error("unknown header dtype accepted")
	}
}

// TestPerfettoAnnotation: the regret track must be valid Chrome trace JSON
// with one duration slice per top-regret tick plus track metadata.
func TestPerfettoAnnotation(t *testing.T) {
	sums := []*replay.PolicySummary{{
		Name: "nocap",
		TopRegret: []replay.TickRegret{
			{Seq: 7, At: 10 * time.Second, RecLP: 1110, AltLP: 0, HeadroomJ: 900, LatencyS: 1.5},
			{Seq: 9, At: 30 * time.Second, RecLP: 1110, AltLP: 0, SavedJ: 400, BrakeRisk: true},
		},
	}}
	var buf bytes.Buffer
	if err := replay.WritePerfetto(&buf, obs.DecisionMeta{TelemetrySec: 2}, sums); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["dur"].(float64) != 2e6 {
				t.Errorf("slice duration %v µs, want telemetry interval", ev["dur"])
			}
		case "M":
			meta++
		}
	}
	if slices != 2 {
		t.Errorf("%d slices, want 2", slices)
	}
	if meta < 2 {
		t.Errorf("%d metadata rows, want process + track names", meta)
	}
	if !strings.Contains(buf.String(), "brake-risk") {
		t.Error("brake-risk tick not labelled")
	}
}

// TestLoadRejectsTruncation: a log cut mid-stream must fail loudly.
func TestLoadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"schema":"polca-decisions/v2","policy":"x","spec":{"kind":"nocap"},"telemetry_s":2,"servers":1,"lp_servers":1,"provisioned_w":1,"brake_util":1,"brake_release_util":1,"idle_server_w":1,"busy_server_w":1}` + "\n")
	buf.WriteString(`{"seq":1,"t_us":0,"kind":"tick","true_util":0.5,"lp_mhz":0,"hp_mhz":0}` + "\n")
	buf.WriteString(`{"seq":3,"t_us":4000000,"kind":"tick","true_util":0.5,"lp_mhz":0,"hp_mhz":0}` + "\n")
	if _, err := replay.Load(&buf); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not detected: %v", err)
	}
}
