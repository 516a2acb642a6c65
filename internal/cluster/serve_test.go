package cluster_test

import (
	"sort"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

// serveConfig returns a small serve-mode row.
func serveConfig() cluster.RowConfig {
	cfg := testConfig()
	cfg.Serve = &serve.Config{}
	return cfg
}

func TestServeConfigAccessors(t *testing.T) {
	cfg := serveConfig()
	eng := sim.New(cfg.Seed)
	row := cluster.MustRow(eng, cfg, &recordingCtrl{})
	sc := row.ServeConfig()
	if sc == nil {
		t.Fatal("ServeConfig() = nil in serve mode")
	}
	// The serving model defaults to the row's model with resolved defaults.
	if sc.Model.Name != cfg.Model.Name || sc.MaxBatchSize != 32 || sc.Router != "least-queue" {
		t.Errorf("resolved serve config = %+v", sc)
	}
	slot := testConfig()
	row2 := cluster.MustRow(sim.New(1), slot, &recordingCtrl{})
	if row2.ServeConfig() != nil {
		t.Error("ServeConfig() non-nil in slot mode")
	}
}

func TestServeConfigValidation(t *testing.T) {
	cfg := serveConfig()
	cfg.Serve.Router = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an unknown serve router")
	}
	cfg = serveConfig()
	cfg.Serve.DecodeStride = -1
	if _, err := cluster.NewRow(sim.New(1), cfg, &recordingCtrl{}); err == nil {
		t.Error("NewRow accepted a bad serve config")
	}
}

// TestServeRowCalibration runs the same steady-state arrivals through the
// slot backend and the serving backend and requires the row-level
// aggregates to agree: same completion count (both backends are
// work-conserving and unsaturated at 60% busy) and a mean power within a
// few percent. The tails legitimately differ — the serving backend batches
// requests, so its power flips between loaded iterations and idle gaps
// where the slot model spreads each request's power over its own span, and
// queueing latencies are not comparable (batched residency vs exclusive
// service). Only the means are expected to line up.
func TestServeRowCalibration(t *testing.T) {
	slotCfg := testConfig()
	plan := flatPlan(slotCfg, 0.6, 2*time.Hour)
	slot := runRow(t, slotCfg, &recordingCtrl{}, plan)
	srv := runRow(t, serveConfig(), &recordingCtrl{}, plan)

	// The arrival process is backend-independent, but the priority coin
	// shares the dispatch RNG stream with slot-mode server selection, so
	// only the totals are comparable across backends.
	slotArr := slot.Arrived[workload.Low] + slot.Arrived[workload.High]
	srvArr := srv.Arrived[workload.Low] + srv.Arrived[workload.High]
	if slotArr != srvArr {
		t.Fatalf("total arrivals differ (%d vs %d): backends saw different workloads", slotArr, srvArr)
	}
	slotDone := slot.Completed[workload.Low] + slot.Completed[workload.High]
	srvDone := srv.Completed[workload.Low] + srv.Completed[workload.High]
	if srvDone < slotDone*98/100 || srvDone > slotDone*102/100 {
		t.Errorf("completions: slot %d, serve %d (> 2%% apart)", slotDone, srvDone)
	}
	slotMean, srvMean := slot.Util.Mean(), srv.Util.Mean()
	diff := srvMean - slotMean
	if diff < 0 {
		diff = -diff
	}
	t.Logf("mean util: slot %.3f serve %.3f; serve p99 %.3f batches %d",
		slotMean, srvMean, srv.Util.Peak(), srv.Serve.Batches)
	if diff > 0.08 {
		t.Errorf("mean util: slot %.3f, serve %.3f — diverges beyond 0.08", slotMean, srvMean)
	}

	// Serving-only aggregates must be populated and internally consistent.
	if srv.Serve.Batches == 0 || srv.Serve.DecodeTokens == 0 {
		t.Fatalf("serve stats empty: %+v", srv.Serve)
	}
	if srv.Serve.KVReservedTokens != srv.Serve.KVFreedTokens {
		t.Errorf("row-wide KV ledger leaked: reserved %d, freed %d",
			srv.Serve.KVReservedTokens, srv.Serve.KVFreedTokens)
	}
	if len(srv.TTFT) == 0 || len(srv.TBT) == 0 {
		t.Error("serve mode recorded no token latencies")
	}
	if srv.Serve.EnergyJ <= 0 {
		t.Error("serve mode attributed no energy to requests")
	}
	if slot.Serve.Batches != 0 || slot.TTFT != nil {
		t.Error("slot mode leaked serving metrics")
	}
}

// TestServeTraceReconciles extends the observability acceptance test to the
// serving backend: every scheduler aggregate must be re-derivable from the
// event stream.
func TestServeTraceReconciles(t *testing.T) {
	cfg := serveConfig()
	cfg.AddedFraction = 0.30
	m, _, o := runObservedRow(t, cfg, &recordingCtrl{}, 0.9, time.Hour)
	tr := o.Tracer

	if got := tr.CountKind(obs.KindBatchForm); got != m.Serve.Batches {
		t.Errorf("batch.form events = %d, Serve.Batches = %d", got, m.Serve.Batches)
	}
	if got := tr.CountKind(obs.KindPreempt); got != m.Serve.Preemptions {
		t.Errorf("preempt events = %d, Serve.Preemptions = %d", got, m.Serve.Preemptions)
	}
	if got := tr.CountKind(obs.KindKVHighWater); got != m.Serve.KVHighWaterEvents {
		t.Errorf("kv.highwater events = %d, Serve.KVHighWaterEvents = %d", got, m.Serve.KVHighWaterEvents)
	}
	completed := m.Completed[workload.Low] + m.Completed[workload.High]
	if got := tr.CountKind(obs.KindComplete); got != completed {
		t.Errorf("req.complete events = %d, Completed = %d", got, completed)
	}
	dropped := m.Dropped[workload.Low] + m.Dropped[workload.High]
	if got := tr.CountKind(obs.KindDrop); got != dropped {
		t.Errorf("req.drop events = %d, Dropped = %d", got, dropped)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["serve_batches_total"]; got != int64(m.Serve.Batches) {
		t.Errorf("serve_batches_total = %d, want %d", got, m.Serve.Batches)
	}
	if got := snap.Counters["serve_preemptions_total"]; got != int64(m.Serve.Preemptions) {
		t.Errorf("serve_preemptions_total = %d, want %d", got, m.Serve.Preemptions)
	}
	checkOutcomes(t, m, o)
}

// TestFaultedOutcomesReconcile drives every drop path under node-kill
// faults — in slot mode node death and a full front buffer; in serve mode
// node death inside a replica, a full replica queue, and (with retries
// armed) an exhausted retry budget — and requires the outcome counters,
// events and root spans to agree with the metrics.
func TestFaultedOutcomesReconcile(t *testing.T) {
	slot := testConfig()
	srv := serveConfig()
	srv.Serve.MaxBatchSize = 2
	srv.Serve.QueueCap = 1
	retry := srv
	retry.ServeRetries = 1
	retry.ServeRetryBackoff = 2 * time.Second
	for _, tc := range []struct {
		name string
		cfg  cluster.RowConfig
		// drops and retries list the req.drop and req.retry reasons
		// the run must produce.
		drops, retries []string
	}{
		{"slot", slot, []string{"node-death", "buffer-full"}, nil},
		{"serve", srv, []string{"node-death", "queue-full"}, nil},
		{"serve-retry", retry, []string{"retry-exhausted"}, []string{"node-death", "queue-full"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.AddedFraction = 0.30
			cfg.Faults = mustSpec(t, "kill=6@8m+4m")
			m, _, o := runObservedRow(t, cfg, &recordingCtrl{}, 0.95, 20*time.Minute)
			if totals(m.Dropped) == 0 {
				t.Fatal("faulted run dropped nothing")
			}
			reasons := map[obs.Kind]map[string]int{obs.KindDrop: {}, obs.KindRetry: {}}
			for _, ev := range o.Tracer.Events() {
				if byReason, ok := reasons[ev.Kind]; ok {
					byReason[ev.Reason]++
				}
			}
			for kind, want := range map[obs.Kind][]string{obs.KindDrop: tc.drops, obs.KindRetry: tc.retries} {
				for _, reason := range want {
					if reasons[kind][reason] == 0 {
						t.Errorf("no %s %s event: the path is not exercised (have %v)", reason, kind, reasons[kind])
					}
				}
			}
			if totals(m.Arrived) != totals(m.Completed)+totals(m.Dropped) {
				t.Errorf("arrived %d != completed %d + dropped %d",
					totals(m.Arrived), totals(m.Completed), totals(m.Dropped))
			}
			checkOutcomes(t, m, o)
		})
	}
}

// TestServeNodeDeathDropsInFlight kills servers mid-run and checks the
// serving backend accounts for every request: arrivals equal completions
// plus drops, and the KV reservations of killed sequences are released.
func TestServeNodeDeathDropsInFlight(t *testing.T) {
	cfg := serveConfig()
	cfg.Faults = faults.Spec{
		Kills: []faults.Kill{{Servers: 2, Window: faults.Window{Start: 10 * time.Minute, Dur: 20 * time.Minute}}},
	}
	m := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.6, time.Hour))

	dropped := m.Dropped[workload.Low] + m.Dropped[workload.High]
	if dropped == 0 {
		t.Fatal("killing 2 servers for 20 minutes dropped nothing")
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		if m.Arrived[p] != m.Completed[p]+m.Dropped[p] {
			t.Errorf("pool %v: arrived %d != completed %d + dropped %d",
				p, m.Arrived[p], m.Completed[p], m.Dropped[p])
		}
	}
	if m.Serve.KVReservedTokens != m.Serve.KVFreedTokens {
		t.Errorf("KV leaked across node death: reserved %d, freed %d",
			m.Serve.KVReservedTokens, m.Serve.KVFreedTokens)
	}
}

// TestServeDeterminism requires byte-identical serve-mode reruns for every
// router policy, including the power-aware one that reads OOB cap state.
func TestServeDeterminism(t *testing.T) {
	for _, router := range serve.RouterNames() {
		cfg := serveConfig()
		cfg.AddedFraction = 0.30
		cfg.Serve.Router = router
		run := func() *cluster.Metrics {
			return runRow(t, cfg, &recordingCtrl{lockLP: 1100}, flatPlan(cfg, 0.8, 30*time.Minute))
		}
		a, b := run(), run()
		if a.Serve != b.Serve {
			t.Errorf("%s: serve stats differ:\n%+v\n%+v", router, a.Serve, b.Serve)
		}
		for i := range a.Util.Values {
			if a.Util.Values[i] != b.Util.Values[i] {
				t.Fatalf("%s: power series differs at sample %d", router, i)
			}
		}
		for class, xs := range a.TTFT {
			ys := b.TTFT[class]
			if ys == nil || xs.Count() != ys.Count() {
				t.Fatalf("%s: TTFT sample counts differ for %s", router, class)
			}
			for _, p := range []float64{50, 99} {
				if xs.Percentile(p) != ys.Percentile(p) {
					t.Fatalf("%s: TTFT p%.0f differs for %s", router, p, class)
				}
			}
			if a.ClassEnergyJ[class] != b.ClassEnergyJ[class] {
				t.Fatalf("%s: class energy differs for %s", router, class)
			}
		}
	}
}

// TestServeCappingSlowsTokens is the serving-backend version of the
// capping-latency check: locking the low-priority pool's clocks stretches
// that pool's iterations, so low-priority requests take visibly longer
// while the high-priority pool stays comparatively unaffected. (The run is
// unsaturated and drains fully, so completion counts cannot show the
// slowdown — latency does.)
func TestServeCappingSlowsTokens(t *testing.T) {
	cfg := serveConfig()
	base := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.6, time.Hour))
	capped := runRow(t, cfg, &recordingCtrl{lockLP: 960}, flatPlan(cfg, 0.6, time.Hour))

	lpBase := stats.Percentile(base.LatencySec[workload.Low], 50)
	lpCapped := stats.Percentile(capped.LatencySec[workload.Low], 50)
	if lpCapped < lpBase*1.05 {
		t.Errorf("LP p50 latency %.2fs → %.2fs under a 960 MHz lock, expected ≥ 5%% slower",
			lpBase, lpCapped)
	}
	hpBase := stats.Percentile(base.LatencySec[workload.High], 50)
	hpCapped := stats.Percentile(capped.LatencySec[workload.High], 50)
	if hpCapped > hpBase*1.05 {
		t.Errorf("HP p50 latency %.2fs → %.2fs despite an LP-only cap", hpBase, hpCapped)
	}
	t.Logf("p50 latency: LP %.2fs → %.2fs, HP %.2fs → %.2fs", lpBase, lpCapped, hpBase, hpCapped)
}

// drainPlan is flatPlan followed by a zero-rate tail so every replica
// drains before the horizon — the instant at which per-request energy
// attribution must equal the integrated replica energy exactly.
func drainPlan(cfg cluster.RowConfig, busy float64, active, tail time.Duration) trace.RatePlan {
	p := flatPlan(cfg, busy, active+tail)
	for i := int(active / time.Minute); i < len(p.Rates); i++ {
		p.Rates[i] = 0
	}
	return p
}

// TestServeSpanConservation is the row-level acceptance test for energy
// attribution: run the serving backend to drain with span tracing on, under
// no-cap and under an LP clock lock, with the KV budget squeezed so
// preemptions occur, and require (1) the root spans' energies sum to the
// replica-integrated row energy, (2) the per-class energy accounting agrees
// with both, and (3) the report's sketch-derived p99 TTFT is reproducible
// from the span JSONL alone (the polca-analyze contract).
func TestServeSpanConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctrl cluster.Controller
	}{
		{"nocap", &recordingCtrl{}},
		{"capped", &recordingCtrl{lockLP: 1005}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serveConfig()
			// Squeeze the KV budget so the scenario exercises preemption
			// and recompute attribution, not just the happy path.
			cfg.Serve.GPUMemUtil = 0.62
			o := &obs.Observer{Spans: obs.NewSpanTracer(), Metrics: obs.NewRegistry()}
			eng := sim.New(cfg.Seed)
			eng.SetObserver(o)
			row := cluster.MustRow(eng, cfg, tc.ctrl)
			m := row.Run(drainPlan(cfg, 0.8, 30*time.Minute, 60*time.Minute))

			for _, p := range []workload.Priority{workload.Low, workload.High} {
				if m.Arrived[p] != m.Completed[p]+m.Dropped[p] {
					t.Fatalf("pool %v not drained: %d arrived, %d completed, %d dropped",
						p, m.Arrived[p], m.Completed[p], m.Dropped[p])
				}
			}
			if m.Serve.Preemptions == 0 {
				t.Error("squeezed KV budget produced no preemptions — scenario lost its stress")
			}

			spans := o.Spans.Spans()
			var rootJ, rootCapSec float64
			ttftByClass := map[string][]float64{}
			roots := 0
			for _, sp := range spans {
				if sp.Kind != obs.SpanRequest {
					continue
				}
				roots++
				rootJ += sp.EnergyJ
				rootCapSec += sp.CapSec
				if sp.TTFTSec >= 0 {
					ttftByClass[sp.Class] = append(ttftByClass[sp.Class], sp.TTFTSec)
				}
			}
			if roots == 0 {
				t.Fatal("no request spans recorded")
			}
			checkClose := func(what string, got, want float64) {
				t.Helper()
				den := want
				if den == 0 {
					den = 1
				}
				if d := (got - want) / den; d > 1e-9 || d < -1e-9 {
					t.Errorf("%s: %.3f vs %.3f (rel %.2e)", what, got, want, d)
				}
			}
			checkClose("root spans vs integrated energy", rootJ, m.Serve.EnergyJ)
			checkClose("root spans vs cap seconds", rootCapSec, m.Serve.CapExtraSec)
			var classJ float64
			for _, j := range m.ClassEnergyJ {
				classJ += j
			}
			checkClose("per-class energy vs integrated", classJ, m.Serve.EnergyJ)
			if tc.name == "nocap" && m.Serve.CapExtraSec != 0 {
				t.Errorf("uncapped row reports cap slowdown %g s", m.Serve.CapExtraSec)
			}
			if tc.name == "capped" && m.Serve.CapExtraSec <= 0 {
				t.Error("LP clock lock produced no cap slowdown")
			}

			// The report's p99 TTFT must be recomputable from spans alone:
			// the digest estimate sits within one sample rank of the exact
			// percentile computed over the root spans' TTFTs (the sketch's
			// guarantee — value-space error can exceed 1% in a sparse tail).
			for class, d := range m.TTFT {
				xs := ttftByClass[class]
				if int64(len(xs)) != d.Count() {
					t.Errorf("%s: %d span TTFTs vs digest count %d", class, len(xs), d.Count())
					continue
				}
				sort.Float64s(xs)
				got := d.Percentile(99)
				wantRank := 0.99 * float64(len(xs)-1)
				gotRank := float64(sort.SearchFloat64s(xs, got))
				if gotRank < wantRank-1 || gotRank > wantRank+1 {
					t.Errorf("%s: digest p99 TTFT %.4f lands at rank %.0f of %d, exact rank %.1f (> 1 rank off)",
						class, got, gotRank, len(xs), wantRank)
				}
			}
		})
	}
}

// TestServeCoalescingEquivalence runs the same serve-mode scenarios with
// decode-span coalescing on (the default) and forced off, and requires
// every row-level aggregate to be byte-identical. This is the cluster-scale
// counterpart of the replica equivalence property: cap replans from the
// controller, KV-pressure preemption, node death mid-decode, and a combined
// chaos spec must all leave the coalesced trajectory indistinguishable from
// the per-stride one.
func TestServeCoalescingEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		prep func(cfg *cluster.RowConfig) cluster.Controller
	}{
		{
			name: "cap-replans",
			prep: func(cfg *cluster.RowConfig) cluster.Controller {
				cfg.AddedFraction = 0.30
				return &recordingCtrl{lockLP: 1100}
			},
		},
		{
			name: "kv-pressure",
			prep: func(cfg *cluster.RowConfig) cluster.Controller {
				cfg.Serve.GPUMemUtil = 0.62
				return &recordingCtrl{}
			},
		},
		{
			name: "node-death",
			prep: func(cfg *cluster.RowConfig) cluster.Controller {
				cfg.Faults = faults.Spec{
					Kills: []faults.Kill{{Servers: 2, Window: faults.Window{Start: 10 * time.Minute, Dur: 20 * time.Minute}}},
				}
				return &recordingCtrl{}
			},
		},
		{
			name: "combined-chaos",
			prep: func(cfg *cluster.RowConfig) cluster.Controller {
				cfg.AddedFraction = 0.30
				cfg.Faults = mustSpec(t, "crash=5m+30,kill=1@9m+1m,slow=1:1.5")
				return &recordingCtrl{lockLP: 1100}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(noCoalesce bool) *cluster.Metrics {
				cfg := serveConfig()
				ctrl := sc.prep(&cfg)
				cfg.Serve.NoCoalesce = noCoalesce
				return runRow(t, cfg, ctrl, flatPlan(cfg, 0.8, 40*time.Minute))
			}
			a, b := run(false), run(true)
			if a.Serve != b.Serve {
				t.Errorf("serve stats differ:\ncoalesced:  %+v\nper-stride: %+v", a.Serve, b.Serve)
			}
			if len(a.Util.Values) != len(b.Util.Values) {
				t.Fatalf("power series lengths differ: %d vs %d", len(a.Util.Values), len(b.Util.Values))
			}
			for i := range a.Util.Values {
				if a.Util.Values[i] != b.Util.Values[i] {
					t.Fatalf("power series differs at sample %d: %v vs %v",
						i, a.Util.Values[i], b.Util.Values[i])
				}
			}
			for _, pri := range []workload.Priority{workload.Low, workload.High} {
				if a.Completed[pri] != b.Completed[pri] || a.Dropped[pri] != b.Dropped[pri] {
					t.Errorf("%v: completed %d/%d dropped %d/%d differ", pri,
						a.Completed[pri], b.Completed[pri], a.Dropped[pri], b.Dropped[pri])
				}
				xs, ys := a.LatencySec[pri], b.LatencySec[pri]
				if len(xs) != len(ys) {
					t.Fatalf("%v: latency counts differ: %d vs %d", pri, len(xs), len(ys))
				}
				for i := range xs {
					if xs[i] != ys[i] {
						t.Fatalf("%v: latency[%d] differs: %v vs %v", pri, i, xs[i], ys[i])
					}
				}
			}
			for class, xs := range a.TTFT {
				ys := b.TTFT[class]
				if ys == nil || xs.Count() != ys.Count() {
					t.Fatalf("TTFT sample counts differ for %s", class)
				}
				for _, p := range []float64{50, 99} {
					if xs.Percentile(p) != ys.Percentile(p) {
						t.Fatalf("TTFT p%.0f differs for %s", p, class)
					}
					if a.TBT[class].Percentile(p) != b.TBT[class].Percentile(p) {
						t.Fatalf("TBT p%.0f differs for %s", p, class)
					}
				}
				if a.ClassEnergyJ[class] != b.ClassEnergyJ[class] {
					t.Fatalf("class energy differs for %s", class)
				}
			}
		})
	}
}
