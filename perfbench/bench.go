package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"polca/internal/cluster"
	"polca/internal/experiments"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/replay"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

// workloadFunc runs one benchmark workload under b.
type workloadFunc func(b *bench, seed int64) error

var workloads = map[string]workloadFunc{
	"slot-week":      rowWorkload{days: 7, servers: 40}.run,
	"serve-observed": rowWorkload{days: 1, servers: 16, serve: true, observe: true}.run,
	"paper-quick":    paperQuick,
}

// quickWorkers is the paper-quick worker count.
const quickWorkers = 2

// slowExperiments are the artifacts whose wall time the traced paper-quick
// run reports: the slowest ones at paper scale.
var slowExperiments = []string{"figservefault", "figserve", "figscenario", "fig17", "fig18", "fig13", "figfault", "fig15b"}

// layerMetrics lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer that does not run on a workload reports 0.
var layerMetrics = func() []string {
	names := []string{
		"sim.events", "sim.ns_per_event", "sim.cpu_share",
		"gpu.cpu_share", "llm.cpu_share", "plan.cpu_share", "server.cpu_share",
		"cluster.cpu_share", "cluster.new_row_s", "cluster.requests", "cluster.completed",
		"cluster.dropped", "cluster.max_queue", "cluster.telemetry_ticks",
		"cluster.oob_commands", "cluster.oob_failed", "cluster.brakes",
		"cluster.latency_p50_s", "cluster.latency_p99_s",
		"serve.cpu_share", "serve.batches", "serve.prompt_tokens", "serve.decode_tokens",
		"serve.tokens_per_batch", "serve.preemptions", "serve.max_running",
		"serve.kv_high_water", "serve.ttft_p99_s", "serve.energy_mj",
		"polca.ticks", "polca.tick_ns_p50", "polca.tick_ns_p99", "polca.lock_requests", "polca.cpu_share",
		"trace.reference_s", "trace.fit_s", "trace.fit_mape_pct", "trace.cpu_share",
		"obs.events", "obs.spans", "obs.decisions", "obs.events_mb", "obs.spans_mb",
		"obs.decisions_mb", "obs.encode_s", "obs.retained_mb", "obs.cpu_share",
		"replay.load_s", "replay.self_s", "replay.alternates_s", "replay.routes_s",
		"replay.fidelity", "replay.cpu_share",
		"experiments.parallel_efficiency", "experiments.sweep_points", "experiments.cache_hits",
	}
	for _, id := range slowExperiments {
		names = append(names, "experiments."+id+".wall_s")
	}
	return append(names, "runtime.gc_cycles", "runtime.gc_cpu_s", "runtime.cpu_share", "other.cpu_share")
}()

// bench holds one workload process's measurements and checks.
type bench struct {
	traced    bool
	setupOnly bool
	// noControl skips serve-observed's unobserved control run.
	noControl bool
	spans     *spanLog // nil when untraced
	res       result
	start     meter
	cost      cost
	prof      bytes.Buffer
}

func newBench(traced, setupOnly bool) *bench {
	b := &bench{traced: traced, setupOnly: setupOnly}
	if traced {
		b.spans = &spanLog{}
	}
	return b
}

// run executes the workload and assembles its result.
func (b *bench) run(wl workloadFunc, name string, seed int64) (result, error) {
	b.res = result{Workload: name, Seed: seed, Traced: b.traced, Machine: identify()}
	if b.traced {
		b.res.Layers = make(map[string]float64, len(layerMetrics))
		for _, m := range layerMetrics {
			b.res.Layers[m] = 0
		}
	}
	if err := wl(b, seed); err != nil {
		return result{}, err
	}
	if b.setupOnly {
		return b.res, nil
	}
	if b.traced {
		shares, err := profileShares(b.prof.Bytes())
		if err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		for k, v := range shares {
			b.res.Layers[k+".cpu_share"] = v
		}
		b.res.Spans = b.spans.totals()
	}
	return b.res, nil
}

// layer sets a per-layer metric of a traced run.
func (b *bench) layer(name string, v float64) {
	if b.traced {
		if _, ok := b.res.Layers[name]; !ok {
			panic("perfbench: unlisted layer metric " + name)
		}
		b.res.Layers[name] = v
	}
}

// check records one correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.res.Attempted++
	if !ok {
		b.res.Failed++
		b.res.Failures = append(b.res.Failures, fmt.Sprintf(format, args...))
	}
}

// checkDigest compares a digest with the committed seed-1 value.
func (b *bench) checkDigest(seed int64, digest string) {
	b.res.Digest = digest
	if want, ok := committedDigests[b.res.Workload]; ok && seed == 1 {
		b.check(digest == want, "digest %s, committed %s", digest, want)
	}
}

// startTimed ends set-up. It returns false when the run stops there.
func (b *bench) startTimed() bool {
	b.res.TimedStartUnixNano = time.Now().UnixNano()
	if b.setupOnly {
		return false
	}
	if b.traced {
		if err := pprof.StartCPUProfile(&b.prof); err != nil {
			panic(err) // only fails when a profile is already running
		}
	}
	b.start = readMeter()
	return true
}

// stopTimed ends the timed phase and records the end-to-end metrics.
func (b *bench) stopTimed() {
	end := readMeter()
	if b.traced {
		pprof.StopCPUProfile()
	}
	b.cost = end.sub(b.start)
	b.res.EndToEnd = map[string]float64{
		"wall_s":      b.cost.wall.Seconds(),
		"cpu_s":       b.cost.cpu.Seconds(),
		"peak_rss_mb": end.maxRSSMB,
		"alloc_mb":    float64(b.cost.allocBytes) / 1e6,
		"allocs_m":    float64(b.cost.allocs) / 1e6,
	}
	b.layer("runtime.gc_cycles", float64(b.cost.gcCycles))
	b.layer("runtime.gc_cpu_s", b.cost.gcCPU)
}

// meter is a snapshot of the process's resource counters.
type meter struct {
	wall       time.Time
	cpu        time.Duration
	maxRSSMB   float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint64
	gcCPU      float64
}

// cost is the difference of two meters.
type cost struct {
	wall, cpu          time.Duration
	allocBytes, allocs uint64
	gcCycles           uint64
	gcCPU              float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	m := meter{
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   runtimeSamples[0].Value.Uint64(),
		gcCPU:      runtimeSamples[1].Value.Float64(),
	}
	m.cpu, m.maxRSSMB = rusage()
	m.wall = time.Now()
	return m
}

func (m meter) sub(o meter) cost {
	return cost{
		wall:       m.wall.Sub(o.wall),
		cpu:        m.cpu - o.cpu,
		allocBytes: m.allocBytes - o.allocBytes,
		allocs:     m.allocs - o.allocs,
		gcCycles:   m.gcCycles - o.gcCycles,
		gcCPU:      m.gcCPU - o.gcCPU,
	}
}

// rusage returns the process's CPU time so far and its peak RSS.
func rusage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rowWorkload is one production row run through polca-sim's code path.
type rowWorkload struct {
	days, servers int
	serve         bool
	// observe attaches every recorder, then encodes, loads and replays.
	observe bool
}

func (w rowWorkload) config(seed int64) cluster.RowConfig {
	cfg := cluster.Production()
	cfg.BaseServers = w.servers
	cfg.AddedFraction = 0.30
	cfg.Seed = seed
	if w.serve {
		cfg.Serve = &serve.Config{Router: "least-queue"}
	}
	return cfg
}

// newObserver attaches what `polca-sim -trace -spans -decisions -rules
// default` attaches.
func newObserver(cfg cluster.RowConfig, ctrl cluster.Controller, seed int64) (*obs.Observer, error) {
	rules, err := obs.ParseRules(obs.DefaultRules)
	if err != nil {
		return nil, err
	}
	o := &obs.Observer{
		Metrics:   obs.NewRegistry(),
		Labels:    obs.Label("policy", ctrl.Name()),
		Tracer:    obs.NewTracer(),
		Spans:     obs.NewSpanTracer(),
		Decisions: obs.NewDecisionRecorder(),
		DB:        obs.NewTSDB(obs.TSDBConfig{Step: cfg.TelemetryInterval}),
	}
	o.Rules = obs.NewRules(o.DB, rules, o.Tracer)
	pspec, gspec, err := polca.DescribeController(ctrl)
	if err != nil {
		return nil, err
	}
	o.Decisions.UpdateMeta(func(m *obs.DecisionMeta) {
		m.Spec, m.Guard, m.Seed = pspec, gspec, seed
	})
	return o, nil
}

func (w rowWorkload) run(b *bench, seed int64) error {
	cfg := w.config(seed)
	horizon := time.Duration(w.days) * 24 * time.Hour
	ctrl := polca.New(polca.DefaultConfig())
	var o *obs.Observer
	if w.observe {
		var err error
		// The decision log describes the policy itself, never the timing
		// wrapper below.
		if o, err = newObserver(cfg, ctrl, seed); err != nil {
			return err
		}
	}
	var rowCtrl cluster.Controller = ctrl
	var ticks *tickTimer
	if b.traced {
		ticks = &tickTimer{inner: ctrl}
		rowCtrl = ticks.wrap()
	}
	eng := sim.New(seed)
	eng.SetObserver(o)

	var (
		ref  stats.Series
		plan trace.RatePlan
		row  *cluster.Row
		err  error
	)
	fitCfg := cfg
	fitCfg.PowerIntensity = 1
	b.spans.do("trace.reference", func() {
		ref = trace.ProductionInference().Reference(horizon, eng.Rand("reference"))
	})
	b.spans.do("trace.fit", func() {
		plan, err = trace.FitArrivals(ref, fitCfg.Shape(), 5*time.Minute)
	})
	if err != nil {
		return err
	}
	b.spans.do("cluster.new_row", func() {
		row, err = cluster.NewRow(eng, cfg, rowCtrl)
	})
	if err != nil {
		return err
	}
	if !b.startTimed() {
		return nil
	}

	var m *cluster.Metrics
	runStart, _ := rusage()
	b.spans.do("cluster.run", func() {
		m = row.Run(plan.Scale(1 + cfg.AddedFraction))
		if ticks != nil {
			b.spans.add("polca.tick", len(ticks.ns), ticks.total())
		}
	})
	runEnd, _ := rusage()
	var rec *recorded
	if w.observe {
		if rec, err = b.recordAndReplay(o, seed); err != nil {
			return err
		}
	}
	b.stopTimed()

	text := statsText(m)
	b.checkRow(m)
	if w.observe {
		b.checkObserved(o, m, rec)
	}
	if b.traced {
		b.rowLayers(m, eng, runEnd-runStart, ticks)
		b.traceLayers(ref, plan, fitCfg)
		if w.observe {
			b.observedLayers(o, rec)
			// What the sinks retain: the live heap released by dropping
			// the row, its engine and its recorders.
			before := liveHeapMB()
			runtime.KeepAlive(o)
			runtime.KeepAlive(row)
			runtime.KeepAlive(eng)
			b.layer("obs.retained_mb", before-liveHeapMB())
		}
	}
	if w.observe && !b.noControl {
		// Observation must not change what is simulated: the same config
		// without any recorder gives the same statistics.
		plain := w
		plain.observe = false
		res, err := newBench(false, false).run(plain.run, "", seed)
		if err != nil {
			return err
		}
		b.check(res.Digest == digest(text), "observed statistics differ from the unobserved run")
	}
	if w.observe {
		text += rec.text
	}
	b.checkDigest(seed, digest(text))
	return nil
}

// recorded is what the observed run wrote and replayed.
type recorded struct {
	eventsBytes, spansBytes, decisionsBytes int64
	completeEvents, oobIssueEvents          int
	ticks, tickDiverged                     int
	routes, routeDiverged                   int
	// text renders the replay outcomes for the digest.
	text string
}

// recordAndReplay encodes every sink as polca-sim would write it, then
// loads the decision log and replays it as polca-replay does by default.
func (b *bench) recordAndReplay(o *obs.Observer, seed int64) (*recorded, error) {
	rec := &recorded{
		completeEvents: o.Tracer.CountKind(obs.KindComplete),
		oobIssueEvents: o.Tracer.CountKind(obs.KindOOBIssue),
	}
	prov := obs.Provenance{"tool": "perfbench", "seed": seed}
	var (
		events, spans, alerts byteCounter
		decisions             bytes.Buffer
		err                   error
	)
	b.spans.do("obs.alerts", func() {
		o.DB.Flush()
		o.Rules.Finish()
		err = o.Rules.WriteSummary(&alerts)
	})
	if err != nil {
		return nil, err
	}
	b.spans.do("obs.events.write_jsonl", func() { err = o.Tracer.WriteJSONL(&events) })
	if err != nil {
		return nil, err
	}
	b.spans.do("obs.spans.write_jsonl", func() {
		if err = obs.WriteProvenance(&spans, prov); err == nil {
			err = o.Spans.WriteJSONL(&spans)
		}
	})
	if err != nil {
		return nil, err
	}
	b.spans.do("obs.decisions.write_jsonl", func() {
		if err = obs.WriteProvenance(&decisions, prov); err == nil {
			err = o.Decisions.WriteJSONL(&decisions)
		}
	})
	if err != nil {
		return nil, err
	}
	rec.eventsBytes, rec.spansBytes, rec.decisionsBytes = events.n, spans.n, int64(decisions.Len())

	var l *replay.Log
	b.spans.do("replay.load", func() { l, err = replay.Load(&decisions) })
	if err != nil {
		return nil, err
	}
	var txt strings.Builder
	b.spans.do("replay.self_check", func() {
		if rec.tickDiverged, rec.ticks, err = replay.SelfCheck(l); err != nil {
			return
		}
		var sum *replay.RouterSummary
		if _, sum, err = replay.ReplayRoutes(l, l.Meta.Router); err == nil {
			rec.routes, rec.routeDiverged = sum.Routes, sum.Diverged
		}
	})
	if err != nil {
		return nil, err
	}
	b.spans.do("replay.alternates", func() {
		var prof *replay.Profiler
		if prof, err = replay.NewProfiler(l.Meta); err != nil {
			return
		}
		var alts []replay.NamedPolicy
		if alts, err = replay.Alternates(l); err != nil {
			return
		}
		alts = append(alts, replay.ThresholdGrid(l, []float64{-0.05, 0, 0.05})...)
		for _, a := range alts {
			var s *replay.PolicySummary
			b.spans.do("replay.evaluate", func() { s = replay.Evaluate(l, a.Name, a.Ctrl, prof, 10) })
			fmt.Fprintf(&txt, "policy %s %d/%d %s %s %s %d %s\n", s.Name, s.Diverged, s.Ticks,
				exact(s.HeadroomJ), exact(s.SavedJ), exact(s.LatencyS), s.BrakeRiskTicks, exact(s.EnergyPerReqJ))
		}
	})
	if err != nil {
		return nil, err
	}
	b.spans.do("replay.routes", func() {
		for _, name := range serve.RouterNames() {
			var sum *replay.RouterSummary
			b.spans.do("replay.replay_routes", func() { _, sum, err = replay.ReplayRoutes(l, name) })
			if err != nil {
				return
			}
			fmt.Fprintf(&txt, "router %s %d/%d %s %s %d\n", sum.Name, sum.Diverged, sum.Routes,
				exact(sum.MeanExcessLoad), exact(sum.MeanChosenKV), sum.CappedPicks)
		}
	})
	if err != nil {
		return nil, err
	}
	rec.text = txt.String()
	return rec, nil
}

// checkRow checks invariants that hold for any seed.
func (b *bench) checkRow(m *cluster.Metrics) {
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		b.check(m.Arrived[p] == m.Completed[p]+m.Dropped[p],
			"%s: arrived %d != completed %d + dropped %d", p, m.Arrived[p], m.Completed[p], m.Dropped[p])
	}
	if m.Config.Serve == nil {
		return
	}
	s := m.Serve
	b.check(s.KVReservedTokens == s.KVFreedTokens, "KV ledger: reserved %d, freed %d", s.KVReservedTokens, s.KVFreedTokens)
	var classJ float64
	for _, j := range m.ClassEnergyJ {
		classJ += j
	}
	b.check(math.Abs(classJ-s.EnergyJ) <= 1e-9*math.Max(1, math.Abs(s.EnergyJ)),
		"per-class energy %g J != row energy %g J", classJ, s.EnergyJ)
}

// checkObserved checks the records against the metrics.
func (b *bench) checkObserved(o *obs.Observer, m *cluster.Metrics, rec *recorded) {
	completed := m.Completed[workload.Low] + m.Completed[workload.High]
	b.check(rec.completeEvents == completed, "%d request-complete events, %d completed", rec.completeEvents, completed)
	b.check(rec.oobIssueEvents == m.LockCommands, "%d oob.issue events, %d OOB commands", rec.oobIssueEvents, m.LockCommands)
	b.check(rec.ticks > 0 && rec.tickDiverged == 0 && rec.routeDiverged == 0,
		"self replay: %d/%d ticks and %d/%d routes diverged", rec.tickDiverged, rec.ticks, rec.routeDiverged, rec.routes)
}

// rowLayers reports the row, engine, serve and controller layers.
func (b *bench) rowLayers(m *cluster.Metrics, eng *sim.Engine, runCPU time.Duration, ticks *tickTimer) {
	events := eng.Dispatched()
	b.layer("sim.events", float64(events))
	if events > 0 {
		b.layer("sim.ns_per_event", float64(runCPU.Nanoseconds())/float64(events))
	}
	b.layer("cluster.new_row_s", b.spans.total("cluster.new_row").Seconds())
	var lat []float64
	var arrived, completed, dropped int
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		arrived += m.Arrived[p]
		completed += m.Completed[p]
		dropped += m.Dropped[p]
		lat = append(lat, m.LatencySec[p]...)
	}
	b.layer("cluster.requests", float64(arrived))
	b.layer("cluster.completed", float64(completed))
	b.layer("cluster.dropped", float64(dropped))
	b.layer("cluster.max_queue", float64(m.MaxQueueLen))
	b.layer("cluster.telemetry_ticks", float64(len(m.Util.Values)))
	b.layer("cluster.oob_commands", float64(m.LockCommands))
	b.layer("cluster.oob_failed", float64(m.FailedCommands))
	b.layer("cluster.brakes", float64(m.BrakeEvents))
	b.layer("cluster.latency_p50_s", stats.Percentile(lat, 50))
	b.layer("cluster.latency_p99_s", stats.Percentile(lat, 99))

	if m.Config.Serve != nil {
		s := m.Serve
		b.layer("serve.batches", float64(s.Batches))
		b.layer("serve.prompt_tokens", float64(s.PromptTokens))
		b.layer("serve.decode_tokens", float64(s.DecodeTokens))
		if s.Batches > 0 {
			b.layer("serve.tokens_per_batch", float64(s.PromptTokens+s.DecodeTokens)/float64(s.Batches))
		}
		b.layer("serve.preemptions", float64(s.Preemptions))
		b.layer("serve.max_running", float64(s.MaxRunning))
		b.layer("serve.kv_high_water", s.KVHighWaterFrac*100)
		var ttft float64
		for _, d := range m.TTFT {
			if d.Count() > 0 {
				ttft = math.Max(ttft, d.Percentile(99))
			}
		}
		b.layer("serve.ttft_p99_s", ttft)
		b.layer("serve.energy_mj", s.EnergyJ/1e6)
	}

	ns := append([]int64(nil), ticks.ns...)
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	b.layer("polca.ticks", float64(len(ns)))
	b.layer("polca.tick_ns_p50", float64(percentileNs(ns, 50)))
	b.layer("polca.tick_ns_p99", float64(percentileNs(ns, 99)))
	b.layer("polca.lock_requests", float64(ticks.locks.n))
}

// traceLayers reports the reference-trace and fit layer.
func (b *bench) traceLayers(ref stats.Series, plan trace.RatePlan, fitCfg cluster.RowConfig) {
	b.layer("trace.reference_s", b.spans.total("trace.reference").Seconds())
	b.layer("trace.fit_s", b.spans.total("trace.fit").Seconds())
	if mape, err := trace.ValidateFit(ref, plan, fitCfg.Shape()); err == nil {
		b.layer("trace.fit_mape_pct", mape*100)
	}
}

// observedLayers reports the record pipeline and replay.
func (b *bench) observedLayers(o *obs.Observer, rec *recorded) {
	b.layer("obs.events", float64(o.Tracer.Len()))
	b.layer("obs.spans", float64(o.Spans.Len()))
	b.layer("obs.decisions", float64(o.Decisions.Len()))
	b.layer("obs.events_mb", float64(rec.eventsBytes)/1e6)
	b.layer("obs.spans_mb", float64(rec.spansBytes)/1e6)
	b.layer("obs.decisions_mb", float64(rec.decisionsBytes)/1e6)
	var encode time.Duration
	for _, s := range []string{"obs.alerts", "obs.events.write_jsonl", "obs.spans.write_jsonl", "obs.decisions.write_jsonl"} {
		encode += b.spans.total(s)
	}
	b.layer("obs.encode_s", encode.Seconds())
	b.layer("replay.load_s", b.spans.total("replay.load").Seconds())
	b.layer("replay.self_s", b.spans.total("replay.self_check").Seconds())
	b.layer("replay.alternates_s", b.spans.total("replay.alternates").Seconds())
	b.layer("replay.routes_s", b.spans.total("replay.routes").Seconds())
	if n := rec.ticks + rec.routes; n > 0 {
		b.layer("replay.fidelity", float64(n-rec.tickDiverged-rec.routeDiverged)/float64(n))
	}
}

// paperQuick regenerates every artifact at quick scale.
func paperQuick(b *bench, seed int64) error {
	o := experiments.QuickOptions()
	o.Seed = seed
	o.Parallel = quickWorkers
	if b.traced {
		// Metrics only: the sweep executor counts grid points and cache
		// hits, and every engine counts its events, into this registry.
		o.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	}
	h := sha256.New()
	if !b.startTimed() {
		return nil
	}
	var (
		results []experiments.Result
		walls   []time.Duration
		err     error
	)
	if b.traced {
		results, walls, err = runEach(o, h)
	} else {
		results, err = experiments.RunAll(o, h)
	}
	b.stopTimed()
	if err != nil {
		return err
	}
	ids := experiments.IDs()
	b.check(len(results) == len(ids), "%d artifacts, %d registered", len(results), len(ids))
	for _, r := range results {
		b.check(strings.TrimSpace(r.Text) != "", "%s rendered no text", r.ID)
	}
	b.checkDigest(seed, hex.EncodeToString(h.Sum(nil))[:16])
	if !b.traced {
		return nil
	}
	for i, id := range ids {
		b.spans.add("experiments."+id, 1, walls[i])
	}
	for _, id := range slowExperiments {
		b.layer("experiments."+id+".wall_s", b.spans.total("experiments."+id).Seconds())
	}
	if b.cost.wall > 0 {
		b.layer("experiments.parallel_efficiency", b.cost.cpu.Seconds()/(b.cost.wall.Seconds()*quickWorkers))
	}
	reg := o.Obs.Metrics
	b.layer("experiments.sweep_points", float64(reg.Counter("sweep_points_total").Value()))
	b.layer("experiments.cache_hits", float64(reg.Counter("sweep_cache_hits_total").Value()))
	events := reg.Counter("sim_events_dispatched_total").Value()
	b.layer("sim.events", float64(events))
	if events > 0 {
		b.layer("sim.ns_per_event", float64(b.cost.cpu.Nanoseconds())/float64(events))
	}
	return nil
}

// runEach is experiments.RunAll with every experiment timed: the same
// worker bound, registration order and output stream, through the public
// experiments.Run.
func runEach(o experiments.Options, w io.Writer) ([]experiments.Result, []time.Duration, error) {
	ids := experiments.IDs()
	type slot struct {
		res  experiments.Result
		err  error
		wall time.Duration
		done chan struct{}
	}
	slots := make([]*slot, len(ids))
	sem := make(chan struct{}, quickWorkers)
	for i, id := range ids {
		s := &slot{done: make(chan struct{})}
		slots[i] = s
		go func(id string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			s.res, s.err = experiments.Run(id, o)
			s.wall = time.Since(start)
			close(s.done)
		}(id)
	}
	var (
		out   []experiments.Result
		walls []time.Duration
		first error
	)
	for _, s := range slots {
		<-s.done
		if first == nil && s.err != nil {
			first = s.err
		}
		if first != nil {
			continue
		}
		out = append(out, s.res)
		walls = append(walls, s.wall)
		fmt.Fprintf(w, "== %s: %s ==\n%s\n", s.res.ID, s.res.Title, s.res.Text)
	}
	return out, walls, first
}

// statsText renders the simulated statistics a digest covers, with every
// float in full precision.
func statsText(m *cluster.Metrics) string {
	var sb strings.Builder
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		lat := m.LatencySec[p]
		fmt.Fprintf(&sb, "%s arrived=%d completed=%d dropped=%d busy=%s p50=%s p99=%s max=%s\n",
			p, m.Arrived[p], m.Completed[p], m.Dropped[p], exact(m.BusySec[p]),
			exact(stats.Percentile(lat, 50)), exact(stats.Percentile(lat, 99)), exact(stats.Percentile(lat, 100)))
	}
	fmt.Fprintf(&sb, "brakes=%d oob=%d failed=%d maxq=%d util=%d mean=%s peak=%s\n",
		m.BrakeEvents, m.LockCommands, m.FailedCommands, m.MaxQueueLen,
		len(m.Util.Values), exact(m.Util.Mean()), exact(m.Util.Peak()))
	if m.Config.Serve == nil {
		return sb.String()
	}
	s := m.Serve
	fmt.Fprintf(&sb, "serve batches=%d preempt=%d prompt=%d decode=%d maxrun=%d kv=%s kvres=%d kvfree=%d energy=%s capsec=%s capj=%s\n",
		s.Batches, s.Preemptions, s.PromptTokens, s.DecodeTokens, s.MaxRunning, exact(s.KVHighWaterFrac),
		s.KVReservedTokens, s.KVFreedTokens, exact(s.EnergyJ), exact(s.CapExtraSec), exact(s.CapDeltaJ))
	for _, name := range workload.Names(m.Config.Classes) {
		fmt.Fprintf(&sb, "class %s arrived=%d slo=%d shed=%d tokens=%d energy=%s",
			name, m.ClassArrived[name], m.ClassSLOOK[name], m.ClassShed[name], m.ClassTokens[name], exact(m.ClassEnergyJ[name]))
		if d := m.TTFT[name]; d != nil && d.Count() > 0 {
			fmt.Fprintf(&sb, " ttft99=%s", exact(d.Percentile(99)))
		}
		if d := m.TBT[name]; d != nil && d.Count() > 0 {
			fmt.Fprintf(&sb, " tbt99=%s", exact(d.Percentile(99)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// exact formats a float with every digit it has.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// digest is a short hex SHA-256 of text.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])[:16]
}

// percentileNs is the nearest-rank percentile of sorted values.
func percentileNs(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// byteCounter is an io.Writer that only counts.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
