//go:build amd64

// The digest covers floats from the GPU cost model, which are bit-exact
// only where Go fuses no multiply-adds (see internal/gpu/golden_test.go).

package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/trace"
	"polca/internal/workload"
)

// chaosGoldenDigest is the digest of the faulted slot-row day below. A
// change that moves it has changed what is simulated, not only how fast.
const chaosGoldenDigest = "39a7d69a6e6e8055"

// TestChaosSlotDayGolden runs the `make chaos` day — 16 base servers at
// +30%, one day on the production arrival fit, the full fault spec and
// every slot-row degradation path armed (guard, watchdog, bounded OOB
// retries with backoff, stale-command drops) — and digests what it
// simulated: the utilization series, every latency sample, busy time, the
// Metrics counters and the event trace. The day runs stragglers, node
// death and revive, a controller crash, an OOB failure burst and a power
// brake, paths the unfaulted slot-row benchmarks never reach.
func TestChaosSlotDayGolden(t *testing.T) {
	const days = 1
	cfg := cluster.Production()
	cfg.BaseServers = 16
	cfg.AddedFraction = 0.30
	cfg.Faults = mustSpec(t, "tdrop=0.05,tspike=0.02:0.5,tstuck=10h+30m,crash=6h+20,oobburst=11h+15m,kill=2@8h+1h,slow=2:1.5")
	cfg.WatchdogEpochs = 5
	cfg.OOBRetryBudget = 8
	cfg.OOBRetryBackoff = 4 * time.Second
	cfg.DropStaleOOB = true
	ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())

	horizon := days * 24 * time.Hour
	o := &obs.Observer{Tracer: obs.NewTracer()}
	eng := sim.New(cfg.Seed)
	eng.SetObserver(o)
	row := cluster.MustRow(eng, cfg, ctrl)
	fit := cfg
	fit.PowerIntensity = 1
	ref := trace.ProductionInference().Reference(horizon, eng.Rand("reference"))
	plan, err := trace.FitArrivals(ref, fit.Shape(), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m := row.Run(plan.Scale(1 + cfg.AddedFraction))

	if m.BrakeEvents == 0 || m.NodeDeaths == 0 || m.StaleOOBDrops == 0 || m.WatchdogEngagements == 0 ||
		m.Faults.CtrlCrashTicks == 0 || m.Faults.OOBBurstFails == 0 {
		t.Errorf("the day no longer reaches every degradation path: brakes %d, deaths %d, stale %d, watchdog %d, faults %+v",
			m.BrakeEvents, m.NodeDeaths, m.StaleOOBDrops, m.WatchdogEngagements, m.Faults)
	}

	h := sha256.New()
	bits := func(w io.Writer, vs []float64) {
		for _, v := range vs {
			fmt.Fprintf(w, "%016x\n", math.Float64bits(v))
		}
	}
	bits(h, m.Util.Values)
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		fmt.Fprintf(h, "pri %v arrived %d completed %d dropped %d busy %016x\n",
			p, m.Arrived[p], m.Completed[p], m.Dropped[p], math.Float64bits(m.BusySec[p]))
		bits(h, m.LatencySec[p])
	}
	fmt.Fprintf(h, "brakes %d cmds %d failed %d maxq %d stale %d retries %d exhausted %d watchdog %d deaths %d drains %d faults %+v\n",
		m.BrakeEvents, m.LockCommands, m.FailedCommands, m.MaxQueueLen, m.StaleOOBDrops,
		m.OOBRetries, m.OOBRetriesExhausted, m.WatchdogEngagements, m.NodeDeaths, m.NodeDrains, m.Faults)
	if err := o.Tracer.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(h.Sum(nil))[:16]
	if got != chaosGoldenDigest {
		t.Errorf("chaos slot day digest %s, committed %s (%d events, %d ticks, %d+%d completed)",
			got, chaosGoldenDigest, o.Tracer.Len(), m.Util.Len(),
			m.Completed[workload.Low], m.Completed[workload.High])
	}
}
