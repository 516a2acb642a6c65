package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/llm"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

// short configs keep the tests fast while covering both row modes and
// the observed path.
var (
	shortSlot     = rowWorkload{days: 1, servers: 8}
	shortObserved = rowWorkload{days: 1, servers: 4, serve: true, observe: true}
)

func runShort(t *testing.T, wl rowWorkload, seed int64, traced bool) result {
	t.Helper()
	res, err := newBench(traced, false).run(wl.run, "short", seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("checks: %d of %d failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	return res
}

func TestDigestFollowsSeed(t *testing.T) {
	a := runShort(t, shortSlot, 1, false)
	b := runShort(t, shortSlot, 1, false)
	c := runShort(t, shortSlot, 2, false)
	if a.Digest != b.Digest {
		t.Errorf("same seed, digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 share digest %s", a.Digest)
	}
}

func TestTracingDoesNotPerturb(t *testing.T) {
	for name, wl := range map[string]rowWorkload{"slot": shortSlot, "observed": shortObserved} {
		plain := runShort(t, wl, 3, false)
		traced := runShort(t, wl, 3, true)
		if plain.Digest != traced.Digest {
			t.Errorf("%s: untraced digest %s, traced %s", name, plain.Digest, traced.Digest)
		}
		var sum float64
		for _, m := range append(modules, "runtime", "other") {
			sum += traced.Layers[m+".cpu_share"]
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("%s: CPU shares sum to %g%%", name, sum)
		}
		if traced.Layers["polca.ticks"] == 0 {
			t.Errorf("%s: the tick timer saw no ticks", name)
		}
	}
}

func TestObservedRunReplays(t *testing.T) {
	res := runShort(t, shortObserved, 1, true)
	for _, m := range []string{"obs.events", "obs.spans", "obs.decisions", "obs.events_mb", "replay.load_s"} {
		if res.Layers[m] <= 0 {
			t.Errorf("%s = %g, want > 0", m, res.Layers[m])
		}
	}
	if f := res.Layers["replay.fidelity"]; f != 1 {
		t.Errorf("replay.fidelity = %g, want 1", f)
	}
}

func TestNoControlSkipsOnlyTheControlRun(t *testing.T) {
	full := runShort(t, shortObserved, 2, false)
	b := newBench(false, false)
	b.noControl = true
	res, err := b.run(shortObserved.run, "short", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted != full.Attempted-1 {
		t.Errorf("checks: %d of %d failed, want 0 of %d", res.Failed, res.Attempted, full.Attempted-1)
	}
	if res.Digest != full.Digest {
		t.Errorf("digest %s without the control run, %s with it", res.Digest, full.Digest)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"-workload", "nope", "-seed", "1"}, &out, &errw); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errw.String(), "unknown workload") {
		t.Errorf("stdout %q, stderr %q", out.String(), errw.String())
	}
}

func TestEveryWorkloadSetsUp(t *testing.T) {
	for _, name := range workloadNames() {
		var out, errw bytes.Buffer
		if code := cli([]string{"-workload", name, "-seed", "1", "-setup-only"}, &out, &errw); code != 0 {
			t.Errorf("%s: exit %d: %s", name, code, errw.String())
		}
		if !strings.Contains(out.String(), `"timed_start_unix_nano"`) {
			t.Errorf("%s: no result line: %q", name, out.String())
		}
	}
}

// fake controllers covering optional-interface sets no policy has.
type (
	fakeCtrl  struct{ stage int }
	stageOnly struct{ fakeCtrl }
	lossOnly  struct {
		fakeCtrl
		losses int
	}
	lossFailSafe struct{ lossOnly }
)

func (f *fakeCtrl) Name() string                                    { return "fake" }
func (f *fakeCtrl) OnTelemetry(sim.Time, float64, cluster.Actuator) {}
func (s *stageOnly) Stage() int                                     { return 7 }
func (l *lossOnly) OnTelemetryLoss(_ sim.Time, act cluster.Actuator) {
	l.losses++
	act.SetPoolLock(workload.Low, 1110)
}
func (l *lossFailSafe) FailSafeEngaged() bool { return true }

type nopActuator struct{ cluster.Actuator }

func (nopActuator) SetPoolLock(workload.Priority, float64) {}

func TestTimerKeepsOptionalInterfaces(t *testing.T) {
	wa, err := polca.NewWorkloadAware(polca.DefaultConfig(), llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6())
	if err != nil {
		t.Fatal(err)
	}
	inners := map[string]cluster.Controller{
		"polca":          polca.New(polca.DefaultConfig()),
		"guard":          polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig()),
		"nocap":          polca.NoCap{},
		"workload-aware": wa,
		"none":           &fakeCtrl{},
		"stage":          &stageOnly{},
		"loss":           &lossOnly{},
		"loss+failsafe":  &lossFailSafe{},
	}
	for name, inner := range inners {
		wrapped := (&tickTimer{inner: inner}).wrap()
		has := func(c cluster.Controller) [4]bool {
			_, r := c.(cluster.Restartable)
			_, s := c.(cluster.StageReporter)
			_, l := c.(cluster.TelemetryLossAware)
			_, f := c.(failSafer)
			return [4]bool{r, s, l, f}
		}
		if got, want := has(wrapped), has(inner); got != want {
			t.Errorf("%s: wrapper exposes %v, controller %v (Restartable, StageReporter, TelemetryLossAware, FailSafeEngaged)", name, got, want)
		}
		if wrapped.Name() != inner.Name() {
			t.Errorf("%s: wrapper named %q", name, wrapped.Name())
		}
	}

	// Calls reach the inner controller, and loss callbacks are timed.
	inner := &lossFailSafe{}
	timer := &tickTimer{inner: inner}
	wrapped := timer.wrap()
	wrapped.(cluster.TelemetryLossAware).OnTelemetryLoss(0, nopActuator{})
	if inner.losses != 1 || len(timer.ns) != 1 || timer.locks.n != 1 {
		t.Errorf("loss forwarded %d times, timed %d, locks counted %d", inner.losses, len(timer.ns), timer.locks.n)
	}
	if !wrapped.(failSafer).FailSafeEngaged() {
		t.Error("FailSafeEngaged not forwarded")
	}
	if got := (&tickTimer{inner: &stageOnly{}}).wrap().(cluster.StageReporter).Stage(); got != 7 {
		t.Errorf("Stage forwarded as %d", got)
	}
}

func TestBucketSumsToHundred(t *testing.T) {
	samples := []sample{
		{weight: 5, funcs: []string{"math.Pow", "polca/internal/gpu.(*Phase).Time", "polca/internal/cluster.(*Row).Run"}},
		{weight: 3, funcs: []string{"runtime.mallocgc", "polca/internal/cluster.(*Row).tryAdmit.func1"}},
		{weight: 2, funcs: []string{"runtime.gcBgMarkWorker"}},
		{weight: 1, funcs: []string{"polca/internal/stats.Percentile", "polca/internal/serve.(*Replica).step"}},
		{weight: 1, funcs: []string{"main.(*bench).run"}},
		{weight: 4, funcs: []string{"polca/internal/sim/sub.F"}},
		{weight: 4, funcs: []string{"polca/internal/experiments.Run"}},
	}
	shares := bucket(samples)
	// experiments has no bucket of its own: it goes to other.
	want := map[string]float64{"gpu": 25, "cluster": 15, "runtime": 10, "other": 30, "sim": 20}
	var sum float64
	for k, v := range shares {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %g%%, want %g%%", k, v, want[k])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g%%", sum)
	}
	if len(shares) != len(modules)+2 {
		t.Errorf("%d buckets, want every module plus runtime and other", len(shares))
	}
}

// protobuf encoding helpers for a synthetic profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func TestParseSyntheticProfile(t *testing.T) {
	var prof []byte
	for _, s := range []string{"", "polca/internal/gpu.Time", "polca/internal/cluster.(*Row).Run", "runtime.mcall"} {
		prof = pbBytes(prof, 6, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ {
		prof = pbBytes(prof, 5, pbVarint(pbVarint(nil, 1, id), 2, id))
	}
	// Location 1 inlines gpu.Time into cluster Run; location 2 is runtime.
	line := func(fn uint64) []byte { return pbVarint(nil, 1, fn) }
	prof = pbBytes(prof, 4, pbBytes(pbBytes(pbVarint(nil, 1, 1), 4, line(1)), 4, line(2)))
	prof = pbBytes(prof, 4, pbBytes(pbVarint(nil, 1, 2), 4, line(3)))
	packed := func(vs ...uint64) []byte {
		var p []byte
		for _, v := range vs {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	// Packed and unpacked repeated fields both occur in the wild.
	prof = pbBytes(prof, 2, pbBytes(pbBytes(nil, 1, packed(1)), 2, packed(3, 30_000_000)))
	prof = pbBytes(prof, 2, pbVarint(pbVarint(pbVarint(nil, 1, 2), 2, 1), 2, 10_000_000))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	shares, err := profileShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["gpu"] != 75 || shares["runtime"] != 25 {
		t.Errorf("shares %v, want gpu 75%% and runtime 25%%", shares)
	}
	if _, err := parseProfile(prof[:len(prof)-3]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples collected")
	}
	shares := bucket(samples)
	if shares["other"] < 50 {
		t.Errorf("the benchmark's own spin loop got %g%% of samples: %v", shares["other"], shares)
	}
}
