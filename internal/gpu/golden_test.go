//go:build amd64

// Go fuses no multiply-adds on amd64, so every float the cost model
// computes there is fixed by the order of its operations alone. On arm64,
// ppc64le and s390x the compiler may fuse x*y+z into one rounding, and the
// committed bits would not hold.

package gpu

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"polca/internal/llm"
)

var update = flag.Bool("update", false, "rewrite testdata/run_bits.golden from the current cost model")

const runBitsGolden = "testdata/run_bits.golden"

// goldenPhases are the phase shapes the bit-exact grid runs: a long prompt
// pass (compute-bound), a short prompt spike (shorter than the limiter's
// reaction window) and an aggregated token run (memory-bound), each with
// communication and launch overhead.
func goldenPhases(dt llm.DType, eff float64) []Phase {
	return []Phase{
		{Name: "prompt", DType: dt, FLOPs: 4.1e14, MemBytes: 6.3e10, TensorFrac: 0.97,
			Efficiency: eff, CommSeconds: 0.0123, OverheadSeconds: 0.0211},
		{Name: "spike", DType: dt, FLOPs: 1.7e13, MemBytes: 3.1e9, TensorFrac: 0.97,
			Efficiency: eff, CommSeconds: 0.0017, OverheadSeconds: 0.0042},
		{Name: "token", DType: dt, FLOPs: 7.3e12, MemBytes: 2.9e12, TensorFrac: 0.9,
			Efficiency: eff, CommSeconds: 0.31, OverheadSeconds: 0.187},
	}
}

// goldenDevice is one device state of the grid.
type goldenDevice struct {
	name        string
	lockMHz     float64
	brake       bool
	capFrac     float64 // power cap as a fraction of TDP
	power, perf float64 // silicon variation
}

// goldenVariations are the silicon-variation multipliers (power, perf) the
// grid runs: nominal, and ±10% in both directions.
var goldenVariations = []struct{ power, perf float64 }{{1, 1}, {1.1, 0.9}, {0.9, 1.1}}

func goldenDevices() []goldenDevice {
	var out []goldenDevice
	clocks := []struct {
		name  string
		lock  float64
		brake bool
	}{{"unlocked", 0, false}, {"lock1110", 1110, false}, {"braked", 0, true}}
	for _, c := range clocks {
		for _, capFrac := range []float64{1, 0.8, 0.55} {
			for _, v := range goldenVariations {
				out = append(out, goldenDevice{
					name:    fmt.Sprintf("%s/cap%.2f/var%.1f:%.1f", c.name, capFrac, v.power, v.perf),
					lockMHz: c.lock, brake: c.brake, capFrac: capFrac, power: v.power, perf: v.perf,
				})
			}
		}
	}
	return out
}

// runBitsLines runs every (spec, phase, dtype, efficiency, device state)
// point of the grid and renders each result as one line: the case name,
// then per segment its duration in nanoseconds and the Float64bits of
// every Counters field, in declaration order.
func runBitsLines() []string {
	var lines []string
	for _, spec := range []Spec{A100SXM80GB(), H100SXM80GB()} {
		for _, dt := range []llm.DType{llm.FP16, llm.INT8, llm.FP8, llm.FP32} {
			for _, eff := range []float64{0, 0.62} {
				for _, p := range goldenPhases(dt, eff) {
					for _, ds := range goldenDevices() {
						d := NewDevice(spec)
						d.LockClock(ds.lockMHz)
						d.SetBrake(ds.brake)
						d.SetPowerCap(spec.TDPWatts * ds.capFrac)
						d.SetVariation(ds.power, ds.perf)
						d.SetMemUsedGB(37.5)
						e := d.Run(p)
						var b strings.Builder
						fmt.Fprintf(&b, "%s/%s/%s/eff%.2f/%s", spec.Name, dt, p.Name, eff, ds.name)
						for _, s := range e.Segments {
							c := s.Counters
							fmt.Fprintf(&b, " %d", int64(s.Duration))
							for _, f := range []float64{c.PowerWatts, c.GPUUtil, c.MemUtil, c.SMActivity,
								c.TensorActivity, c.MemActivity, c.PCIeTXMBps, c.PCIeRXMBps} {
								fmt.Fprintf(&b, " %016x", math.Float64bits(f))
							}
						}
						fmt.Fprintf(&b, " total %d", int64(e.Duration))
						lines = append(lines, b.String())
					}
				}
			}
		}
	}
	return lines
}

// TestRunBitsGolden pins the cost model bit for bit: every segment
// duration and every counter of Run, over prompt- and token-like phases in
// all four datatypes, with and without an occupancy derate, on unlocked,
// locked and braked devices, at and below TDP, at nominal silicon and at
// ±10% variation. Refactors of the roofline, the power model or the cap
// bisection must keep each float expression's operand order; this test
// fails on the first bit that moves. Regenerate with -update only for an
// intended model change.
func TestRunBitsGolden(t *testing.T) {
	got := runBitsLines()
	if *update {
		data := []byte(strings.Join(got, "\n") + "\n")
		if err := os.WriteFile(runBitsGolden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s updated (%d cases)", runBitsGolden, len(got))
		return
	}
	data, err := os.ReadFile(runBitsGolden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestRunBitsGolden -update` to create it)", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("case %d differs\n got: %s\nwant: %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases differ from %s", bad, len(got), runBitsGolden)
	}
	// The grid must reach both shapes of Run's result: one segment (under
	// the cap, or a spike shorter than the limiter's reaction window) and
	// an overshoot followed by a throttled remainder.
	var one, two int
	for _, l := range got {
		switch strings.Count(l, " ") {
		case 2 + 9:
			one++
		case 2 + 18:
			two++
		}
	}
	if one == 0 || two == 0 {
		t.Errorf("grid covers %d single-segment and %d throttled runs; want both", one, two)
	}
}
