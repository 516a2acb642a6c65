package cluster_test

import (
	"testing"

	"polca/internal/cluster"
	"polca/internal/gpu"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// epochCtrl counts the callbacks the epoch state machine makes.
type epochCtrl struct{ delivered, resets int }

func (c *epochCtrl) Name() string                                    { return "epoch" }
func (c *epochCtrl) OnTelemetry(sim.Time, float64, cluster.Actuator) { c.delivered++ }
func (c *epochCtrl) Reset()                                          { c.resets++ }

// lossEpochCtrl is epochCtrl made loss-aware.
type lossEpochCtrl struct {
	epochCtrl
	lost int
}

func (c *lossEpochCtrl) OnTelemetryLoss(sim.Time, cluster.Actuator) { c.lost++ }

// lockAct holds the desired pool locks.
type lockAct struct{ locks [2]float64 }

func (a *lockAct) SetPoolLock(p workload.Priority, mhz float64) { a.locks[p] = mhz }
func (a *lockAct) PoolLock(p workload.Priority) float64         { return a.locks[p] }
func (a *lockAct) GPUSpec() gpu.Spec                            { return gpu.A100SXM80GB() }
func (a *lockAct) Observer() *obs.Observer                      { return nil }

// TestEpochTransitions drives the epoch state machine alone over flag
// sequences, one rune per epoch: D down, M missed, L lost, . delivered,
// R restarted and delivered, _ no flag. want holds one rune per epoch: E
// engage, X release, - hold.
func TestEpochTransitions(t *testing.T) {
	cases := []struct {
		name      string
		lossAware bool
		k         int
		flags     string
		want      string
		delivered int
		lost      int
		resets    int
	}{
		{name: "k silent epochs engage on the k-th", k: 3, flags: "DDDDD.", want: "--E--X", delivered: 1},
		{name: "missed and flagless epochs are silence", k: 3, flags: "M_DM.", want: "--E-X", delivered: 1},
		{name: "contact restarts the count", k: 3, flags: "DD.DD.", want: "------", delivered: 2},
		{name: "zero watchdog epochs never engage", k: 0, flags: "DDDDDDDD", want: "--------"},
		{name: "negative watchdog epochs never engage", k: -1, flags: "MMMMMMMM", want: "--------"},
		{name: "lost is silence when not loss-aware", k: 2, flags: "DLD.", want: "-E-X", delivered: 1},
		{name: "lost is contact when loss-aware", lossAware: true, k: 2, flags: "DLDLL", want: "-----", lost: 3},
		{name: "loss-aware lost releases", lossAware: true, k: 2, flags: "DDL.", want: "-EX-", lost: 1, delivered: 1},
		{name: "restart resets once", k: 2, flags: "DDDR..", want: "-E-X--", delivered: 3, resets: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ctrl cluster.Controller
			base := &epochCtrl{}
			lc := &lossEpochCtrl{}
			if tc.lossAware {
				ctrl, base = lc, &lc.epochCtrl
			} else {
				ctrl = base
			}
			ep := cluster.NewEpoch(ctrl, tc.k, 0, 0)
			act := &lockAct{}
			got := make([]byte, 0, len(tc.flags))
			for i, f := range tc.flags {
				d := obs.Decision{At: sim.Time(i), Reading: 0.5}
				switch f {
				case 'D':
					d.Down = true
				case 'M':
					d.Missed = true
				case 'L':
					d.Lost = true
				case '.':
					d.Delivered = true
				case 'R':
					d.Reset, d.Delivered = true, true
				}
				tr := ep.Advance(&d)
				ep.Act(&d, act)
				switch tr {
				case cluster.EpochEngage:
					got = append(got, 'E')
					if act.locks[workload.Low] != 1110 || act.locks[workload.High] != 1305 {
						t.Errorf("epoch %d: engaged locks %v, want the default watchdog caps [1110 1305]", i, act.locks)
					}
				case cluster.EpochRelease:
					got = append(got, 'X')
				default:
					got = append(got, '-')
				}
				if tr != cluster.EpochHold && ep.Engaged() != (tr == cluster.EpochEngage) {
					t.Errorf("epoch %d: Engaged() = %v after transition %c", i, ep.Engaged(), got[i])
				}
			}
			if string(got) != tc.want {
				t.Errorf("transitions %q, want %q", got, tc.want)
			}
			if base.delivered != tc.delivered || lc.lost != tc.lost || base.resets != tc.resets {
				t.Errorf("delivered %d, lost %d, resets %d; want %d, %d, %d",
					base.delivered, lc.lost, base.resets, tc.delivered, tc.lost, tc.resets)
			}
		})
	}
}

// TestEpochStepDoesNotAllocate: the epoch step runs on every telemetry
// tick of every row, live and replayed, so it must stay allocation-free.
func TestEpochStepDoesNotAllocate(t *testing.T) {
	ep := cluster.NewEpoch(&lossEpochCtrl{}, 2, 0, 0)
	act := &lockAct{}
	seq := []obs.Decision{{Down: true}, {Down: true}, {Lost: true}, {Missed: true}, {Reset: true, Delivered: true}}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range seq {
			ep.Advance(&seq[i])
			ep.Act(&seq[i], act)
		}
	})
	if allocs != 0 {
		t.Errorf("epoch step allocates %v per sequence, want 0", allocs)
	}
}
