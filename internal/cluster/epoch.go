package cluster

import (
	"polca/internal/obs"
	"polca/internal/workload"
)

// Epoch is the controller-epoch state machine: it turns one telemetry
// epoch's recorded flags into what the controller sees and what the row's
// deadman watchdog does. The live row and the counterfactual replay both
// drive it, so a replayed epoch runs exactly the procedure the row ran.
//
// An epoch is two calls: Advance folds the flags into the state and
// reports the watchdog transition, then Act performs the epoch's
// actuation. The row adds its own effects of a transition (trace events,
// drain) around Act, which keeps the live event order.
type Epoch struct {
	// wdEpochs consecutive silent epochs engage the watchdog (<= 0 never
	// does), which then locks the pools at wdLPMHz and wdHPMHz.
	wdEpochs         int
	wdLPMHz, wdHPMHz float64

	ctrl    Controller
	restart Restartable        // nil unless ctrl restarts cold
	loss    TelemetryLossAware // nil unless ctrl is loss-aware
	silent  int
	engaged bool
	pending epochAction // what Act does for the epoch Advance saw
}

// EpochTransition is the watchdog transition one epoch caused.
type EpochTransition uint8

const (
	EpochHold    EpochTransition = iota // no change
	EpochEngage                         // silence ran out the watchdog's patience
	EpochRelease                        // controller contact while engaged
)

type epochAction uint8

const (
	actNone epochAction = iota
	actWatchdog
	actLoss
	actDeliver
)

// NewEpoch returns the epoch state machine for ctrl. Zero watchdog clocks
// default to the Table 5 deep caps (1110 MHz low priority, 1305 MHz high).
func NewEpoch(ctrl Controller, watchdogEpochs int, lpMHz, hpMHz float64) Epoch {
	if lpMHz == 0 {
		lpMHz = 1110
	}
	if hpMHz == 0 {
		hpMHz = 1305
	}
	e := Epoch{wdEpochs: watchdogEpochs, wdLPMHz: lpMHz, wdHPMHz: hpMHz, ctrl: ctrl}
	e.restart, _ = ctrl.(Restartable)
	e.loss, _ = ctrl.(TelemetryLossAware)
	return e
}

// Engaged reports whether the watchdog currently holds the pool locks.
func (e *Epoch) Engaged() bool { return e.engaged }

// Advance folds one epoch's flags into the state. A recovered (Reset)
// controller restarts cold. Down and missed epochs are silence; a lost
// reading is contact for a loss-aware controller and silence otherwise; a
// delivered reading is contact. A tick with no flag cannot be recorded and
// counts as silence rather than inventing a reading. Contact releases the
// watchdog (the controller re-asserts its own locks in Act); the
// watchdogEpochs-th consecutive silent epoch engages it, so a row with no
// policy reacting to power self-caps instead of waiting for the brake.
func (e *Epoch) Advance(d *obs.Decision) EpochTransition {
	if d.Reset && e.restart != nil {
		e.restart.Reset()
	}
	e.pending = actNone
	switch {
	case d.Down, d.Missed:
	case d.Lost:
		if e.loss != nil {
			e.pending = actLoss
		}
	case d.Delivered:
		e.pending = actDeliver
	}
	if e.pending != actNone {
		e.silent = 0
		if !e.engaged {
			return EpochHold
		}
		e.engaged = false
		return EpochRelease
	}
	e.silent++
	if e.wdEpochs <= 0 || e.engaged || e.silent < e.wdEpochs {
		return EpochHold
	}
	e.engaged = true
	e.pending = actWatchdog
	return EpochEngage
}

// Act performs the actuation of the epoch last passed to Advance: the
// watchdog locks on engagement, OnTelemetryLoss for a lost reading, or
// OnTelemetry for a delivered one.
func (e *Epoch) Act(d *obs.Decision, act Actuator) {
	switch e.pending {
	case actWatchdog:
		act.SetPoolLock(workload.Low, e.wdLPMHz)
		act.SetPoolLock(workload.High, e.wdHPMHz)
	case actLoss:
		e.loss.OnTelemetryLoss(d.At, act)
	case actDeliver:
		e.ctrl.OnTelemetry(d.At, d.Reading, act)
	}
	e.pending = actNone
}
