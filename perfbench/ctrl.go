package main

import (
	"time"

	"polca/internal/cluster"
	"polca/internal/sim"
	"polca/internal/workload"
)

// tickTimer times every controller callback of a traced run and counts the
// pool-lock requests the controller makes through its actuator. wrap gives
// the row a controller with exactly the optional interfaces of the inner
// one, so the row takes the same paths with or without the timer.
type tickTimer struct {
	inner cluster.Controller
	ns    []int64
	locks lockCounter
}

func (t *tickTimer) Name() string { return t.inner.Name() }

func (t *tickTimer) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	t.locks.Actuator = act
	start := time.Now()
	t.inner.OnTelemetry(now, util, &t.locks)
	t.ns = append(t.ns, time.Since(start).Nanoseconds())
}

func (t *tickTimer) onTelemetryLoss(now sim.Time, act cluster.Actuator) {
	t.locks.Actuator = act
	start := time.Now()
	t.inner.(cluster.TelemetryLossAware).OnTelemetryLoss(now, &t.locks)
	t.ns = append(t.ns, time.Since(start).Nanoseconds())
}

// total is the time spent in every timed callback.
func (t *tickTimer) total() time.Duration {
	var d int64
	for _, ns := range t.ns {
		d += ns
	}
	return time.Duration(d)
}

// lockCounter passes every call through to the row's actuator, counting
// SetPoolLock requests.
type lockCounter struct {
	cluster.Actuator
	n int
}

func (c *lockCounter) SetPoolLock(p workload.Priority, mhz float64) {
	c.n++
	c.Actuator.SetPoolLock(p, mhz)
}

// The optional controller interfaces the row looks for. Each is embedded
// in the wrapper only when the inner controller implements it.
type (
	lossHook interface {
		OnTelemetryLoss(now sim.Time, act cluster.Actuator)
	}
	failSafer interface{ FailSafeEngaged() bool }
)

// lossTimer times OnTelemetryLoss for a loss-aware inner controller.
type lossTimer struct{ t *tickTimer }

func (l lossTimer) OnTelemetryLoss(now sim.Time, act cluster.Actuator) { l.t.onTelemetryLoss(now, act) }

// wrap returns t as a controller exposing exactly the optional interfaces
// (Restartable, StageReporter, TelemetryLossAware, FailSafeEngaged) that
// t.inner exposes.
func (t *tickTimer) wrap() cluster.Controller {
	r, isR := t.inner.(cluster.Restartable)
	s, isS := t.inner.(cluster.StageReporter)
	_, isL := t.inner.(cluster.TelemetryLossAware)
	f, isF := t.inner.(failSafer)
	l := lossTimer{t}
	mask := 0
	for i, has := range []bool{isR, isS, isL, isF} {
		if has {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0b0001:
		return struct {
			*tickTimer
			cluster.Restartable
		}{t, r}
	case 0b0010:
		return struct {
			*tickTimer
			cluster.StageReporter
		}{t, s}
	case 0b0011:
		return struct {
			*tickTimer
			cluster.Restartable
			cluster.StageReporter
		}{t, r, s}
	case 0b0100:
		return struct {
			*tickTimer
			lossHook
		}{t, l}
	case 0b0101:
		return struct {
			*tickTimer
			cluster.Restartable
			lossHook
		}{t, r, l}
	case 0b0110:
		return struct {
			*tickTimer
			cluster.StageReporter
			lossHook
		}{t, s, l}
	case 0b0111:
		return struct {
			*tickTimer
			cluster.Restartable
			cluster.StageReporter
			lossHook
		}{t, r, s, l}
	case 0b1000:
		return struct {
			*tickTimer
			failSafer
		}{t, f}
	case 0b1001:
		return struct {
			*tickTimer
			cluster.Restartable
			failSafer
		}{t, r, f}
	case 0b1010:
		return struct {
			*tickTimer
			cluster.StageReporter
			failSafer
		}{t, s, f}
	case 0b1011:
		return struct {
			*tickTimer
			cluster.Restartable
			cluster.StageReporter
			failSafer
		}{t, r, s, f}
	case 0b1100:
		return struct {
			*tickTimer
			lossHook
			failSafer
		}{t, l, f}
	case 0b1101:
		return struct {
			*tickTimer
			cluster.Restartable
			lossHook
			failSafer
		}{t, r, l, f}
	case 0b1110:
		return struct {
			*tickTimer
			cluster.StageReporter
			lossHook
			failSafer
		}{t, s, l, f}
	case 0b1111:
		return struct {
			*tickTimer
			cluster.Restartable
			cluster.StageReporter
			lossHook
			failSafer
		}{t, r, s, l, f}
	}
	return t
}
