// Package gpu models an NVIDIA A100-class datacenter GPU at the level of
// detail the paper's characterization needs: a roofline performance model
// (tensor-core math throughput vs. HBM bandwidth), a DVFS power model
// (dynamic power scales superlinearly with SM clock), and the three power
// management knobs the paper studies — in-band frequency locking, reactive
// power capping, and the out-of-band power brake.
//
// The model is analytical, not cycle-accurate. What must be faithful, and
// is validated by this package's tests, is the *shape* of power over time:
// compute-dense phases draw power at or transiently above TDP, memory-bound
// phases draw a stable ~60-75% of TDP, power capping clips peaks reactively
// (spikes shorter than the limiter's reaction window still overshoot,
// Figure 9), and frequency locking trades a superlinear amount of power for
// a sublinear amount of performance (Figure 10).
package gpu

import (
	"fmt"
	"math"
	"time"

	"polca/internal/llm"
)

// Spec describes a GPU SKU. All power figures are per GPU.
type Spec struct {
	Name string

	TDPWatts  float64 // board power limit the default cap sits at
	IdleWatts float64 // power drawn with clocks idling

	MaxSMClockMHz   float64 // boost clock (100% performance reference)
	BaseSMClockMHz  float64 // base clock (paper: 1275 MHz on A100)
	MinSMClockMHz   float64 // lowest lockable clock
	BrakeSMClockMHz float64 // clock forced by the OOB power brake (Table 5: 288 MHz)

	MemoryGB            float64
	MemBandwidthGBps    float64       // HBM bandwidth; independent of SM clock domain
	NVLinkGBps          float64       // per-GPU interconnect bandwidth
	TensorFP16TFLOPS    float64       // peak dense FP16 tensor-core throughput
	TensorFP8TFLOPS     float64       // peak dense FP8 throughput (0 = unsupported)
	FP32TFLOPS          float64       // peak non-tensor FP32 throughput
	TensorINT8TOPS      float64       // peak INT8 tensor throughput
	DVFSAlpha           float64       // dynamic power ∝ (f/fmax)^alpha (V tracks f)
	TensorWatts         float64       // dynamic power of fully-busy tensor pipes at fmax
	SMWatts             float64       // dynamic power of non-tensor SM activity at fmax
	ClockWatts          float64       // clock-tree/uncore dynamic power while any engine is busy
	MemWatts            float64       // dynamic power of fully-busy HBM interface
	CapReactionInterval time.Duration // reactive power-limiter response time
}

// A100SXM80GB returns the spec of the NVIDIA A100-SXM4-80GB used for the
// paper's inference characterization.
func A100SXM80GB() Spec {
	return Spec{
		Name:                "A100-SXM4-80GB",
		TDPWatts:            400,
		IdleWatts:           82,
		MaxSMClockMHz:       1410,
		BaseSMClockMHz:      1275,
		MinSMClockMHz:       210,
		BrakeSMClockMHz:     288,
		MemoryGB:            80,
		MemBandwidthGBps:    2039,
		NVLinkGBps:          600,
		TensorFP16TFLOPS:    312,
		FP32TFLOPS:          19.5,
		TensorINT8TOPS:      624,
		DVFSAlpha:           2.2,
		TensorWatts:         320,
		SMWatts:             120,
		ClockWatts:          60,
		MemWatts:            140,
		CapReactionInterval: 100 * time.Millisecond,
	}
}

// H100SXM80GB returns the spec of an NVIDIA H100-SXM5-80GB, the next
// generation the paper's discussion anticipates (DGX-H100: 8U, 10.2 kW,
// §6.7; FP8 transformer engine, §4.2). Numbers follow the public SXM5
// datasheet; power-split coefficients are scaled from the A100 model.
func H100SXM80GB() Spec {
	return Spec{
		Name:                "H100-SXM5-80GB",
		TDPWatts:            700,
		IdleWatts:           105,
		MaxSMClockMHz:       1980,
		BaseSMClockMHz:      1590,
		MinSMClockMHz:       210,
		BrakeSMClockMHz:     396,
		MemoryGB:            80,
		MemBandwidthGBps:    3350,
		NVLinkGBps:          900,
		TensorFP16TFLOPS:    989,
		TensorFP8TFLOPS:     1979,
		FP32TFLOPS:          67,
		TensorINT8TOPS:      1979,
		DVFSAlpha:           2.2,
		TensorWatts:         560,
		SMWatts:             190,
		ClockWatts:          100,
		MemWatts:            240,
		CapReactionInterval: 100 * time.Millisecond,
	}
}

// A100SXM40GB returns the spec of the NVIDIA A100-SXM4-40GB used for the
// paper's training characterization.
func A100SXM40GB() Spec {
	s := A100SXM80GB()
	s.Name = "A100-SXM4-40GB"
	s.MemoryGB = 40
	s.MemBandwidthGBps = 1555
	return s
}

// PeakFLOPS returns the peak math throughput (FLOP/s) for a datatype,
// before kernel efficiency.
func (s Spec) PeakFLOPS(dt llm.DType) float64 {
	switch dt {
	case llm.FP16:
		return s.TensorFP16TFLOPS * 1e12
	case llm.INT8:
		return s.TensorINT8TOPS * 1e12
	case llm.FP8:
		if s.TensorFP8TFLOPS > 0 {
			return s.TensorFP8TFLOPS * 1e12
		}
		// Pre-Hopper GPUs run FP8 weights through FP16 pipes.
		return s.TensorFP16TFLOPS * 1e12
	case llm.FP32:
		return s.FP32TFLOPS * 1e12
	}
	return s.FP32TFLOPS * 1e12
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.TDPWatts <= 0 || s.IdleWatts <= 0 || s.IdleWatts >= s.TDPWatts:
		return fmt.Errorf("gpu: %s: bad power envelope", s.Name)
	case s.MaxSMClockMHz <= 0 || s.MinSMClockMHz <= 0 || s.MinSMClockMHz > s.MaxSMClockMHz:
		return fmt.Errorf("gpu: %s: bad clock range", s.Name)
	case s.BaseSMClockMHz < s.MinSMClockMHz || s.BaseSMClockMHz > s.MaxSMClockMHz:
		return fmt.Errorf("gpu: %s: base clock outside range", s.Name)
	case s.MemBandwidthGBps <= 0 || s.TensorFP16TFLOPS <= 0:
		return fmt.Errorf("gpu: %s: bad throughput", s.Name)
	case s.DVFSAlpha < 1:
		return fmt.Errorf("gpu: %s: DVFS alpha < 1", s.Name)
	}
	return nil
}

// Phase is a unit of GPU work with homogeneous behaviour: a prompt pass, a
// single token-sampling step (or a run of identical steps), a training
// forward/backward pass, or a synchronization interval. Costs are per GPU
// (the caller divides model-level costs by the parallel degree).
type Phase struct {
	Name  string
	DType llm.DType

	FLOPs    float64 // math work on this GPU
	MemBytes float64 // HBM traffic on this GPU
	// TensorFrac is the fraction of math work that runs on tensor cores
	// (the rest is scalar/vector SM work). It shapes the power split, not
	// the timing. Prompt/GEMM phases ≈ 1.
	TensorFrac float64
	// Efficiency derates the achieved math throughput below the datatype's
	// kernel efficiency (small kernels, low occupancy). Zero means 1.0.
	// Lower efficiency lengthens the phase and proportionally idles the
	// tensor pipes, lowering instantaneous power — this is why RoBERTa's
	// training iterations stay below TDP in Figure 4 while GPT-NeoX's
	// exceed it.
	Efficiency float64

	// CommSeconds is interconnect time that neither SM nor HBM can hide
	// (all-reduce latency, pipeline bubbles). It does not scale with clock.
	CommSeconds float64
	// OverheadSeconds is kernel-launch and small-op time measured at max
	// clock; it scales inversely with the SM clock ratio.
	OverheadSeconds float64
}

// Counters is the set of DCGM-style performance counters the paper profiles
// (Figure 7). Each is a 0..1 activity fraction except PowerWatts.
type Counters struct {
	PowerWatts     float64
	GPUUtil        float64 // any engine busy
	MemUtil        float64 // memory *capacity* in use fraction
	SMActivity     float64
	TensorActivity float64
	MemActivity    float64 // memory *bandwidth* activity
	PCIeTXMBps     float64
	PCIeRXMBps     float64
}

// Segment is a stretch of simulated execution with constant behaviour.
type Segment struct {
	Duration time.Duration
	Counters Counters
}

// Exec is the result of running a phase: a piecewise-constant power/counter
// timeline plus the total elapsed time.
type Exec struct {
	Segments []Segment
	Duration time.Duration
}

// Device is a stateful GPU with its management knobs. Device is not
// safe for concurrent use; in the simulator each device is owned by its
// server's event handlers.
type Device struct {
	spec Spec

	lockedClockMHz float64 // 0 = unlocked (boost to max)
	powerCapWatts  float64
	brake          bool

	memUsedGB float64 // resident model weights+KV, for the MemUtil counter

	// Manufacturing variation (silicon lottery): multipliers on dynamic
	// power and achieved throughput, 1.0 by default. Large fleets show a
	// few percent of both (the paper cites characterizations of A100
	// variability).
	powerVar float64
	perfVar  float64
}

// NewDevice returns a Device with default settings: unlocked clocks and the
// power cap at TDP.
func NewDevice(spec Spec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Device{spec: spec, powerCapWatts: spec.TDPWatts, powerVar: 1, perfVar: 1}
}

// SetVariation sets the device's silicon-lottery multipliers: power scales
// dynamic power draw, perf scales achieved math throughput. Both are
// clamped to ±10% around nominal. Fleet models draw these per device to
// reproduce the per-server scatter of Figure 11.
func (d *Device) SetVariation(power, perf float64) {
	clamp := func(x float64) float64 {
		return math.Min(math.Max(x, 0.9), 1.1)
	}
	d.powerVar = clamp(power)
	d.perfVar = clamp(perf)
}

// Variation returns the device's power and performance multipliers.
func (d *Device) Variation() (power, perf float64) { return d.powerVar, d.perfVar }

// Spec returns the device's SKU description.
func (d *Device) Spec() Spec { return d.spec }

// LockClock locks the SM clock to mhz (clamped to the spec's range),
// emulating `nvidia-smi -lgc`. Passing 0 unlocks.
func (d *Device) LockClock(mhz float64) {
	if mhz == 0 {
		d.lockedClockMHz = 0
		return
	}
	d.lockedClockMHz = math.Min(math.Max(mhz, d.spec.MinSMClockMHz), d.spec.MaxSMClockMHz)
}

// LockedClock returns the locked SM clock in MHz, or 0 if unlocked.
func (d *Device) LockedClock() float64 { return d.lockedClockMHz }

// SetPowerCap sets the reactive power limit in watts, emulating
// `nvidia-smi -pl`. Values are clamped to [idle+10%, TDP].
func (d *Device) SetPowerCap(watts float64) {
	lo := d.spec.IdleWatts * 1.1
	d.powerCapWatts = math.Min(math.Max(watts, lo), d.spec.TDPWatts)
}

// PowerCap returns the current power cap in watts.
func (d *Device) PowerCap() float64 { return d.powerCapWatts }

// SetBrake engages or releases the OOB power brake, which forces the SM
// clock to the spec's brake clock regardless of other settings.
func (d *Device) SetBrake(on bool) { d.brake = on }

// Brake reports whether the power brake is engaged.
func (d *Device) Brake() bool { return d.brake }

// SetMemUsedGB records resident memory for the MemUtil counter.
func (d *Device) SetMemUsedGB(gb float64) {
	d.memUsedGB = math.Min(math.Max(gb, 0), d.spec.MemoryGB)
}

// clockCeilingMHz returns the highest SM clock currently allowed by the
// lock and brake settings (the power cap throttles reactively, below).
func (d *Device) clockCeilingMHz() float64 {
	c := d.spec.MaxSMClockMHz
	if d.lockedClockMHz > 0 {
		c = d.lockedClockMHz
	}
	if d.brake {
		c = math.Min(c, d.spec.BrakeSMClockMHz)
	}
	return c
}

// effFactor returns the phase's occupancy derate (1.0 when unset).
func (p Phase) effFactor() float64 {
	if p.Efficiency <= 0 || p.Efficiency > 1 {
		return 1
	}
	return p.Efficiency
}

// roofline is one phase on one device with the terms of its timing and
// power that do not depend on the clock ratio — the datatype's derated peak
// throughput, the memory time and the occupancy derate — computed once, so
// the power-cap bisection's probes pay only for the ratio-dependent ones.
// Run, PeakPower and the bisection all evaluate the phase through it.
type roofline struct {
	d    *Device
	p    *Phase
	effF float64 // p.effFactor()
	peak float64 // PeakFLOPS × (KernelEfficiency × effF)
	tm   float64 // memory time, which the clock does not change
}

func (d *Device) roofline(p *Phase) roofline {
	s := &d.spec
	effF := p.effFactor()
	return roofline{
		d: d, p: p, effF: effF,
		peak: s.PeakFLOPS(p.DType) * (p.DType.KernelEfficiency() * effF),
		tm:   p.MemBytes / (s.MemBandwidthGBps * 1e9),
	}
}

// timing returns the phase's duration and compute time at clock ratio r.
func (m *roofline) timing(r float64) (total, tc float64) {
	flops := m.peak * r * m.d.perfVar
	if flops > 0 {
		tc = m.p.FLOPs / flops
	}
	total = max(tc, m.tm) + m.p.CommSeconds + m.p.OverheadSeconds/r
	return total, tc
}

// activity derives the clamped activity fractions and the power of the
// phase executing at clock ratio r, given its timing; a phase with no
// duration draws idle power.
func (m *roofline) activity(r, total, tc float64) (power, util, smAct, tensorAct, memAct float64) {
	s, p := &m.d.spec, m.p
	if total <= 0 {
		return s.IdleWatts, 0, 0, 0, 0
	}
	overhead := p.OverheadSeconds / r
	// tc is already inflated by low occupancy; the tensor pipes are only
	// effFactor-busy during it, so instantaneous power scales back down.
	tensorAct = min(max(tc*p.TensorFrac*m.effF/total, 0), 1)
	smAct = min(max((tc+overhead)/total, 0), 1)
	memAct = min(max(m.tm/total, 0), 1)
	util = min(max((max(tc, m.tm)+overhead)/total, 0), 1)

	dyn := math.Pow(r, s.DVFSAlpha) * m.d.powerVar
	power = s.IdleWatts +
		dyn*(s.TensorWatts*tensorAct+s.SMWatts*max(smAct-tensorAct, 0)+s.ClockWatts*util) +
		s.MemWatts*memAct*m.d.powerVar
	return power, util, smAct, tensorAct, memAct
}

// counters returns the counter values of the phase executing at clock ratio
// r, given its timing.
func (m *roofline) counters(r, total, tc float64) Counters {
	power, util, smAct, tensorAct, memAct := m.activity(r, total, tc)
	return Counters{
		PowerWatts:     power,
		GPUUtil:        util,
		MemUtil:        m.d.memUsedGB / m.d.spec.MemoryGB,
		SMActivity:     smAct,
		TensorActivity: tensorAct,
		MemActivity:    memAct,
		PCIeTXMBps:     150 * util,
		PCIeRXMBps:     180 * util,
	}
}

// power returns the phase's steady-state power at clock ratio r.
func (m *roofline) power(r float64) float64 {
	total, tc := m.timing(r)
	power, _, _, _, _ := m.activity(r, total, tc)
	return power
}

// idleCounters returns the counter set for an idle device.
func (d *Device) idleCounters() Counters {
	return Counters{PowerWatts: d.spec.IdleWatts, MemUtil: d.memUsedGB / d.spec.MemoryGB}
}

// Idle returns an Exec representing d idling for the given duration.
func (d *Device) Idle(dur time.Duration) Exec {
	return Exec{
		Segments: []Segment{{Duration: dur, Counters: d.idleCounters()}},
		Duration: dur,
	}
}

// throttleRatioFor returns the largest clock ratio <= maxRatio at which the
// phase's steady-state power respects the cap. The solution accounts for
// activity fractions changing as the clock drops (a memory-bound phase
// becomes no less memory-bound at lower clocks), solved by bisection.
// hiPower is the phase's power at maxRatio, which the caller has already
// computed.
func (d *Device) throttleRatioFor(p *Phase, maxRatio, hiPower float64) float64 {
	lo := d.spec.MinSMClockMHz / d.spec.MaxSMClockMHz
	hi := maxRatio
	if hiPower <= d.powerCapWatts {
		return hi
	}
	m := d.roofline(p)
	if m.power(lo) > d.powerCapWatts {
		return lo
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if m.power(mid) > d.powerCapWatts {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// Run executes a phase under the device's current knob settings and returns
// its piecewise-constant power timeline.
//
// The reactive power limiter is modelled as in Figure 9: for the first
// CapReactionInterval of a phase the device runs at the clock ceiling, so
// instantaneous power may overshoot the cap; after the reaction interval
// the limiter settles the clock at the highest value that respects the cap
// (extending the phase's duration accordingly). Frequency locks and the
// power brake bound the clock from the start and never overshoot.
func (d *Device) Run(p Phase) Exec {
	var e Exec
	d.RunInto(p, &e)
	return e
}

// RunInto is Run with a caller-owned result: the previous contents of e are
// discarded and its Segments backing array is reused, so steady-state
// callers (the serving scheduler times millions of iterations) pay no
// allocation once the buffer has warmed up.
func (d *Device) RunInto(p Phase, e *Exec) {
	if p.FLOPs < 0 || p.MemBytes < 0 || p.CommSeconds < 0 || p.OverheadSeconds < 0 {
		panic(fmt.Sprintf("gpu: negative work in phase %q", p.Name))
	}
	e.Segments = e.Segments[:0]
	e.Duration = 0
	maxRatio := d.clockCeilingMHz() / d.spec.MaxSMClockMHz

	m := d.roofline(&p)
	fullTotal, tc := m.timing(maxRatio)
	if fullTotal <= 0 {
		return
	}
	full := m.counters(maxRatio, fullTotal, tc)

	if full.PowerWatts <= d.powerCapWatts+1e-9 {
		dur := secToDur(fullTotal)
		e.Segments = append(e.Segments, Segment{Duration: dur, Counters: full})
		e.Duration = dur
		return
	}

	// Cap violated: overshoot segment, then throttled remainder.
	react := d.spec.CapReactionInterval.Seconds()
	if fullTotal <= react {
		// Spike shorter than the limiter's reaction: full overshoot.
		dur := secToDur(fullTotal)
		e.Segments = append(e.Segments, Segment{Duration: dur, Counters: full})
		e.Duration = dur
		return
	}
	throttled := d.throttleRatioFor(&p, maxRatio, full.PowerWatts)
	doneFrac := react / fullTotal // fraction of work done before throttling
	rest := p.Scale(1 - doneFrac)
	rm := d.roofline(&rest)
	restTotal, rtc := rm.timing(throttled)
	restCtr := rm.counters(throttled, restTotal, rtc)
	e.Segments = append(e.Segments,
		Segment{Duration: secToDur(react), Counters: full},
		Segment{Duration: secToDur(restTotal), Counters: restCtr},
	)
	e.Duration = e.Segments[0].Duration + e.Segments[1].Duration
}

// Scale returns a copy of the phase with all work multiplied by frac. The
// cluster simulator uses it to re-plan the remainder of an in-flight phase
// when a management action changes the device's clocks mid-execution.
func (p Phase) Scale(frac float64) Phase {
	q := p
	q.FLOPs *= frac
	q.MemBytes *= frac
	q.CommSeconds *= frac
	q.OverheadSeconds *= frac
	return q
}

// secToDur converts seconds to a time.Duration, saturating at MaxInt64.
func secToDur(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	ns := s * 1e9
	if ns > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}

// PeakPower returns the instantaneous power the device would draw running
// the phase at its current clock ceiling, ignoring the power cap (i.e. the
// height of the initial spike).
func (d *Device) PeakPower(p Phase) float64 {
	maxRatio := d.clockCeilingMHz() / d.spec.MaxSMClockMHz
	m := d.roofline(&p)
	return m.power(maxRatio)
}

// MeanPower returns the time-weighted mean power of an Exec.
func (e Exec) MeanPower() float64 {
	if e.Duration <= 0 {
		return 0
	}
	var wsum float64
	for _, s := range e.Segments {
		wsum += s.Counters.PowerWatts * s.Duration.Seconds()
	}
	return wsum / e.Duration.Seconds()
}

// PeakPower returns the maximum segment power of an Exec.
func (e Exec) PeakPower() float64 {
	peak := 0.0
	for _, s := range e.Segments {
		if s.Counters.PowerWatts > peak {
			peak = s.Counters.PowerWatts
		}
	}
	return peak
}

// CountersAt returns the counters in effect at the given offset into the
// execution (the last segment's counters at or past the end; zero Counters
// for an empty exec).
func (e Exec) CountersAt(offset time.Duration) Counters {
	c, _ := e.SegmentAt(offset)
	return c
}

// SegmentAt returns the counters CountersAt reports for offset and the
// offset up to which they hold: the end of offset's segment, or MaxInt64
// for the last segment (which CountersAt extends past the end) and for an
// empty exec.
func (e Exec) SegmentAt(offset time.Duration) (Counters, time.Duration) {
	if len(e.Segments) == 0 {
		return Counters{}, math.MaxInt64
	}
	var at time.Duration
	for _, s := range e.Segments[:len(e.Segments)-1] {
		at += s.Duration
		if offset < at {
			return s.Counters, at
		}
	}
	return e.Segments[len(e.Segments)-1].Counters, math.MaxInt64
}

// PowerAt returns the instantaneous power at the given offset into the
// execution.
func (e Exec) PowerAt(offset time.Duration) float64 {
	return e.CountersAt(offset).PowerWatts
}

// Energy returns the energy of an Exec in joules.
func (e Exec) Energy() float64 {
	var j float64
	for _, s := range e.Segments {
		j += s.Counters.PowerWatts * s.Duration.Seconds()
	}
	return j
}

// EnergyUpTo returns the energy of the execution's first offset of runtime
// in joules (the whole-exec energy at or past the end). The serving
// backend uses it to settle the consumed share of an iteration that is
// re-planned mid-flight or cancelled by a node death.
func (e Exec) EnergyUpTo(offset time.Duration) float64 {
	if offset >= e.Duration {
		return e.Energy()
	}
	var j float64
	var at time.Duration
	for _, s := range e.Segments {
		if offset <= at {
			break
		}
		d := s.Duration
		if at+d > offset {
			d = offset - at
		}
		j += s.Counters.PowerWatts * d.Seconds()
		at += s.Duration
	}
	return j
}
