// Package obs is the simulation-time observability layer: a structured
// event tracer, a request span tracer, a decision-provenance recorder, a
// metrics registry, a bounded sim-time TSDB with alert rules, a sweep
// progress tracker, and a live HTTP introspection endpoint. The three
// recorders share one record core (record.go) and every Chrome trace one
// writer (ChromeTrace). It exists so a surprising result — a
// GOODPUT dip at one threshold combination, a brake storm under drifted
// intensity — can be audited from the run's own telemetry instead of a
// re-run under a debugger.
//
// Design contract (enforced by benchmarks and tests):
//
//   - The disabled path is near-free. Every type in this package accepts a
//     nil receiver as "observability off": a nil *Tracer, *Counter, *Gauge,
//     *Histogram, *Progress or *Observer short-circuits before any
//     allocation or lock, so instrumented code needs no conditional
//     plumbing at call sites.
//   - Observation never perturbs simulation results. Nothing in this
//     package touches the simulation's random streams or event queue;
//     enabling tracing must leave every simulated metric byte-identical.
//
// The package deliberately depends only on the standard library (times are
// plain time.Duration, which sim.Time aliases), so every layer of the
// stack — the engine, the cluster, the policies, the sweep executor — can
// import it without cycles.
package obs

import "time"

// Kind enumerates the event taxonomy. Events are typed rather than
// free-form so exports can build tracks and reconciliation tests can
// count: the cap/uncap stream must agree exactly with the run's reported
// capping summary.
type Kind uint8

const (
	KindNone Kind = iota
	// KindThreshold is a policy decision: a capping threshold engaged or
	// released. Reason carries the transition ("t1.engage", "t2.hp.release"),
	// Value the utilization that caused it, Label the policy name.
	KindThreshold
	// KindCapRequest is the policy's desired pool lock changing (the row
	// records it immediately; actuation follows asynchronously). Pool and
	// MHz carry the target (MHz 0 = unlock).
	KindCapRequest
	// KindOOBIssue is one out-of-band lock command issued to a server.
	KindOOBIssue
	// KindOOBFail is an OOB command failing silently (to be re-issued).
	KindOOBFail
	// KindCapApply is a lock landing on a server (MHz > 0).
	KindCapApply
	// KindCapRelease is an unlock landing on a server.
	KindCapRelease
	// KindArrive is a request admitted at the row's front door.
	KindArrive
	// KindDrop is a request shed because the pool's buffering was full.
	KindDrop
	// KindComplete is a request finishing; Value is its end-to-end latency
	// in seconds, Server the node that served it.
	KindComplete
	// KindBrakeTrigger is the row manager deciding to engage the power
	// brake (Value = utilization); KindBrakeEngage is the brake landing
	// after its latency; KindBrakeRelease is the brake releasing.
	KindBrakeTrigger
	KindBrakeEngage
	KindBrakeRelease
	// KindGridStart and KindGridDone bracket one sweep grid point in the
	// parallel executor. Label identifies the point; Value on GridDone is
	// the wall-clock seconds it took (cached points take ~0).
	KindGridStart
	KindGridDone
	// KindOOBStale is an in-flight OOB command discarded at landing because
	// the desired lock changed during its flight; MHz carries the stale
	// target, Value the current desired lock.
	KindOOBStale
	// KindCtrlCrash and KindCtrlRestart bracket an injected controller
	// outage (the controller restarts with cold state).
	KindCtrlCrash
	KindCtrlRestart
	// KindWatchdogEngage and KindWatchdogRelease bracket the row-side
	// deadman watchdog self-capping after controller silence; Value on
	// engage is the silent-epoch count that tripped it.
	KindWatchdogEngage
	KindWatchdogRelease
	// KindFailSafeEngage and KindFailSafeRelease bracket a controller-side
	// telemetry-validity fail-safe (conservative caps while readings are
	// stale or implausible); Reason carries the cause.
	KindFailSafeEngage
	KindFailSafeRelease
	// KindNodeDeath and KindNodeRevive bracket an injected server-death
	// window for one node.
	KindNodeDeath
	KindNodeRevive
	// KindBatchForm is a serving replica forming one continuous-batching
	// iteration: Server is the replica's node index, Value the iteration's
	// total token count (prompt-chunk tokens + decode steps), Reason
	// "prefill", "decode", or "mixed".
	KindBatchForm
	// KindPreempt is a running sequence preempted for recompute under KV
	// pressure; Value is the KV bytes freed.
	KindPreempt
	// KindKVHighWater is a replica's KV-cache occupancy reaching a new high
	// water; Value is the occupancy as a fraction of KV capacity. Emitted
	// only when the high water grows by at least a capacity step, so the
	// stream stays bounded.
	KindKVHighWater
	// KindAlertFire and KindAlertResolve bracket one alert episode from
	// the rules engine. Label carries the rule name, Reason the rule's
	// condition text; Value is the evaluated expression on fire and the
	// episode's active seconds on resolve.
	KindAlertFire
	KindAlertResolve
	// KindRetry is a dropped serve-mode request re-entering the router
	// under the failover path; Value is the attempt number, Reason the
	// drop reason that triggered the retry.
	KindRetry
	// KindDrain and KindUndrain bracket a replica's graceful-drain window
	// (maintenance action or watchdog drain): in-flight decodes finish,
	// new admissions are refused. Reason names what initiated the drain.
	KindDrain
	KindUndrain
	// KindShedLevel is the SLO-class load-shedding severity changing;
	// Value is the new level (0 = admit everything, 1 = shed batch
	// traffic, 2 = shed everything but the critical class). Reason names
	// the emergency signal that moved the level.
	KindShedLevel
	// KindCircuitOpen is a replica's admission circuit opening after too
	// many queue-full sheds inside one telemetry epoch; Value is the shed
	// count that tripped it.
	KindCircuitOpen
)

var kindNames = [...]string{
	KindNone:            "none",
	KindThreshold:       "policy.threshold",
	KindCapRequest:      "cap.request",
	KindOOBIssue:        "oob.issue",
	KindOOBFail:         "oob.fail",
	KindCapApply:        "cap.apply",
	KindCapRelease:      "cap.release",
	KindArrive:          "req.arrive",
	KindDrop:            "req.drop",
	KindComplete:        "req.complete",
	KindBrakeTrigger:    "brake.trigger",
	KindBrakeEngage:     "brake.engage",
	KindBrakeRelease:    "brake.release",
	KindGridStart:       "grid.start",
	KindGridDone:        "grid.done",
	KindOOBStale:        "oob.stale",
	KindCtrlCrash:       "ctrl.crash",
	KindCtrlRestart:     "ctrl.restart",
	KindWatchdogEngage:  "watchdog.engage",
	KindWatchdogRelease: "watchdog.release",
	KindFailSafeEngage:  "failsafe.engage",
	KindFailSafeRelease: "failsafe.release",
	KindNodeDeath:       "node.death",
	KindNodeRevive:      "node.revive",
	KindBatchForm:       "batch.form",
	KindPreempt:         "preempt",
	KindKVHighWater:     "kv.highwater",
	KindAlertFire:       "alert.fire",
	KindAlertResolve:    "alert.resolve",
	KindRetry:           "req.retry",
	KindDrain:           "replica.drain",
	KindUndrain:         "replica.undrain",
	KindShedLevel:       "shed.level",
	KindCircuitOpen:     "circuit.open",
}

// String returns the event kind's wire name ("cap.apply").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a wire name back to its Kind. It is the inverse of
// String for every kind except KindNone; the exhaustive round-trip test
// keeps the two in lockstep so a new kind cannot ship without a name.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s && k != int(KindNone) {
			return Kind(k), true
		}
	}
	return KindNone, false
}

// Pool codes for Event.Pool. They match workload.Priority's values so
// emitters can convert with a plain cast.
const (
	PoolNone int8 = -1
	PoolLow  int8 = 0
	PoolHigh int8 = 1
)

// PoolName returns "low", "high", or "" for PoolNone.
func PoolName(p int8) string {
	switch p {
	case PoolLow:
		return "low"
	case PoolHigh:
		return "high"
	}
	return ""
}

// parsePool inverts PoolName for the JSONL decoders.
func parsePool(name string) int8 {
	switch name {
	case "low":
		return PoolLow
	case "high":
		return PoolHigh
	}
	return PoolNone
}

// Event is one traced occurrence. It is a flat value type — no pointers
// besides the two strings, which emitters populate with static literals —
// so emitting does not allocate beyond the tracer's amortized buffer
// growth.
//
// Field use by kind: Server is the node index (or -1), Pool the priority
// pool (or PoolNone), MHz the lock frequency involved (0 = unlock), Value
// a kind-specific measurement (utilization, latency seconds, wall
// seconds), Reason a short static cause ("t1.engage", "silent-failure"),
// Label a run- or policy-level identifier.
type Event struct {
	At     time.Duration // simulated time
	Kind   Kind
	Server int32
	Pool   int8
	MHz    float64
	Value  float64
	Reason string
	Label  string
	// Seq is the tracer-assigned 1-based sequence number. The JSONL export
	// carries it so offline scanners can prove a stream is gap-free instead
	// of trusting timestamp order; 0 marks events built outside a tracer
	// (legacy files, hand-written fixtures) and is omitted on the wire.
	Seq uint64
}

// Sink consumes events. *Tracer is the canonical implementation; the
// simulation layers hold the concrete *Tracer so the disabled (nil) path
// costs a single predictable branch instead of an interface dispatch.
type Sink interface {
	Emit(Event)
}

// Tracer records typed events with simulated timestamps. It is safe for
// concurrent use; a nil *Tracer is a valid disabled sink.
type Tracer struct {
	buf recordBuf[Event]
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{}
}

// Emit records an event, stamping its Seq. On a nil tracer it returns
// immediately — this is the hot-path guard the whole stack relies on (see
// BenchmarkTracerDisabled), so it must stay a single branch before the
// slow path.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.buf.push(ev, stampEvent)
}

func stampEvent(ev *Event, seq uint64) { ev.Seq = seq }

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.buf.len()
}

// Events returns a copy of the recorded events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.buf.snapshot()
}

// CountKind returns how many recorded events have the given kind —
// reconciliation tests count cap/uncap events against the run's metrics.
func (t *Tracer) CountKind(k Kind) int {
	if t == nil {
		return 0
	}
	t.buf.mu.Lock()
	defer t.buf.mu.Unlock()
	n := 0
	for i := range t.buf.recs {
		if t.buf.recs[i].Kind == k {
			n++
		}
	}
	return n
}

// Reset discards recorded events but keeps the buffer capacity. The
// sequence counter restarts too, so each exported stream numbers from 1.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf.reset(nil)
}

// Observer bundles the observability handles a simulation layer needs:
// the event tracer, the metrics registry, and the request span tracer. A
// nil *Observer (or nil fields) disables the corresponding instrument;
// every accessor is nil-safe so holders never check.
//
// Labels, when non-empty, is a Prometheus label list (`k="v",k2="v2"`)
// injected into every metric name created through this observer — the CLIs
// use it to scope one shared registry per policy or per sweep grid point.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry
	Spans   *SpanTracer
	Labels  string

	// DB, when set, is the sim-time TSDB the cluster wiring registers its
	// telemetry series into; Rules is the alert/recording rules engine the
	// row evaluates on each telemetry tick. Both are nil-safe when unset.
	DB    *TSDB
	Rules *Rules

	// Decisions, when set, records full-input decision provenance (every
	// controller tick and router pick with the snapshot the policy saw) for
	// offline counterfactual replay. Nil-safe when unset.
	Decisions *DecisionRecorder
}

// DecisionLog returns the decision-provenance recorder (nil when disabled).
func (o *Observer) DecisionLog() *DecisionRecorder {
	if o == nil {
		return nil
	}
	return o.Decisions
}

// TimeSeries returns the sim-time TSDB (nil when disabled).
func (o *Observer) TimeSeries() *TSDB {
	if o == nil {
		return nil
	}
	return o.DB
}

// RuleEngine returns the alert rules engine (nil when disabled).
func (o *Observer) RuleEngine() *Rules {
	if o == nil {
		return nil
	}
	return o.Rules
}

// Trace returns the tracer (nil when disabled).
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// SpanSink returns the request span tracer (nil when disabled).
func (o *Observer) SpanSink() *SpanTracer {
	if o == nil {
		return nil
	}
	return o.Spans
}

// Emit forwards to the tracer, if any.
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	o.Tracer.Emit(ev)
}

// Counter returns the named counter from the registry with the observer's
// labels applied, or nil when metrics are disabled.
func (o *Observer) Counter(name string) *Counter {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Counter(MergeLabels(name, o.Labels))
}

// Gauge is the gauge analogue of Counter.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Gauge(MergeLabels(name, o.Labels))
}

// Histogram is the histogram analogue of Counter; bounds are the bucket
// upper bounds used if the histogram does not exist yet.
func (o *Observer) Histogram(name string, bounds []float64) *Histogram {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Histogram(MergeLabels(name, o.Labels), bounds)
}

// MetricsOnly returns a derived observer with the event and span tracers
// — and the TSDB and rules engine — dropped: the sweep executor attaches
// it to row engines so grid points contribute metrics without flooding
// the sweep-level trace with per-request events, accumulating span trees,
// or cross-wiring hundreds of grid points into one alert engine.
func (o *Observer) MetricsOnly() *Observer {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return &Observer{Metrics: o.Metrics, Labels: o.Labels}
}
