package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// DecisionSchema versions the decision-provenance JSONL wire format. PR 2's
// decision tracer (bare policy.threshold events) was v1 in spirit; v2
// records the full input snapshot each decision was made from, which is
// what makes offline counterfactual replay possible at all.
const DecisionSchema = "polca-decisions/v2"

// DecisionKind separates the two decision streams the row records.
type DecisionKind uint8

const (
	// DecTick is one controller telemetry epoch: the reading the policy
	// saw (or the loss/outage that replaced it), the guard/watchdog/brake
	// state in effect, and the pool locks the policy asked for.
	DecTick DecisionKind = iota + 1
	// DecRoute is one serve-mode router pick: the request being placed and
	// the per-replica queue/KV/cap snapshot the router chose from.
	DecRoute
)

var decisionKindNames = [...]string{
	DecTick:  "tick",
	DecRoute: "route",
}

// String returns the decision kind's wire name ("tick").
func (k DecisionKind) String() string {
	if int(k) < len(decisionKindNames) && decisionKindNames[k] != "" {
		return decisionKindNames[k]
	}
	return "unknown"
}

// ParseDecisionKind maps a wire name back to its DecisionKind.
func ParseDecisionKind(s string) (DecisionKind, bool) {
	for k, name := range decisionKindNames {
		if name == s && k != 0 {
			return DecisionKind(k), true
		}
	}
	return 0, false
}

// Decision is one recorded decision with its full input snapshot: a flat
// value type like Event, so recording costs only the recorder's amortized
// buffer growth. Tick and route decisions share the struct (one arena, one
// sequence) with kind-specific fields; unused fields stay zero.
type Decision struct {
	// Seq is the recorder-assigned 1-based sequence number across both
	// decision kinds, so the scanner can prove a log is gap-free.
	Seq  uint64
	At   time.Duration // simulated time
	Kind DecisionKind

	// Tick inputs: TrueUtil is the physical row utilization the breaker
	// sees; Reading is what telemetry delivered to the controller this
	// epoch (valid only when Delivered). Exactly one of Delivered, Lost,
	// Down, Missed describes the epoch: a reading arrived, a loss-aware
	// controller was told telemetry was lost, the controller was crashed,
	// or the tick was silently missed. Reset marks the controller
	// restarting cold at this epoch (before any delivery).
	TrueUtil  float64
	Reading   float64
	Delivered bool
	Lost      bool
	Down      bool
	Missed    bool
	Reset     bool

	// Tick environment: the row-side state that gates what the policy's
	// output means. Watchdog is the deadman self-cap being engaged;
	// FailSafe is the telemetry guard's conservative cap; Stage is the
	// policy's engagement depth (0 = uncapped) as reported by StageReporter.
	Braked       bool
	BrakePending bool
	Watchdog     bool
	FailSafe     bool
	Stage        int8

	// Tick action: the pool locks desired after the policy ran (0 = uncap).
	LPDesiredMHz float64
	HPDesiredMHz float64

	// Tick load snapshot: busy servers and GPU power per pool, for regret
	// estimation without re-simulation.
	LPBusy  int32
	HPBusy  int32
	LPWatts float64
	HPWatts float64

	// Route inputs: the request being placed and the candidate snapshot
	// (EpOff/EpLen index the recorder's candidate arena).
	ReqID   int64
	Class   string
	Pri     int8
	Retry   int32
	Session int64
	Prefix  int32
	EpOff   int32
	EpLen   int32
	// Chosen is the picked candidate's index into the snapshot (-1 = no
	// server available).
	Chosen int32
}

// RouteCandidate is one routable replica as the router saw it: the
// replica's node index, queued+running load, KV occupancy, and applied cap
// (0 = uncapped). It is the only snapshot type the routers decide from, in
// the live row and when polca-replay re-routes a recorded log.
type RouteCandidate struct {
	Server    int32
	Load      int32
	KVFrac    float64
	CappedMHz float64
}

// Candidates returns the decision's route snapshot from the arena slice
// returned alongside it (nil for tick decisions).
func (d Decision) Candidates(arena []RouteCandidate) []RouteCandidate {
	if d.Kind != DecRoute || d.EpLen == 0 {
		return nil
	}
	return arena[d.EpOff : d.EpOff+d.EpLen]
}

// RungSpec mirrors polca.Rung in the decision-log header.
type RungSpec struct {
	Trigger float64 `json:"trigger"`
	Margin  float64 `json:"margin"`
	Pool    int8    `json:"pool"`
	LockMHz float64 `json:"lock_mhz"`
	Delay   int     `json:"delay,omitempty"`
}

// PolicySpec is the deployed cap policy's full configuration, written to
// the log header so replay can reconstruct the controller (and variants of
// it) without access to the original command line.
type PolicySpec struct {
	// Kind selects the controller family: "polca", "1t" (single
	// threshold), "ladder", or "nocap".
	Kind string `json:"kind"`
	// polca fields.
	T1          float64 `json:"t1,omitempty"`
	T2          float64 `json:"t2,omitempty"`
	UncapMargin float64 `json:"uncap_margin,omitempty"`
	LPBaseMHz   float64 `json:"lp_base_mhz,omitempty"`
	LPDeepMHz   float64 `json:"lp_deep_mhz,omitempty"`
	HPCapMHz    float64 `json:"hp_cap_mhz,omitempty"`
	// 1t fields.
	Threshold float64 `json:"threshold,omitempty"`
	Margin    float64 `json:"margin,omitempty"`
	LockMHz   float64 `json:"lock_mhz,omitempty"`
	All       bool    `json:"all,omitempty"`
	// ladder fields.
	Name  string     `json:"name,omitempty"`
	Rungs []RungSpec `json:"rungs,omitempty"`
}

// GuardSpec mirrors polca.GuardConfig in the decision-log header.
type GuardSpec struct {
	Window        int     `json:"window"`
	StuckAfter    int     `json:"stuck_after"`
	StuckMinUtil  float64 `json:"stuck_min_util"`
	FailSafeAfter int     `json:"failsafe_after"`
	MaxStep       float64 `json:"max_step"`
	FailSafeLPMHz float64 `json:"failsafe_lp_mhz"`
	FailSafeHPMHz float64 `json:"failsafe_hp_mhz"`
}

// DecisionMeta is the log header: everything replay needs to rebuild the
// deployed policy, interpret the snapshots, and convert lock deltas into
// watts and seconds. It is the first line of the JSONL file.
type DecisionMeta struct {
	Schema string `json:"schema"`
	// Policy is the deployed controller's display name ("polca", "guard(polca)").
	Policy string     `json:"policy"`
	Spec   PolicySpec `json:"spec"`
	// Guard is set when the deployed controller ran behind the telemetry
	// guard; replay wraps alternates identically.
	Guard *GuardSpec `json:"guard,omitempty"`
	// Watchdog configuration (0 epochs = disabled).
	WatchdogEpochs int     `json:"watchdog_epochs,omitempty"`
	WatchdogLPMHz  float64 `json:"watchdog_lp_mhz,omitempty"`
	WatchdogHPMHz  float64 `json:"watchdog_hp_mhz,omitempty"`
	// Row shape and power model constants.
	TelemetrySec     float64 `json:"telemetry_s"`
	Servers          int     `json:"servers"`
	LPServers        int     `json:"lp_servers"`
	HPServers        int     `json:"hp_servers"`
	ProvisionedW     float64 `json:"provisioned_w"`
	BrakeUtil        float64 `json:"brake_util"`
	BrakeReleaseUtil float64 `json:"brake_release_util"`
	IdleServerW      float64 `json:"idle_server_w"`
	BusyServerW      float64 `json:"busy_server_w"`
	UncappedMHz      float64 `json:"uncapped_mhz,omitempty"`
	// Model and DType name the served model, so replay can profile lock
	// slowdown/power factors on the same inference cost model the run used.
	Model string `json:"model,omitempty"`
	DType string `json:"dtype,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Serve-mode routing: Router is the deployed router's name.
	Serve  bool   `json:"serve,omitempty"`
	Router string `json:"router,omitempty"`
}

// DecisionRecorder records decisions with their input snapshots. It is safe
// for concurrent use; a nil *DecisionRecorder is a valid disabled recorder
// — RecordTick/RecordRoute on nil return after a single branch, which is
// the non-perturbation guarantee the row relies on (see
// BenchmarkDecisionRecord for the enabled path's zero-alloc contract).
type DecisionRecorder struct {
	buf recordBuf[Decision]
	// meta and the route-candidate arena are guarded by buf's lock.
	meta  DecisionMeta
	cands []RouteCandidate
}

// NewDecisionRecorder returns an enabled recorder.
func NewDecisionRecorder() *DecisionRecorder {
	return &DecisionRecorder{}
}

// Enabled reports whether decisions are being recorded.
func (r *DecisionRecorder) Enabled() bool { return r != nil }

// UpdateMeta edits the stored log header in place under the recorder's
// lock: the row fills the shape fields at construction and the CLI fills
// the policy spec.
func (r *DecisionRecorder) UpdateMeta(fn func(*DecisionMeta)) {
	if r == nil {
		return
	}
	r.buf.mu.Lock()
	fn(&r.meta)
	r.buf.mu.Unlock()
}

// Meta returns the stored header.
func (r *DecisionRecorder) Meta() DecisionMeta {
	if r == nil {
		return DecisionMeta{}
	}
	r.buf.mu.Lock()
	defer r.buf.mu.Unlock()
	return r.meta
}

// RecordTick records one controller-tick decision.
func (r *DecisionRecorder) RecordTick(d Decision) {
	if r == nil {
		return
	}
	d.Kind = DecTick
	r.buf.push(d, stampDecision)
}

func stampDecision(d *Decision, seq uint64) { d.Seq = seq }

// RecordRoute records one router decision with its candidate snapshot. The
// candidates are copied into the recorder's arena, so callers may reuse
// their scratch slice across calls.
func (r *DecisionRecorder) RecordRoute(d Decision, cands []RouteCandidate) {
	if r == nil {
		return
	}
	d.Kind = DecRoute
	r.buf.push(d, func(d *Decision, seq uint64) {
		d.Seq = seq
		d.EpOff = int32(len(r.cands))
		d.EpLen = int32(len(cands))
		r.cands = append(r.cands, cands...)
	})
}

// Len returns the number of recorded decisions.
func (r *DecisionRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.buf.len()
}

// Decisions returns a copy of the recorded decisions in order, plus the
// candidate arena route decisions index into via Decision.Candidates.
func (r *DecisionRecorder) Decisions() ([]Decision, []RouteCandidate) {
	if r == nil {
		return nil, nil
	}
	r.buf.mu.Lock()
	defer r.buf.mu.Unlock()
	recs := make([]Decision, len(r.buf.recs))
	copy(recs, r.buf.recs)
	cands := make([]RouteCandidate, len(r.cands))
	copy(cands, r.cands)
	return recs, cands
}

// Reset discards recorded decisions but keeps buffer capacity and the
// stored header; the sequence counter restarts.
func (r *DecisionRecorder) Reset() {
	if r == nil {
		return
	}
	r.buf.reset(func() { r.cands = r.cands[:0] })
}

// appendDecisionJSON renders one decision as a single JSON object with
// fixed field order and omitted zero fields, mirroring appendEventJSON.
func appendDecisionJSON(b []byte, d Decision, arena []RouteCandidate) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, d.Seq, 10)
	b = append(b, `,"t_us":`...)
	b = strconv.AppendInt(b, int64(d.At/time.Microsecond), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, d.Kind.String())
	switch d.Kind {
	case DecTick:
		b = append(b, `,"true_util":`...)
		b = strconv.AppendFloat(b, d.TrueUtil, 'g', -1, 64)
		if d.Delivered {
			b = append(b, `,"util":`...)
			b = strconv.AppendFloat(b, d.Reading, 'g', -1, 64)
		}
		if d.Lost {
			b = append(b, `,"lost":true`...)
		}
		if d.Down {
			b = append(b, `,"down":true`...)
		}
		if d.Missed {
			b = append(b, `,"missed":true`...)
		}
		if d.Reset {
			b = append(b, `,"reset":true`...)
		}
		if d.Braked {
			b = append(b, `,"braked":true`...)
		}
		if d.BrakePending {
			b = append(b, `,"brake_pending":true`...)
		}
		if d.Watchdog {
			b = append(b, `,"wd":true`...)
		}
		if d.FailSafe {
			b = append(b, `,"failsafe":true`...)
		}
		if d.Stage != 0 {
			b = append(b, `,"stage":`...)
			b = strconv.AppendInt(b, int64(d.Stage), 10)
		}
		b = append(b, `,"lp_mhz":`...)
		b = strconv.AppendFloat(b, d.LPDesiredMHz, 'g', -1, 64)
		b = append(b, `,"hp_mhz":`...)
		b = strconv.AppendFloat(b, d.HPDesiredMHz, 'g', -1, 64)
		if d.LPBusy != 0 {
			b = append(b, `,"lp_busy":`...)
			b = strconv.AppendInt(b, int64(d.LPBusy), 10)
		}
		if d.HPBusy != 0 {
			b = append(b, `,"hp_busy":`...)
			b = strconv.AppendInt(b, int64(d.HPBusy), 10)
		}
		if d.LPWatts != 0 {
			b = append(b, `,"lp_w":`...)
			b = strconv.AppendFloat(b, d.LPWatts, 'g', -1, 64)
		}
		if d.HPWatts != 0 {
			b = append(b, `,"hp_w":`...)
			b = strconv.AppendFloat(b, d.HPWatts, 'g', -1, 64)
		}
	case DecRoute:
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, d.ReqID, 10)
		if d.Class != "" {
			b = append(b, `,"class":`...)
			b = appendJSONString(b, d.Class)
		}
		b = append(b, `,"pri":`...)
		b = strconv.AppendInt(b, int64(d.Pri), 10)
		if d.Retry != 0 {
			b = append(b, `,"retry":`...)
			b = strconv.AppendInt(b, int64(d.Retry), 10)
		}
		if d.Session != 0 {
			b = append(b, `,"session":`...)
			b = strconv.AppendInt(b, d.Session, 10)
		}
		if d.Prefix != 0 {
			b = append(b, `,"prefix":`...)
			b = strconv.AppendInt(b, int64(d.Prefix), 10)
		}
		b = append(b, `,"chosen":`...)
		b = strconv.AppendInt(b, int64(d.Chosen), 10)
		b = append(b, `,"eps":[`...)
		for i, c := range d.Candidates(arena) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(c.Server), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(c.Load), 10)
			b = append(b, ',')
			b = strconv.AppendFloat(b, c.KVFrac, 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, c.CappedMHz, 'g', -1, 64)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// WriteJSONL writes the log: the meta header line first, then one decision
// per line in record order. The decision encoding is hand-rolled (fixed
// field order, omitted zero fields) so identical runs produce identical
// bytes; the header uses encoding/json, which is also deterministic for a
// struct.
func (r *DecisionRecorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.buf.mu.Lock()
	defer r.buf.mu.Unlock()
	meta := r.meta
	meta.Schema = DecisionSchema
	hdr, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return writeJSONL(w, hdr, r.buf.recs, func(b []byte, d Decision) []byte {
		return appendDecisionJSON(b, d, r.cands)
	})
}

// decisionJSON is the decode-side shadow of appendDecisionJSON. Util is a
// pointer so Delivered survives the round trip ("util" present iff a
// reading was delivered — 0.0 is a legitimate reading).
type decisionJSON struct {
	Seq          uint64      `json:"seq"`
	TUS          int64       `json:"t_us"`
	Kind         string      `json:"kind"`
	TrueUtil     float64     `json:"true_util"`
	Util         *float64    `json:"util"`
	Lost         bool        `json:"lost"`
	Down         bool        `json:"down"`
	Missed       bool        `json:"missed"`
	Reset        bool        `json:"reset"`
	Braked       bool        `json:"braked"`
	BrakePending bool        `json:"brake_pending"`
	WD           bool        `json:"wd"`
	FailSafe     bool        `json:"failsafe"`
	Stage        int8        `json:"stage"`
	LPMHz        float64     `json:"lp_mhz"`
	HPMHz        float64     `json:"hp_mhz"`
	LPBusy       int32       `json:"lp_busy"`
	HPBusy       int32       `json:"hp_busy"`
	LPW          float64     `json:"lp_w"`
	HPW          float64     `json:"hp_w"`
	Req          int64       `json:"req"`
	Class        string      `json:"class"`
	Pri          int8        `json:"pri"`
	Retry        int32       `json:"retry"`
	Session      int64       `json:"session"`
	Prefix       int32       `json:"prefix"`
	Chosen       int32       `json:"chosen"`
	Eps          [][]float64 `json:"eps"`
}

// parseDecisionLine decodes one decision line; route candidates are
// appended to cands and indexed by the returned decision.
func parseDecisionLine(raw []byte, cands []RouteCandidate) (Decision, []RouteCandidate, error) {
	dj := decisionJSON{Chosen: -1}
	if err := json.Unmarshal(raw, &dj); err != nil {
		return Decision{}, cands, err
	}
	kind, ok := ParseDecisionKind(dj.Kind)
	if !ok {
		return Decision{}, cands, fmt.Errorf("unknown kind %q", dj.Kind)
	}
	d := Decision{
		Seq:  dj.Seq,
		At:   time.Duration(dj.TUS) * time.Microsecond,
		Kind: kind,
	}
	switch kind {
	case DecTick:
		d.TrueUtil = dj.TrueUtil
		if dj.Util != nil {
			d.Delivered = true
			d.Reading = *dj.Util
		}
		d.Lost, d.Down, d.Missed, d.Reset = dj.Lost, dj.Down, dj.Missed, dj.Reset
		d.Braked, d.BrakePending = dj.Braked, dj.BrakePending
		d.Watchdog, d.FailSafe, d.Stage = dj.WD, dj.FailSafe, dj.Stage
		d.LPDesiredMHz, d.HPDesiredMHz = dj.LPMHz, dj.HPMHz
		d.LPBusy, d.HPBusy = dj.LPBusy, dj.HPBusy
		d.LPWatts, d.HPWatts = dj.LPW, dj.HPW
	case DecRoute:
		d.ReqID, d.Class, d.Pri = dj.Req, dj.Class, dj.Pri
		d.Retry, d.Session, d.Prefix = dj.Retry, dj.Session, dj.Prefix
		d.Chosen = dj.Chosen
		d.EpOff = int32(len(cands))
		d.EpLen = int32(len(dj.Eps))
		for i, ep := range dj.Eps {
			if len(ep) != 4 {
				return Decision{}, cands, fmt.Errorf("eps[%d]: want 4 elements, got %d", i, len(ep))
			}
			cands = append(cands, RouteCandidate{
				Server:    int32(ep[0]),
				Load:      int32(ep[1]),
				KVFrac:    ep[2],
				CappedMHz: ep[3],
			})
		}
	}
	return d, cands, nil
}

// ScanDecisions streams a decision log produced by WriteJSONL: the header
// is validated and returned, then fn runs once per decision in file order.
// The cands slice passed to fn is the decision's candidate snapshot (nil
// for ticks) and is only valid during the callback. Blank lines are
// skipped; `#` provenance lines go to comment (when non-nil).
//
// The sequence numbers must run 1,2,3,... without gaps: a jump or repeat
// fails with the 1-based line number, so a truncated or spliced log cannot
// be silently replayed. A file truncated mid-line surfaces as a JSON parse
// error on that line.
func ScanDecisions(r io.Reader, comment func(line string), fn func(d Decision, cands []RouteCandidate) error) (DecisionMeta, error) {
	var meta DecisionMeta
	sawMeta := false
	seq := seqCheck{noun: "decisions"}
	var scratch []RouteCandidate
	err := scanJSONL(r, "decisions", comment, func(raw []byte) error {
		if !sawMeta {
			if err := json.Unmarshal(raw, &meta); err != nil {
				return fmt.Errorf("header: %w", err)
			}
			if meta.Schema != DecisionSchema {
				return fmt.Errorf("schema %q, want %q", meta.Schema, DecisionSchema)
			}
			sawMeta = true
			return nil
		}
		var d Decision
		var err error
		if d, scratch, err = parseDecisionLine(raw, scratch[:0]); err != nil {
			return err
		}
		if err := seq.next(d.Seq); err != nil {
			return err
		}
		return fn(d, d.Candidates(scratch))
	})
	if err == nil && !sawMeta {
		err = errors.New("decisions: empty log (no header line)")
	}
	return meta, err
}
