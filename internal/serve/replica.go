package serve

import (
	"fmt"

	"polca/internal/gpu"
	"polca/internal/obs"
	"polca/internal/plan"
	"polca/internal/sim"
	"polca/internal/workload"
)

// Seq is one request moving through a replica: waiting, then running
// (prefill followed by decode), possibly bounced back to waiting by a
// preemption, until its output length is reached.
//
// Lifetime: the replica owns its sequences and recycles them through a free
// list once they retire. A *Seq handed to OnFirstToken, OnComplete, or
// OnDrop is valid only for the duration of the callback; callers that need
// the values afterwards must copy them out (or snapshot the whole struct by
// value) before returning.
type Seq struct {
	Req      workload.Request
	Enqueued sim.Time

	// prefillTarget is the context the sequence must (re)build before it
	// can decode: the prompt, plus — after a preemption — the tokens it had
	// already generated (recompute semantics).
	prefillTarget int
	prefilled     int
	decoded       int

	// kvTokens is the context materialized in the KV cache; kvRes is the
	// tokens of KV reserved for it (materialized plus the in-flight
	// iteration's planned growth). Reservations happen at batch formation
	// and are released in full on preemption or completion, so the
	// replica-level sum of kvRes can never overshoot capacity mid-iteration.
	kvTokens int
	kvRes    int

	firstTokenAt sim.Time // -1 until the first output token
	lastTokenAt  sim.Time
	preempts     int

	// Plan for the in-flight iteration, applied when it finishes.
	chunk int // prompt tokens to prefill
	steps int // decode steps to take

	// Per-request energy attribution, accumulated as each iteration the
	// sequence participated in settles: energyJ is the tensor-parallel
	// group's integrated GPU energy apportioned by token-weighted share;
	// capSec and capJ are this sequence's share of the iteration's extra
	// seconds and extra (or, negative, saved) joules versus the DVFS
	// uncapped counterfactual.
	energyJ float64
	capSec  float64
	capJ    float64

	tr *seqTrace // span bookkeeping; nil when span tracing is off
}

// seqTrace is the per-sequence span bookkeeping, allocated only when a
// span tracer is attached so the disabled path stays allocation-free.
type seqTrace struct {
	next       int32 // next child span ID (the root is always 1)
	queueStart sim.Time
	queueOpen  bool
	pending    obs.Span // open coalesced decode span
	hasPending bool
}

func (t *seqTrace) childID() int32 {
	t.next++
	return t.next - 1
}

// outputTarget is the generation length that completes the sequence; even
// a zero-output request samples one token from its prefill pass.
func (s *Seq) outputTarget() int {
	if s.Req.Output < 1 {
		return 1
	}
	return s.Req.Output
}

// Decoded returns the tokens generated so far.
func (s *Seq) Decoded() int { return s.decoded }

// KVTokens returns the tokens materialized in the KV cache.
func (s *Seq) KVTokens() int { return s.kvTokens }

// KVReserved returns the tokens of KV reserved for the sequence.
func (s *Seq) KVReserved() int { return s.kvRes }

// Preempts returns how many times the sequence was preempted.
func (s *Seq) Preempts() int { return s.preempts }

// EnergyJ returns the GPU energy attributed to the sequence so far, in
// joules across the replica's tensor-parallel group.
func (s *Seq) EnergyJ() float64 { return s.energyJ }

// CapSlowdownSec returns the extra seconds the sequence's iterations took
// versus the DVFS uncapped counterfactual (0 on an uncapped replica).
func (s *Seq) CapSlowdownSec() float64 { return s.capSec }

// CapDeltaJ returns the extra (positive) or saved (negative) joules of the
// sequence's iterations versus the DVFS uncapped counterfactual.
func (s *Seq) CapDeltaJ() float64 { return s.capJ }

// TTFTSeconds returns the time-to-first-token (arrival to first output
// token), or -1 if no token was produced yet.
func (s *Seq) TTFTSeconds() float64 {
	if s.firstTokenAt < 0 {
		return -1
	}
	return (s.firstTokenAt - s.Req.Arrival).Seconds()
}

// MeanTBTSeconds returns the request's mean time-between-tokens across its
// generation (0 for single-token outputs).
func (s *Seq) MeanTBTSeconds() float64 {
	if s.decoded < 2 || s.firstTokenAt < 0 {
		return 0
	}
	return (s.lastTokenAt - s.firstTokenAt).Seconds() / float64(s.decoded-1)
}

// Stats are the replica's cumulative scheduler counters. The observability
// reconciliation test checks the traced event stream against them.
type Stats struct {
	Batches           int // iterations formed
	Preemptions       int // sequences bounced to recompute
	Completed         int
	Dropped           int   // shed at the queue cap or lost to node death
	PromptTokens      int64 // prefill tokens processed
	DecodeTokens      int64 // tokens generated
	MaxRunning        int   // peak concurrent running sequences
	KVHighWaterFrac   float64
	KVHighWaterEvents int   // trace emissions of a new high water
	KVReservedTokens  int64 // cumulative reservation, in tokens
	KVFreedTokens     int64 // cumulative release; equals reserved at drain

	// EnergyJ is the per-GPU energy actually integrated over every settled
	// iteration, in joules: replanned iterations bank the consumed share of
	// the old execution before switching, and a node death settles the
	// partial energy of the cancelled iteration. On runs without
	// mid-iteration replans it equals the planned-at-launch energy the
	// calibration tests rely on. The per-request attribution (Seq.EnergyJ)
	// sums to exactly TensorParallel times this once every iteration has
	// settled — see TestEnergyConservation.
	EnergyJ float64

	// CapExtraSec and CapDeltaJ are the summed per-iteration differences
	// between actual duration/energy and the DVFS uncapped counterfactual
	// (clock lock, brake, and power cap released). Seconds are wall
	// iteration time; joules are per GPU like EnergyJ. Both are exactly 0
	// on a replica that never saw a cap or a mid-flight replan.
	CapExtraSec float64
	CapDeltaJ   float64
}

// spanSeg is one planned iteration inside a coalesced decode span: a
// pure-decode batch whose formation, execution, and settlement have been
// computed ahead of time. Segments before the one containing "now" settle
// lazily (their effects are applied when the span ends or breaks); the
// per-segment snapshot carries everything the per-stride path would have
// produced at the same instants, so settlement is bit-identical.
type spanSeg struct {
	start, end sim.Time
	stride     int
	phase      gpu.Phase
	exec       gpu.Exec
	baseSec    float64 // DVFS-uncapped counterfactual duration, seconds
	baseJ      float64 // DVFS-uncapped counterfactual energy, joules
	kvAfter    int     // replica kvToks after this segment's reservations
	memGB      float64 // device resident memory at this segment's formation
}

// maxSpanSegs bounds how far ahead a span plans. Interrupted spans discard
// the unreached tail, so an over-long horizon only wastes planning work.
const maxSpanSegs = 128

// Replica is one continuous-batching serving instance: a tensor-parallel
// group modeled by a single representative device (all GPUs in the group
// execute identical phases, as in the slot model).
type Replica struct {
	eng  *sim.Engine
	cfg  Config
	dev  *gpu.Device
	idx  int
	pool int8

	kvPerTok      int // per-GPU KV bytes per token
	kvCapToks     int // per-GPU KV capacity in tokens
	weightsPerGPU float64
	scale         float64 // tensor-parallel degree: per-GPU → group energy
	idleWatts     float64 // device idle draw (spec copy is too hot for PowerAt)
	tdpWatts      float64 // device TDP (the capped() check runs per iteration)

	waiting seqDeque
	running []*Seq
	kvToks  int // reserved KV across running sequences, in tokens

	iterActive bool
	iterPhase  gpu.Phase
	iterExec   gpu.Exec
	iterStart  sim.Time
	iterTimer  sim.Timer

	// Energy settlement state for the in-flight iteration. iterFormedAt is
	// the formation instant (iterStart moves on replans, this does not);
	// iterBankedJ accumulates the consumed share of executions replaced by
	// replans; iterBaseSec/iterBaseJ are the iteration's DVFS uncapped
	// counterfactual (equal to the planned execution when the device was
	// uncapped at formation).
	iterFormedAt sim.Time
	iterBankedJ  float64
	iterBaseSec  float64
	iterBaseJ    float64

	// Coalesced decode span: on stable pure-decode stretches the replica
	// plans up to maxSpanSegs iterations ahead and schedules one engine
	// event at the span's end instead of one per iteration. span aliases
	// segBuf's prefix; spanFormed/spanLaunched/spanSettled track how many
	// leading segments have had their formation/launch/finish effects
	// applied (seg 0's formation is real — formBatch ran before the span
	// was planned). spanCursor is a monotonic read cursor for the
	// non-destructive observers (PowerAt, KVFrac).
	span         []spanSeg
	segBuf       []spanSeg
	spanTimer    sim.Timer
	spanSeqs     int // batch size the span was planned with
	spanFormed   int
	spanLaunched int
	spanCursor   int
	coalesce     bool

	// Cached handlers and scratch, so the steady state allocates nothing:
	// method values passed to AfterCancelable would otherwise allocate a
	// closure per iteration, and Run would allocate Segments per call.
	finishFn  sim.Handler
	spanEndFn sim.Handler
	baseExec  gpu.Exec // scratch for the uncapped counterfactual
	seqFree   []*Seq
	trFree    []*seqTrace

	// draining marks a graceful-drain window: Enqueue refuses new work
	// while every sequence already accepted (running and waiting) finishes
	// normally. The row uses it for operator-style maintenance windows and
	// for the watchdog's serve-mode degradation.
	draining bool

	stats  Stats
	lastHW float64 // last traced high-water fraction

	tracer     *obs.Tracer
	spans      *obs.SpanTracer
	batchCtr   *obs.Counter
	preemptCtr *obs.Counter
	kvGauge    *obs.Gauge

	// Lifecycle callbacks, all optional. They fire inside engine event
	// handlers, so they must not block. The *Seq argument is only valid
	// during the callback — the replica recycles retired sequences.
	OnFirstToken func(s *Seq, now sim.Time)
	OnComplete   func(s *Seq, now sim.Time)
	OnDrop       func(s *Seq, now sim.Time, reason string)
}

// NewReplica builds a replica on the given device. idx and pool identify it
// in trace events (the row uses the node index and priority pool).
func NewReplica(eng *sim.Engine, cfg Config, dev *gpu.Device, idx int, pool int8) (*Replica, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(dev.Spec()); err != nil {
		return nil, err
	}
	kvPerTok := cfg.kvBytesPerToken()
	r := &Replica{
		eng: eng, cfg: cfg, dev: dev, idx: idx, pool: pool,
		kvPerTok:      int(kvPerTok),
		kvCapToks:     int(cfg.kvCapacityBytes(dev.Spec()) / kvPerTok),
		weightsPerGPU: cfg.Model.WeightBytes(cfg.DType) / float64(cfg.TensorParallel),
		scale:         float64(cfg.TensorParallel),
		idleWatts:     dev.Spec().IdleWatts,
		tdpWatts:      dev.Spec().TDPWatts,
	}
	o := eng.Observer()
	r.tracer = o.Trace()
	r.spans = o.SpanSink()
	r.batchCtr = o.Counter("serve_batches_total")
	r.preemptCtr = o.Counter("serve_preemptions_total")
	r.kvGauge = o.Gauge("serve_kv_highwater_frac")
	// Coalescing is exact, but the tracer and span sink observe individual
	// iterations, so their presence forces the per-stride path.
	r.coalesce = !cfg.NoCoalesce && r.tracer == nil && r.spans == nil
	r.finishFn = r.finishIteration
	r.spanEndFn = r.spanEnd
	return r, nil
}

// Config returns the replica's resolved configuration.
func (r *Replica) Config() Config { return r.cfg }

// Stats returns a snapshot of the scheduler counters. Reading the counters
// settles any in-flight coalesced span first (settlement at any instant
// leaves the future trajectory unchanged), so the snapshot is exactly what
// the per-stride scheduler would report at this moment.
func (r *Replica) Stats() Stats {
	r.breakSpan(r.eng.Now())
	return r.stats
}

// QueueLen returns the waiting-queue depth.
func (r *Replica) QueueLen() int { return r.waiting.Len() }

// Load returns waiting plus running sequences — the router's least-queue
// signal.
func (r *Replica) Load() int { return r.waiting.Len() + len(r.running) }

// Running returns the running-batch size.
func (r *Replica) Running() int { return len(r.running) }

// KVFrac returns the reserved KV cache as a fraction of capacity.
func (r *Replica) KVFrac() float64 {
	return float64(r.currentKVToks()) / float64(r.kvCapToks)
}

// TelemetrySample is the non-destructive per-tick reading the row's
// sim-time TSDB ingests every telemetry interval.
type TelemetrySample struct {
	Queue   int     // waiting-queue depth
	Running int     // running-batch size
	KVFrac  float64 // reserved KV cache as a fraction of capacity
}

// TelemetrySample reads the replica's queue, batch, and KV occupancy
// without settling the in-flight coalesced decode span — unlike Stats,
// it is safe to call on every telemetry tick without perturbing the
// span trace or paying the settlement cost.
func (r *Replica) TelemetrySample() TelemetrySample {
	return TelemetrySample{
		Queue:   r.waiting.Len(),
		Running: len(r.running),
		KVFrac:  r.KVFrac(),
	}
}

// KVReservedBytes returns the reserved KV bytes per GPU.
func (r *Replica) KVReservedBytes() float64 {
	return float64(r.currentKVToks()) * float64(r.kvPerTok)
}

// currentKVToks returns the reservation ledger as the per-stride scheduler
// would see it now: inside a coalesced span the planned segments' deferred
// reservations are folded in without settling them.
func (r *Replica) currentKVToks() int {
	if len(r.span) == 0 {
		return r.kvToks
	}
	return r.currentSeg(r.eng.Now()).kvAfter
}

// currentSeg returns the span segment covering now. A segment remains
// current until strictly after its end, matching event ordering at exact
// boundaries (a telemetry tick scheduled before the iteration fires first
// and still observes it in flight).
func (r *Replica) currentSeg(now sim.Time) *spanSeg {
	for r.spanCursor < len(r.span)-1 && r.span[r.spanCursor].end < now {
		r.spanCursor++
	}
	return &r.span[r.spanCursor]
}

// Idle reports whether the replica has no work at all.
func (r *Replica) Idle() bool {
	return !r.iterActive && len(r.span) == 0 && len(r.running) == 0 && r.waiting.Len() == 0
}

// Sequences calls fn for every sequence the replica holds (running first,
// then waiting); property tests use it to check KV invariants. Like Stats,
// it settles any in-flight span first so per-sequence counters are exact.
func (r *Replica) Sequences(fn func(s *Seq)) {
	r.breakSpan(r.eng.Now())
	for _, s := range r.running {
		fn(s)
	}
	for i := 0; i < r.waiting.Len(); i++ {
		fn(r.waiting.At(i))
	}
}

// newSeq builds a sequence for an accepted request, recycling a retired one
// when the free list has it.
func (r *Replica) newSeq(now sim.Time, req workload.Request) *Seq {
	var s *Seq
	if n := len(r.seqFree); n > 0 {
		s = r.seqFree[n-1]
		r.seqFree[n-1] = nil
		r.seqFree = r.seqFree[:n-1]
		*s = Seq{}
	} else {
		s = &Seq{}
	}
	s.Req = req
	s.Enqueued = now
	s.prefillTarget = req.Input
	s.firstTokenAt = -1
	s.lastTokenAt = -1
	if s.prefillTarget < 1 {
		s.prefillTarget = 1
	}
	if r.spans != nil {
		s.tr = r.newSeqTrace(now)
	}
	return s
}

// recycleSeq returns a retired sequence to the free list. Callers must have
// emitted its root span and fired its callback first.
func (r *Replica) recycleSeq(s *Seq) {
	r.seqFree = append(r.seqFree, s)
}

func (r *Replica) newSeqTrace(now sim.Time) *seqTrace {
	var t *seqTrace
	if n := len(r.trFree); n > 0 {
		t = r.trFree[n-1]
		r.trFree[n-1] = nil
		r.trFree = r.trFree[:n-1]
	} else {
		t = &seqTrace{}
	}
	*t = seqTrace{next: 2, queueStart: now, queueOpen: true}
	return t
}

// SetDraining switches the replica's graceful-drain mode: while draining
// it refuses new admissions but lets accepted work finish. Idempotent.
func (r *Replica) SetDraining(v bool) { r.draining = v }

// Enqueue accepts a request into the waiting queue, kicking the iteration
// loop if the replica was idle. It returns false when the queue is at
// capacity or the replica is draining (the caller sheds or fails the
// request over).
func (r *Replica) Enqueue(now sim.Time, req workload.Request) bool {
	if r.draining || r.waiting.Len() >= r.cfg.QueueCap {
		r.stats.Dropped++
		return false
	}
	// An arrival invalidates the planned decode span: settle it and fall
	// back to the materialized in-flight iteration, exactly as the
	// per-stride scheduler stands at this instant.
	r.breakSpan(now)
	s := r.newSeq(now, req)
	r.waiting.PushBack(s)
	if !r.iterActive {
		r.startIteration(now)
	}
	return true
}

// Fail drops every sequence the replica holds (running and waiting) and
// cancels the in-flight iteration — the node died under it. The replica
// revives cold on the next Enqueue. The cancelled iteration's consumed
// energy is settled and attributed first, so per-request attribution stays
// conserved across node deaths.
func (r *Replica) Fail(now sim.Time) {
	r.breakSpan(now)
	if r.iterActive {
		r.iterTimer.Stop()
		r.iterActive = false
		partialJ := r.iterBankedJ + r.iterExec.EnergyUpTo(now-r.iterStart)
		r.stats.EnergyJ += partialJ
		totalToks := 0
		for _, s := range r.running {
			totalToks += s.chunk + s.steps
		}
		if totalToks > 0 {
			perTokJ := partialJ * r.scale / float64(totalToks)
			for _, s := range r.running {
				s.energyJ += perTokJ * float64(s.chunk+s.steps)
				// The cancelled iteration still gets a child span, so the
				// span tree's children sum to the root attribution even
				// across a node death.
				if s.tr != nil && s.chunk+s.steps > 0 {
					kind := obs.SpanDecode
					toks := s.steps
					if s.chunk > 0 {
						kind = obs.SpanPrefill
						toks = s.chunk
					}
					r.flushDecodeSpan(s)
					sp := r.spanBase(s, kind)
					sp.Start, sp.End = r.iterStart, now
					sp.Tokens = int32(toks)
					sp.Recompute = kind == obs.SpanPrefill && s.preempts > 0
					sp.EnergyJ = perTokJ * float64(s.chunk+s.steps)
					r.spans.Emit(sp)
				}
			}
		}
	}
	for _, s := range r.running {
		r.freeKV(s)
		s.chunk, s.steps = 0, 0
		r.emitRootSpan(s, now, "node-death")
		r.stats.Dropped++
		if r.OnDrop != nil {
			r.OnDrop(s, now, "node-death")
		}
		r.recycleSeq(s)
	}
	for i := 0; i < r.waiting.Len(); i++ {
		s := r.waiting.At(i)
		r.closeQueueSpan(s, now)
		r.emitRootSpan(s, now, "node-death")
		r.stats.Dropped++
		if r.OnDrop != nil {
			r.OnDrop(s, now, "node-death")
		}
		r.recycleSeq(s)
	}
	for i := range r.running {
		r.running[i] = nil
	}
	r.running = r.running[:0]
	r.waiting.Clear()
}

// PowerAt returns the replica's current per-GPU power draw.
func (r *Replica) PowerAt(now sim.Time) float64 {
	if r.iterActive {
		return r.iterExec.PowerAt(now - r.iterStart)
	}
	if len(r.span) > 0 {
		seg := r.currentSeg(now)
		return seg.exec.PowerAt(now - seg.start)
	}
	return r.idleWatts
}

// Replan re-times the in-flight iteration under the device's current
// settings — the row calls it when an OOB clock lock or the power brake
// lands mid-iteration, mirroring the slot model's replan. The iteration's
// outcome (which tokens it advances) is fixed at formation; only its
// remaining duration and power change.
func (r *Replica) Replan(now sim.Time) {
	// A cap change invalidates every planned segment: settle the span and
	// replan the materialized current iteration.
	r.breakSpan(now)
	if !r.iterActive {
		return
	}
	elapsed := now - r.iterStart
	frac := 1.0
	if r.iterExec.Duration > 0 {
		frac = float64(elapsed) / float64(r.iterExec.Duration)
	}
	if frac >= 1 {
		return // the completion event is already due at this instant
	}
	if frac < 0 {
		frac = 0
	}
	r.iterTimer.Stop()
	r.iterBankedJ += r.iterExec.EnergyUpTo(elapsed)
	r.iterPhase = r.iterPhase.Scale(1 - frac)
	r.dev.RunInto(r.iterPhase, &r.iterExec)
	r.iterStart = now
	r.iterTimer = r.eng.AfterCancelable(r.iterExec.Duration, r.finishFn)
}

// startIteration forms and launches the next iteration, or parks the
// replica if there is nothing to do.
func (r *Replica) startIteration(now sim.Time) {
	for {
		promptToks, decodeSeqs, stride := r.formBatch(now)
		if promptToks == 0 && decodeSeqs == 0 {
			if len(r.running) > 0 {
				// Every running sequence is KV-blocked mid-prefill with no
				// decode work to free memory. Recompute the newest to make
				// progress; each preemption frees KV, so this terminates.
				if r.preemptNewest(now) {
					continue
				}
			}
			return
		}
		if promptToks == 0 && r.coalesce && r.waiting.Len() == 0 {
			r.runSpan(now, decodeSeqs, stride)
			return
		}
		r.runIteration(now, promptToks, decodeSeqs, stride)
		return
	}
}

// formBatch plans the next iteration: it guarantees KV for the decode
// steps (preempting newest-first under pressure), admits waiting sequences
// under a conservative full-context reservation check, then hands out
// prompt chunks within the token budget. All KV growth is reserved here,
// before the iteration runs.
func (r *Replica) formBatch(now sim.Time) (promptToks, decodeSeqs, stride int) {
	decodeSeqs, minRemaining, prefillPending := r.decodeState()

	// Guarantee one decode token per decoding sequence, recomputing the
	// newest sequences until the growth fits.
	for decodeSeqs > 0 && r.kvToks+decodeSeqs > r.kvCapToks {
		if !r.preemptNewest(now) {
			break
		}
		decodeSeqs, minRemaining, prefillPending = r.decodeState()
	}

	// Multi-step aggregation: only when the iteration would be pure decode
	// with nothing waiting, and never past a completion boundary or the KV
	// capacity.
	stride = 1
	if decodeSeqs > 0 && !prefillPending && r.waiting.Len() == 0 && r.cfg.DecodeStride > 1 {
		stride = r.cfg.DecodeStride
		if stride > minRemaining {
			stride = minRemaining
		}
		if fit := (r.kvCapToks - r.kvToks) / decodeSeqs; stride > fit {
			stride = fit
		}
		if stride < 1 {
			stride = 1
		}
	}

	// Reserve the decode growth.
	for _, s := range r.running {
		if s.prefilled >= s.prefillTarget {
			s.steps = stride
			r.reserveKV(s, stride)
		}
	}

	// Admit waiting sequences while their full remaining context fits on
	// top of everything already promised (reserved KV plus the un-prefilled
	// remainder of every running sequence). Conservative by design: an
	// admitted sequence can always finish its prefill without evicting
	// anyone.
	projected := r.kvToks
	for _, s := range r.running {
		projected += s.prefillTarget - s.prefilled
	}
	for r.waiting.Len() > 0 && len(r.running) < r.cfg.MaxBatchSize {
		cand := r.waiting.At(0)
		if projected+cand.prefillTarget > r.kvCapToks {
			break
		}
		projected += cand.prefillTarget
		r.waiting.PopFront()
		r.running = append(r.running, cand)
		r.closeQueueSpan(cand, now)
	}

	// Hand out prompt chunks within the remaining token budget, clipped to
	// the KV actually free right now (decode growth since admission can
	// have consumed the conservative estimate).
	budget := r.cfg.MaxBatchTokens - decodeSeqs
	for _, s := range r.running {
		if s.prefilled >= s.prefillTarget || budget <= 0 {
			continue
		}
		chunk := s.prefillTarget - s.prefilled
		if chunk > budget {
			chunk = budget
		}
		if free := r.kvCapToks - r.kvToks; chunk > free {
			chunk = free
		}
		if chunk <= 0 {
			continue
		}
		s.chunk = chunk
		r.reserveKV(s, chunk)
		promptToks += chunk
		budget -= chunk
	}

	if len(r.running) > r.stats.MaxRunning {
		r.stats.MaxRunning = len(r.running)
	}
	r.noteHighWater(now)
	return promptToks, decodeSeqs, stride
}

// decodeState counts decoding sequences, the smallest remaining output
// among them, and whether any running sequence still has prefill to do.
func (r *Replica) decodeState() (decodeSeqs, minRemaining int, prefillPending bool) {
	for _, s := range r.running {
		if s.prefilled < s.prefillTarget {
			prefillPending = true
			continue
		}
		rem := s.outputTarget() - s.decoded
		if decodeSeqs == 0 || rem < minRemaining {
			minRemaining = rem
		}
		decodeSeqs++
	}
	return decodeSeqs, minRemaining, prefillPending
}

// reserveKV books toks of KV growth for the sequence.
func (r *Replica) reserveKV(s *Seq, toks int) {
	if toks <= 0 {
		return
	}
	s.kvRes += toks
	r.kvToks += toks
	r.stats.KVReservedTokens += int64(toks)
}

// freeKV releases everything the sequence has reserved.
func (r *Replica) freeKV(s *Seq) {
	r.kvToks -= s.kvRes
	r.stats.KVFreedTokens += int64(s.kvRes)
	s.kvRes = 0
}

// preemptNewest evicts the most recently admitted sequence that holds KV,
// releasing its reservation and requeueing it at the head of the waiting
// queue for recompute (its new prefill target covers the prompt plus the
// tokens it had already generated). Returns false if no sequence holds KV.
func (r *Replica) preemptNewest(now sim.Time) bool {
	for i := len(r.running) - 1; i >= 0; i-- {
		s := r.running[i]
		if s.kvRes == 0 {
			continue
		}
		freedToks := s.kvRes
		freed := float64(s.kvRes) * float64(r.kvPerTok)
		r.freeKV(s)
		s.preempts++
		s.prefilled = 0
		s.kvTokens = 0
		s.chunk, s.steps = 0, 0
		s.prefillTarget = s.Req.Input + s.decoded
		if s.prefillTarget < 1 {
			s.prefillTarget = 1
		}
		r.running = append(r.running[:i], r.running[i+1:]...)
		r.waiting.PushFront(s)
		r.stats.Preemptions++
		r.preemptCtr.Inc()
		if r.tracer != nil {
			r.tracer.Emit(obs.Event{
				At: now, Kind: obs.KindPreempt, Server: int32(r.idx), Pool: r.pool,
				Value: freed, Reason: "kv-pressure",
			})
		}
		if s.tr != nil {
			r.flushDecodeSpan(s)
			sp := r.spanBase(s, obs.SpanPreempt)
			sp.Start, sp.End = now, now
			sp.Tokens = int32(freedToks)
			sp.Reason = "kv-pressure"
			r.spans.Emit(sp)
			s.tr.queueStart = now
			s.tr.queueOpen = true
		}
		return true
	}
	return false
}

// noteHighWater traces a new KV occupancy high water, quantized to 5% of
// capacity so the event stream stays bounded.
func (r *Replica) noteHighWater(now sim.Time) {
	frac := float64(r.kvToks) / float64(r.kvCapToks)
	if frac > r.stats.KVHighWaterFrac {
		r.stats.KVHighWaterFrac = frac
	}
	if frac < r.lastHW+0.05 {
		return
	}
	r.lastHW = frac
	r.stats.KVHighWaterEvents++
	r.kvGauge.Set(frac)
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{
			At: now, Kind: obs.KindKVHighWater, Server: int32(r.idx), Pool: r.pool,
			Value: frac,
		})
	}
}

// synthDecodePhase synthesizes a pure-decode iteration of the running batch
// into one GPU phase: stride passes through the model, each decoding one
// token per sequence against its current KV length. Shared by the direct
// per-stride path and the span planner, so both time the identical phase.
func (r *Replica) synthDecodePhase(stride, decodeSeqs int) gpu.Phase {
	m, dt := r.cfg.Model, r.cfg.DType
	tp := float64(r.cfg.TensorParallel)

	var dFLOPs, bytes float64
	for _, s := range r.running {
		dFLOPs += m.DecodeSpanFLOPs(stride, s.kvTokens)
		bytes += m.DecodeSpanBytes(dt, stride, s.kvTokens)
	}
	bytes += m.WeightBytes(dt) * dt.MemAmplification() * float64(stride)

	tensorFrac := 0.9
	if dFLOPs > 0 {
		tensorFrac = (0.90 * dFLOPs) / dFLOPs
	}
	return gpu.Phase{
		Name:            "decode",
		DType:           dt,
		FLOPs:           dFLOPs / tp,
		MemBytes:        bytes / tp,
		TensorFrac:      tensorFrac,
		Efficiency:      0, // decode GEMMs: the slot model's token-phase default
		CommSeconds:     float64(stride) * plan.AllReduceSeconds(m, dt, r.cfg.TensorParallel, decodeSeqs, r.cfg.NVLinkGBps),
		OverheadSeconds: float64(stride) * plan.PassOverheadSeconds(m),
	}
}

// capped reports whether any management knob throttles the device, in which
// case settlement needs the DVFS-uncapped counterfactual baseline.
func (r *Replica) capped() bool {
	return r.dev.LockedClock() != 0 || r.dev.Brake() || r.dev.PowerCap() < r.tdpWatts
}

// runIteration synthesizes the planned batch into one GPU phase and runs
// it on the device, which applies clock locks, power caps, and the brake
// exactly as it does for slot-model phases.
func (r *Replica) runIteration(now sim.Time, promptToks, decodeSeqs, stride int) {
	var phase gpu.Phase
	if promptToks == 0 {
		// A multi-step decode iteration is stride passes, each streaming
		// the weights once.
		phase = r.synthDecodePhase(stride, decodeSeqs)
	} else {
		// A mixed or prefill iteration is one pass through the model.
		m, dt := r.cfg.Model, r.cfg.DType
		tp := float64(r.cfg.TensorParallel)
		tokensPerPass := promptToks + decodeSeqs

		var pFLOPs, dFLOPs, bytes float64
		for _, s := range r.running {
			if s.chunk > 0 {
				pFLOPs += m.PrefillChunkFLOPs(s.chunk, s.kvTokens)
				bytes += m.PrefillChunkBytes(dt, s.chunk, s.kvTokens)
			}
			if s.steps > 0 {
				dFLOPs += m.DecodeSpanFLOPs(s.steps, s.kvTokens)
				bytes += m.DecodeSpanBytes(dt, s.steps, s.kvTokens)
			}
		}
		flops := pFLOPs + dFLOPs
		bytes += m.WeightBytes(dt) * dt.MemAmplification()

		// The power split interpolates between the compute-bound prompt
		// spike and the memory-bound decode plateau by each side's share of
		// the math.
		tensorFrac := 0.9
		if flops > 0 {
			tensorFrac = (0.97*pFLOPs + 0.90*dFLOPs) / flops
		}
		name := "mixed"
		if decodeSeqs == 0 {
			name = "prefill"
		}
		phase = gpu.Phase{
			Name:            name,
			DType:           dt,
			FLOPs:           flops / tp,
			MemBytes:        bytes / tp,
			TensorFrac:      tensorFrac,
			Efficiency:      plan.BatchEfficiency(tokensPerPass),
			CommSeconds:     plan.AllReduceSeconds(m, dt, r.cfg.TensorParallel, tokensPerPass, r.cfg.NVLinkGBps),
			OverheadSeconds: plan.PassOverheadSeconds(m),
		}
	}
	r.dev.SetMemUsedGB((r.weightsPerGPU + r.KVReservedBytes()) / 1e9)
	r.dev.RunInto(phase, &r.iterExec)
	r.iterActive = true
	r.iterPhase = phase
	r.iterStart = now
	r.iterFormedAt = now
	r.iterBankedJ = 0
	// Cap-slowdown attribution baseline: when any knob throttles the device
	// at formation, also time the iteration's uncapped counterfactual.
	// Energy settles against it when the iteration finishes.
	if r.capped() {
		r.uncappedExecInto(phase, &r.baseExec)
		r.iterBaseSec = r.baseExec.Duration.Seconds()
		r.iterBaseJ = r.baseExec.Energy()
	} else {
		r.iterBaseSec = r.iterExec.Duration.Seconds()
		r.iterBaseJ = r.iterExec.Energy()
	}
	r.iterTimer = r.eng.AfterCancelable(r.iterExec.Duration, r.finishFn)

	r.stats.Batches++
	r.stats.PromptTokens += int64(promptToks)
	r.stats.DecodeTokens += int64(decodeSeqs * stride)
	r.batchCtr.Inc()
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{
			At: now, Kind: obs.KindBatchForm, Server: int32(r.idx), Pool: r.pool,
			Value: float64(promptToks + decodeSeqs*stride), Reason: phase.Name,
		})
	}
}

// runSpan plans a coalesced decode span: starting from the batch formBatch
// just formed (segment 0, whose reservations are already real), it walks
// the per-stride scheduler's future iterations — same batch, growing KV —
// until a completion boundary, a KV-pressure crossing, or the planning
// horizon, and schedules a single engine event at the span's end. Planning
// runs the identical per-iteration arithmetic the per-stride path runs
// (same formation formulas, same device executions), so settlement later
// reproduces its results bit for bit. Arrivals, replans, and failures
// break the span; the segments already in the past settle, the current one
// materializes as a plain in-flight iteration, and the unreached tail is
// discarded.
func (r *Replica) runSpan(now sim.Time, decodeSeqs, stride int) {
	minRem := 0
	for _, s := range r.running {
		rem := s.outputTarget() - s.decoded
		if minRem == 0 || rem < minRem {
			minRem = rem
		}
	}

	capped := r.capped()
	kv := r.kvToks // segment 0's reservations included
	segStart := now
	st := stride
	rolled := 0
	nseg := 0
	for {
		if nseg == len(r.segBuf) {
			r.segBuf = append(r.segBuf, spanSeg{})
		}
		seg := &r.segBuf[nseg]
		nseg++
		seg.start = segStart
		seg.stride = st
		seg.kvAfter = kv
		seg.phase = r.synthDecodePhase(st, decodeSeqs)
		seg.memGB = (r.weightsPerGPU + float64(kv)*float64(r.kvPerTok)) / 1e9
		r.dev.SetMemUsedGB(seg.memGB)
		r.dev.RunInto(seg.phase, &seg.exec)
		if capped {
			r.uncappedExecInto(seg.phase, &r.baseExec)
			seg.baseSec = r.baseExec.Duration.Seconds()
			seg.baseJ = r.baseExec.Energy()
		} else {
			seg.baseSec = seg.exec.Duration.Seconds()
			seg.baseJ = seg.exec.Energy()
		}
		seg.end = segStart + seg.exec.Duration

		// Shadow-advance the per-sequence KV so the next segment's phase
		// sees the grown context; rolled backs out the whole advance below
		// (real growth happens at settlement).
		for _, s := range r.running {
			s.kvTokens += st
		}
		rolled += st
		minRem -= st
		if minRem == 0 || nseg >= maxSpanSegs {
			// A sequence completes at this segment's end (or the horizon is
			// reached): the span ends here and the real finishIteration
			// handles whatever follows.
			break
		}
		if kv+decodeSeqs > r.kvCapToks {
			// The next formation would preempt under KV pressure — stop;
			// the real formBatch after the span's end does it.
			break
		}
		// The next segment's formation, exactly as formBatch computes it
		// for a pure-decode batch with an empty waiting queue.
		st = 1
		if r.cfg.DecodeStride > 1 {
			st = r.cfg.DecodeStride
			if st > minRem {
				st = minRem
			}
			if fit := (r.kvCapToks - kv) / decodeSeqs; st > fit {
				st = fit
			}
			if st < 1 {
				st = 1
			}
		}
		kv += decodeSeqs * st
		segStart = seg.end
	}
	for _, s := range r.running {
		s.kvTokens -= rolled
	}

	r.span = r.segBuf[:nseg]
	r.spanSeqs = decodeSeqs
	r.spanFormed = 1 // segment 0's formation ran for real in formBatch
	r.spanLaunched = 0
	r.spanCursor = 0
	last := &r.span[nseg-1]
	r.spanTimer = r.eng.AfterCancelable(last.end-now, r.spanEndFn)
}

// formSeg applies a span segment's deferred formation (reservations,
// high-water note) and launch (batch counters) effects, each at most once.
func (r *Replica) formSeg(i int) {
	seg := &r.span[i]
	if i >= r.spanFormed {
		for _, s := range r.running {
			s.steps = seg.stride
			r.reserveKV(s, seg.stride)
		}
		r.noteHighWater(seg.start)
		r.spanFormed = i + 1
	}
	if i >= r.spanLaunched {
		r.stats.Batches++
		r.stats.DecodeTokens += int64(r.spanSeqs * seg.stride)
		r.batchCtr.Inc()
		r.spanLaunched = i + 1
	}
}

// settleSeg applies a fully elapsed span segment's deferred effects in
// order: formation and launch (formSeg), then finish (energy settlement,
// token advances) — the exact operations, in the exact order, the
// per-stride scheduler performed at the segment's formation and finish
// instants.
func (r *Replica) settleSeg(i int) {
	r.formSeg(i)
	seg := &r.span[i]
	iterJ := seg.exec.Energy()
	r.stats.EnergyJ += iterJ
	capSec := seg.exec.Duration.Seconds() - seg.baseSec
	capJ := iterJ - seg.baseJ
	r.stats.CapExtraSec += capSec
	r.stats.CapDeltaJ += capJ
	totalToks := r.spanSeqs * seg.stride
	n := float64(totalToks)
	perTokJ := iterJ * r.scale / n
	perTokCapSec := capSec / n
	perTokCapJ := capJ * r.scale / n
	for _, s := range r.running {
		toks := seg.stride
		s.energyJ += perTokJ * float64(toks)
		s.capSec += perTokCapSec * float64(toks)
		s.capJ += perTokCapJ * float64(toks)
		s.decoded += seg.stride
		s.kvTokens += seg.stride
		s.steps = 0
		s.lastTokenAt = seg.end
	}
}

// materializeSeg turns a span segment into the plain in-flight iteration:
// deferred formation and launch effects are applied, and the iteration
// state is exactly what runIteration would have produced at seg.start. The
// segment's execution is swapped (not copied) into iterExec so both
// Segments backings keep being reused.
func (r *Replica) materializeSeg(i int, now sim.Time, withTimer bool) {
	r.formSeg(i)
	seg := &r.span[i]
	r.dev.SetMemUsedGB(seg.memGB)
	r.iterActive = true
	r.iterPhase = seg.phase
	r.iterExec, seg.exec = seg.exec, r.iterExec
	r.iterStart = seg.start
	r.iterFormedAt = seg.start
	r.iterBankedJ = 0
	r.iterBaseSec = seg.baseSec
	r.iterBaseJ = seg.baseJ
	if withTimer {
		r.iterTimer = r.eng.AfterCancelable(seg.end-now, r.finishFn)
	}
}

// spanEnd fires at the last span segment's finish: every earlier segment
// settles, the final one materializes, and the real finishIteration retires
// completed sequences and chains into the next iteration (or span) at the
// exact instant and state the per-stride scheduler would reach.
func (r *Replica) spanEnd(now sim.Time) {
	n := len(r.span)
	for i := 0; i < n-1; i++ {
		r.settleSeg(i)
	}
	r.materializeSeg(n-1, now, false)
	r.span = nil
	r.finishIteration(now)
}

// breakSpan interrupts an in-flight coalesced span at now: segments
// strictly in the past settle, the segment covering now materializes as
// the plain in-flight iteration (with its completion timer), and the
// planned tail is discarded. A no-op when no span is active. Breaking is
// trajectory-preserving: the replica's visible state and all future events
// are identical whether or not the span had been planned.
func (r *Replica) breakSpan(now sim.Time) {
	if len(r.span) == 0 {
		return
	}
	r.spanTimer.Stop()
	i := 0
	for ; i < len(r.span)-1 && r.span[i].end < now; i++ {
		r.settleSeg(i)
	}
	r.materializeSeg(i, now, true)
	r.span = nil
}

// uncappedExecInto times a phase into a caller-owned execution with the
// device's clock lock, brake, and power cap all released — the DVFS
// counterfactual for cap attribution. Device knobs are restored before
// returning, so the run is observably pure.
func (r *Replica) uncappedExecInto(phase gpu.Phase, e *gpu.Exec) {
	lock, brake, cap := r.dev.LockedClock(), r.dev.Brake(), r.dev.PowerCap()
	r.dev.LockClock(0)
	r.dev.SetBrake(false)
	r.dev.SetPowerCap(r.tdpWatts)
	r.dev.RunInto(phase, e)
	r.dev.LockClock(lock)
	r.dev.SetBrake(brake)
	r.dev.SetPowerCap(cap)
}

// finishIteration settles the iteration's energy (attributing it to the
// participating sequences by token-weighted share), applies the planned
// token advances, retires completed sequences, and chains into the next
// iteration.
func (r *Replica) finishIteration(now sim.Time) {
	r.iterActive = false

	// Settle energy and the cap counterfactual. On an uncapped iteration
	// that was never replanned both deltas are exactly zero: the actual
	// duration and energy are the very numbers the baseline recorded.
	iterJ := r.iterBankedJ + r.iterExec.Energy()
	r.stats.EnergyJ += iterJ
	capSec := (now - r.iterFormedAt).Seconds() - r.iterBaseSec
	capJ := iterJ - r.iterBaseJ
	r.stats.CapExtraSec += capSec
	r.stats.CapDeltaJ += capJ
	totalToks := 0
	for _, s := range r.running {
		totalToks += s.chunk + s.steps
	}
	var perTokJ, perTokCapSec, perTokCapJ float64
	if totalToks > 0 {
		n := float64(totalToks)
		perTokJ = iterJ * r.scale / n
		perTokCapSec = capSec / n
		perTokCapJ = capJ * r.scale / n
	}

	keep := r.running[:0]
	for _, s := range r.running {
		if toks := s.chunk + s.steps; toks > 0 {
			s.energyJ += perTokJ * float64(toks)
			s.capSec += perTokCapSec * float64(toks)
			s.capJ += perTokCapJ * float64(toks)
			if s.tr != nil {
				r.spanIteration(s, now, perTokJ, perTokCapSec, perTokCapJ)
			}
		}
		if s.chunk > 0 {
			s.prefilled += s.chunk
			s.kvTokens += s.chunk
			s.chunk = 0
			if s.prefilled >= s.prefillTarget {
				// The pass that consumed the last prompt chunk also sampled
				// an output token.
				s.decoded++
				if s.firstTokenAt < 0 {
					s.firstTokenAt = now
					if r.OnFirstToken != nil {
						r.OnFirstToken(s, now)
					}
				}
				s.lastTokenAt = now
			}
		}
		if s.steps > 0 {
			s.decoded += s.steps
			s.kvTokens += s.steps
			s.steps = 0
			s.lastTokenAt = now
		}
		if s.decoded >= s.outputTarget() {
			r.freeKV(s)
			r.stats.Completed++
			r.emitRootSpan(s, now, "")
			if r.OnComplete != nil {
				r.OnComplete(s, now)
			}
			r.recycleSeq(s)
			continue
		}
		keep = append(keep, s)
	}
	for i := len(keep); i < len(r.running); i++ {
		r.running[i] = nil
	}
	r.running = keep
	r.startIteration(now)
}

// spanBase returns a child span of the sequence's tree with the shared
// identity fields filled in. Callers must have checked s.tr != nil.
func (r *Replica) spanBase(s *Seq, kind obs.SpanKind) obs.Span {
	return obs.Span{
		Req: s.Req.ID, ID: s.tr.childID(), Parent: 1, Kind: kind,
		Server: int32(r.idx), Pool: r.pool, Class: s.Req.Class,
		Retry: int32(s.Req.Retry),
	}
}

// closeQueueSpan emits the sequence's open queue span ending now (a no-op
// when tracing is off or no queue span is open).
func (r *Replica) closeQueueSpan(s *Seq, now sim.Time) {
	if s.tr == nil || !s.tr.queueOpen {
		return
	}
	s.tr.queueOpen = false
	sp := r.spanBase(s, obs.SpanQueue)
	sp.Start, sp.End = s.tr.queueStart, now
	r.spans.Emit(sp)
}

// flushDecodeSpan emits the sequence's pending coalesced decode span.
func (r *Replica) flushDecodeSpan(s *Seq) {
	if s.tr == nil || !s.tr.hasPending {
		return
	}
	s.tr.hasPending = false
	r.spans.Emit(s.tr.pending)
}

// spanIteration records the settled iteration in the sequence's span tree:
// a prefill span per prompt chunk, and decode iterations coalesced into
// one span per uninterrupted run (back-to-back iterations chain at the
// same instant, so a long generation stays a single span instead of one
// per stride).
func (r *Replica) spanIteration(s *Seq, now sim.Time, perTokJ, perTokCapSec, perTokCapJ float64) {
	n := float64(s.chunk + s.steps)
	energy, capSec, capJ := perTokJ*n, perTokCapSec*n, perTokCapJ*n
	if s.chunk > 0 {
		r.flushDecodeSpan(s)
		sp := r.spanBase(s, obs.SpanPrefill)
		sp.Start, sp.End = r.iterFormedAt, now
		sp.Tokens = int32(s.chunk)
		sp.Recompute = s.preempts > 0
		sp.EnergyJ, sp.CapSec, sp.CapJ = energy, capSec, capJ
		r.spans.Emit(sp)
		return
	}
	if s.tr.hasPending && s.tr.pending.End == r.iterFormedAt {
		p := &s.tr.pending
		p.End = now
		p.Tokens += int32(s.steps)
		p.EnergyJ += energy
		p.CapSec += capSec
		p.CapJ += capJ
		return
	}
	r.flushDecodeSpan(s)
	sp := r.spanBase(s, obs.SpanDecode)
	sp.Start, sp.End = r.iterFormedAt, now
	sp.Tokens = int32(s.steps)
	sp.EnergyJ, sp.CapSec, sp.CapJ = energy, capSec, capJ
	s.tr.pending = sp
	s.tr.hasPending = true
}

// emitRootSpan closes the sequence's tree with its root request span,
// carrying the request-level attributions. reason is empty on completion
// and names the cause on drops.
func (r *Replica) emitRootSpan(s *Seq, now sim.Time, reason string) {
	if s.tr == nil {
		return
	}
	r.flushDecodeSpan(s)
	r.spans.Emit(obs.Span{
		Req: s.Req.ID, ID: 1, Kind: obs.SpanRequest,
		Start: s.Req.Arrival, End: now,
		Server: int32(r.idx), Pool: r.pool, Class: s.Req.Class,
		Tokens:   int32(s.decoded),
		Preempts: int32(s.preempts),
		EnergyJ:  s.energyJ, CapSec: s.capSec, CapJ: s.capJ,
		TTFTSec: s.TTFTSeconds(),
		Reason:  reason,
		Retry:   int32(s.Req.Retry),
		Session: s.Req.Session, Turn: int32(s.Req.Turn),
	})
	r.trFree = append(r.trFree, s.tr)
	s.tr = nil
}

// String describes the replica's instantaneous state (for debugging).
func (r *Replica) String() string {
	return fmt.Sprintf("replica %d: %d running, %d waiting, KV %.0f%%",
		r.idx, len(r.running), r.waiting.Len(), r.KVFrac()*100)
}
