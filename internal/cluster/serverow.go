package cluster

import (
	"time"

	"polca/internal/obs"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/workload"
)

// This file is the serve-mode row backend: when RowConfig.Serve is set, the
// row runs one continuous-batching serve.Replica per server instead of the
// slot model, and a serve.Router spreads arrivals across each pool. The
// power-management side — telemetry, brake, controller, OOB pipeline — is
// identical in both modes; only where busy time and power come from changes.

// ServeStats aggregates the serving replicas' scheduler counters across the
// row (all zero in slot mode). BusySec in serve mode records residency
// (enqueue to completion) rather than pure service time, since batched
// execution has no exclusive-service interval.
type ServeStats struct {
	// Batches counts continuous-batching iterations formed row-wide.
	Batches int
	// Preemptions counts sequences bounced to recompute under KV pressure.
	Preemptions int
	// PromptTokens and DecodeTokens count prefill tokens processed and
	// tokens generated.
	PromptTokens int64
	DecodeTokens int64
	// MaxRunning is the deepest running batch any replica reached.
	MaxRunning int
	// KVHighWaterFrac is the highest KV-cache occupancy fraction any replica
	// reached; KVHighWaterEvents counts traced new-high-water emissions.
	KVHighWaterFrac   float64
	KVHighWaterEvents int
	// KVReservedTokens and KVFreedTokens are the cumulative KV ledger; they
	// are equal once every replica has drained (the no-leak invariant).
	KVReservedTokens int64
	KVFreedTokens    int64
	// EnergyJ is the integrated GPU energy of every settled iteration
	// row-wide, in tensor-parallel-group joules (replica per-GPU energy
	// times the group size). The per-request attribution sums to exactly
	// this at drain — the conservation invariant.
	EnergyJ float64
	// CapExtraSec and CapDeltaJ aggregate the iterations' extra seconds and
	// extra (or, negative, saved) group joules versus the DVFS uncapped
	// counterfactual; both are exactly 0 on a run that never capped.
	CapExtraSec float64
	CapDeltaJ   float64
}

// serveMode reports whether the row runs the request-level backend.
func (r *Row) serveMode() bool { return r.cfg.Serve != nil }

// retryEntry is one failed-over request waiting to re-enter the router.
// seq is a monotonic admission counter so equal due times replay in FIFO
// order — the heap order is total and the retry stream deterministic.
type retryEntry struct {
	due sim.Time
	seq uint64
	req workload.Request
}

// retryQueue is a by-value min-heap of retry entries ordered by (due,
// seq). Entries are stored inline and the backing array is reused, so the
// steady-state push/pop cycle allocates nothing.
type retryQueue struct {
	entries []retryEntry
}

func (q *retryQueue) len() int { return len(q.entries) }

func (q *retryQueue) less(a, b int) bool {
	ea, eb := &q.entries[a], &q.entries[b]
	if ea.due != eb.due {
		return ea.due < eb.due
	}
	return ea.seq < eb.seq
}

func (q *retryQueue) min() *retryEntry { return &q.entries[0] }

func (q *retryQueue) push(e retryEntry) {
	q.entries = append(q.entries, e)
	i := len(q.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

func (q *retryQueue) pop() retryEntry {
	top := q.entries[0]
	last := len(q.entries) - 1
	q.entries[0] = q.entries[last]
	q.entries[last] = retryEntry{}
	q.entries = q.entries[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		smallest := i
		if l < last && q.less(l, smallest) {
			smallest = l
		}
		if rr < last && q.less(rr, smallest) {
			smallest = rr
		}
		if smallest == i {
			break
		}
		q.entries[i], q.entries[smallest] = q.entries[smallest], q.entries[i]
		i = smallest
	}
	return top
}

// buildShedRanks orders the workload classes by how expendable they are
// to SLO-class-aware shedding, derived from each class's traffic split
// rather than its name: a class running entirely at low priority is batch
// work (rank 0, shed first); a class split across both pools serves
// interactive sessions whose SLO the paper calls latency-critical (rank
// 2, shed last, never at severity 1); everything else is standard
// interactive (rank 1). On Table 6 this maps summarize→0, search→1,
// chat→2. The rank is a property of the class, not the request: a chat
// turn routed to the low-priority pool is still a critical-class request.
func buildShedRanks(classes []workload.Class) map[string]int {
	ranks := make(map[string]int, len(classes))
	for _, c := range classes {
		switch {
		case c.LowShare >= 1:
			ranks[c.Name] = 0
		case c.LowShare > 0:
			ranks[c.Name] = 2
		default:
			ranks[c.Name] = 1
		}
	}
	return ranks
}

// shedRank resolves a request's shed rank; requests from classes outside
// the configured table (replayed foreign traces) fall back to priority.
func (r *Row) shedRank(req workload.Request) int {
	if rank, ok := r.shedRanks[req.Class]; ok {
		return rank
	}
	if req.Priority == workload.Low {
		return 0
	}
	return 1
}

// classDigest returns the class's quantile sketch, creating it on first
// use.
func classDigest(m map[string]*obs.Digest, class string) *obs.Digest {
	d := m[class]
	if d == nil {
		d = obs.NewDigest(obs.DefaultCompression)
		m[class] = d
	}
	return d
}

// ServeConfig returns the resolved serving configuration, or nil in slot
// mode.
func (r *Row) ServeConfig() *serve.Config {
	if !r.serveMode() {
		return nil
	}
	c := r.serveCfg
	return &c
}

// initServe builds the per-node replicas and per-pool routers. The serving
// model defaults to the row's model so callers only override what differs.
func (r *Row) initServe() error {
	scfg := *r.cfg.Serve
	if scfg.Model.Params == 0 {
		scfg.Model = r.cfg.Model
		scfg.DType = r.cfg.DType
	}
	scfg = scfg.WithDefaults()
	r.serveCfg = scfg
	if err := scfg.Validate(r.GPUSpec()); err != nil {
		return err
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		rt, err := serve.NewRouter(scfg.Router)
		if err != nil {
			return err
		}
		r.routers[p] = rt
	}
	r.metrics.TTFT = map[string]*obs.Digest{}
	r.metrics.TBT = map[string]*obs.Digest{}
	r.metrics.ClassEnergyJ = map[string]float64{}
	r.metrics.ClassTokens = map[string]int64{}
	r.metrics.ClassArrived = map[string]int{}
	r.metrics.ClassSLOOK = map[string]int{}
	r.metrics.ClassShed = map[string]int{}
	if r.cfg.ShedRanks != nil {
		r.shedRanks = r.cfg.ShedRanks
	} else {
		r.shedRanks = buildShedRanks(r.cfg.Classes)
	}
	r.retryPumpFn = r.retryPump
	slo := r.cfg.TTFTSLO
	if slo == 0 {
		slo = defaultTTFTSLO
	}
	sloSec := slo.Seconds()
	for _, n := range r.nodes {
		n := n
		rep, err := serve.NewReplica(r.eng, scfg, n.dev, n.idx, int8(n.pri))
		if err != nil {
			return err
		}
		rep.OnFirstToken = func(s *serve.Seq, now sim.Time) {
			sec := s.TTFTSeconds()
			classDigest(r.metrics.TTFT, s.Req.Class).Add(sec)
			if sec <= sloSec {
				r.metrics.ClassSLOOK[s.Req.Class]++
			}
			r.tsdb.observeFirstToken(now, sec)
		}
		rep.OnComplete = func(s *serve.Seq, now sim.Time) {
			r.completeRequest(now, int32(n.idx), &s.Req, s.Enqueued)
			tbt := s.MeanTBTSeconds()
			classDigest(r.metrics.TBT, s.Req.Class).Add(tbt)
			if ts := r.tsdb; ts != nil {
				ts.tbt.Observe(now, tbt)
			}
			r.metrics.ClassEnergyJ[s.Req.Class] += s.EnergyJ()
			r.metrics.ClassTokens[s.Req.Class] += int64(s.Decoded())
		}
		rep.OnDrop = func(s *serve.Seq, now sim.Time, reason string) {
			// Dropped requests keep their partial attribution so per-class
			// energy still sums to the replica-integrated total — including
			// failed attempts that the failover path re-admits (the retried
			// attempt recomputes from scratch, but the energy was spent).
			r.metrics.ClassEnergyJ[s.Req.Class] += s.EnergyJ()
			r.metrics.ClassTokens[s.Req.Class] += int64(s.Decoded())
			// The *Seq is recycled after this callback; failServe takes the
			// request by value, so nothing outlives it. The replica has
			// already closed the request's root span.
			r.failServe(now, int32(n.idx), s.Req, reason, true)
		}
		n.rep = rep
	}
	return nil
}

// dispatchServe routes one request to a replica in its priority pool. Dead,
// draining, and circuit-open nodes are excluded from the candidate set; an
// empty set or a full replica queue sheds the request — or, with the
// failover path armed, requeues it for a bounded, backed-off retry. With
// class shedding armed, a power emergency degrades admission by shed rank
// before routing is even attempted.
func (r *Row) dispatchServe(now sim.Time, req workload.Request) {
	pri := req.Priority
	if req.Retry == 0 {
		r.metrics.ClassArrived[req.Class]++
	}
	if r.cfg.ServeClassShed && r.shedLevel > 0 && r.shedRank(req) < r.shedLevel {
		r.metrics.ClassShed[req.Class]++
		r.dropServe(now, -1, req, "class-shed")
		return
	}
	circuit := r.cfg.ServeCircuitSheds > 0
	cands := r.serveCands[pri][:0]
	for _, n := range r.pools[pri] {
		if n.dead || n.draining() || (circuit && now < n.circuitUntil) {
			continue
		}
		cands = append(cands, obs.RouteCandidate{
			Server:    int32(n.idx),
			Load:      int32(n.rep.Load()),
			KVFrac:    n.rep.KVFrac(),
			CappedMHz: n.appliedLock,
		})
	}
	r.serveCands[pri] = cands
	i := r.routers[pri].Pick(cands, req)
	// The decision log records the pick with exactly the candidates the
	// router saw; the recorder copies them into its arena, so the reused
	// slice keeps steady-state recording allocation-free.
	r.dec.RecordRoute(obs.Decision{
		At:      now,
		ReqID:   req.ID,
		Class:   req.Class,
		Pri:     int8(req.Priority),
		Retry:   int32(req.Retry),
		Session: req.Session,
		Prefix:  req.PrefixGroup,
		Chosen:  int32(i),
	}, cands)
	if i < 0 {
		r.failServe(now, -1, req, "no-server", false)
		return
	}
	n := r.nodes[cands[i].Server]
	if !n.rep.Enqueue(now, req) {
		r.noteShed(n, now)
		r.failServe(now, int32(n.idx), req, "queue-full", false)
		return
	}
	if q := n.rep.QueueLen(); q > r.metrics.MaxQueueLen {
		r.metrics.MaxQueueLen = q
	}
}

// failServe handles a request the serving path could not place or a
// replica dropped: with retry budget remaining it re-enters the router
// after a deterministic backoff, otherwise it is finally dropped. spanned
// marks a request whose replica already closed its root span.
func (r *Row) failServe(now sim.Time, srv int32, req workload.Request, reason string, spanned bool) {
	if r.cfg.ServeRetries > 0 {
		if req.Retry < r.cfg.ServeRetries {
			r.requeueServe(now, srv, req, reason)
			return
		}
		reason = "retry-exhausted"
		r.metrics.ServeRetryExhausted++
	}
	if spanned {
		r.dropRequest(now, srv, req.Priority, reason)
		return
	}
	r.dropServe(now, srv, req, reason)
}

// requeueServe pushes a failed-over request onto the retry queue and arms
// the pump. The backoff is base × 2^(attempt-1) capped at 64× base, a pure
// function of the attempt count — no randomness, so the rand-audit
// invariant and byte-identical reruns hold.
func (r *Row) requeueServe(now sim.Time, srv int32, req workload.Request, reason string) {
	req.Retry++
	r.metrics.ServeRetries++
	r.tracer.Emit(obs.Event{
		At: now, Kind: obs.KindRetry, Server: srv, Pool: int8(req.Priority),
		Value: float64(req.Retry), Reason: reason,
	})
	base := r.cfg.ServeRetryBackoff
	if base <= 0 {
		base = r.cfg.TelemetryInterval
	}
	shift := req.Retry - 1
	if shift > 6 {
		shift = 6
	}
	due := now + base<<shift
	r.retrySeq++
	r.retryQ.push(retryEntry{due: due, seq: r.retrySeq, req: req})
	if r.retryArmed == 0 || due < r.retryArmed {
		r.retryArmed = due
		r.eng.At(due, r.retryPumpFn)
	}
}

// retryPump re-dispatches every retry entry that has come due, then
// re-arms itself for the next one. Stale pump firings (a later entry armed
// an earlier time) are harmless: the loop is idempotent and the re-arm
// only schedules when the armed time improves.
func (r *Row) retryPump(now sim.Time) {
	if r.retryArmed != 0 && now >= r.retryArmed {
		r.retryArmed = 0
	}
	for r.retryQ.len() > 0 && r.retryQ.min().due <= now {
		e := r.retryQ.pop()
		r.dispatchServe(now, e.req)
	}
	if r.retryQ.len() > 0 {
		due := r.retryQ.min().due
		if r.retryArmed == 0 || due < r.retryArmed {
			r.retryArmed = due
			r.eng.At(due, r.retryPumpFn)
		}
	}
}

// noteShed feeds the per-replica circuit breaker: enough queue-full sheds
// within one telemetry epoch (the counters reset every tick) trip the
// node's admission circuit for the cooldown, steering the router away from
// a hot-spotted replica instead of hammering it.
func (r *Row) noteShed(n *node, now sim.Time) {
	if r.cfg.ServeCircuitSheds <= 0 {
		return
	}
	n.shedEpoch++
	if n.shedEpoch != r.cfg.ServeCircuitSheds || now < n.circuitUntil {
		return
	}
	cooldown := r.cfg.ServeCircuitCooldown
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	n.circuitUntil = now + cooldown
	r.metrics.CircuitOpens++
	r.tracer.Emit(obs.Event{
		At: now, Kind: obs.KindCircuitOpen, Server: int32(n.idx), Pool: int8(n.pri),
		Value: float64(n.shedEpoch),
	})
}

// serveHealthTick runs the serve-mode health bookkeeping once per
// telemetry epoch: circuit-breaker shed counters reset, and the class-shed
// severity tracks the row's emergency signals. A row with the knobs off
// pays two branch checks.
func (r *Row) serveHealthTick(now sim.Time) {
	if !r.serveMode() {
		return
	}
	if r.cfg.ServeCircuitSheds > 0 {
		for _, n := range r.nodes {
			n.shedEpoch = 0
		}
	}
	if !r.cfg.ServeClassShed {
		return
	}
	lvl, reason := r.shedTarget()
	if lvl != r.shedLevel {
		r.shedLevel = lvl
		r.tracer.Emit(obs.Event{
			At: now, Kind: obs.KindShedLevel, Server: -1, Pool: obs.PoolNone,
			Value: float64(lvl), Reason: reason,
		})
	}
}

// shedTarget computes the class-shed severity from the row's emergency
// signals: 2 (shed everything below critical) while the brake is pending
// or engaged or the watchdog holds the row, 1 (shed batch traffic) under a
// deep frequency cap or sustained KV high water, 0 otherwise.
func (r *Row) shedTarget() (int, string) {
	if r.braked || r.brakePending {
		return 2, "brake"
	}
	if r.epoch.Engaged() {
		return 2, "watchdog"
	}
	high := false
	deep := false
	for _, n := range r.nodes {
		if n.dead {
			continue
		}
		if n.appliedLock > 0 && n.appliedLock <= r.epoch.wdLPMHz {
			deep = true
		}
		if n.rep.KVFrac() >= serveKVShedFrac {
			high = true
		}
	}
	if high {
		r.kvHighTicks++
	} else {
		r.kvHighTicks = 0
	}
	switch {
	case deep:
		return 1, "deep-cap"
	case r.kvHighTicks >= serveKVShedTicks:
		return 1, "kv-pressure"
	}
	return 0, ""
}

// serveKVShedFrac and serveKVShedTicks define "sustained KV high water"
// for the class-shed severity: some replica's KV occupancy at or above the
// fraction for that many consecutive telemetry epochs.
const (
	serveKVShedFrac  = 0.90
	serveKVShedTicks = 3
)

// dropServe finally drops a request the serving path could not place
// (router found no live replica, the chosen replica's queue was full, the
// class shedder refused it, or its retry budget ran out). When span
// tracing is on, a request that never reached a replica still gets a root
// span so the analyzer sees every outcome.
func (r *Row) dropServe(now sim.Time, srv int32, req workload.Request, reason string) {
	r.dropRequest(now, srv, req.Priority, reason)
	r.spanSink.Emit(obs.Span{
		Req: req.ID, ID: 1, Kind: obs.SpanRequest,
		Start: req.Arrival, End: now,
		Server: srv, Pool: int8(req.Priority), Class: req.Class,
		TTFTSec: -1, Reason: reason, Retry: int32(req.Retry),
	})
}

// finalizeServe folds the replicas' scheduler counters into the run
// metrics. Called once at the end of Run/RunRequests.
func (r *Row) finalizeServe() {
	if !r.serveMode() {
		return
	}
	// Requests still waiting in the retry queue when the run drains are
	// final drops — the conservation invariant (arrived = completed +
	// dropped) must hold at drain.
	for r.retryQ.len() > 0 {
		e := r.retryQ.pop()
		r.dropServe(r.eng.Now(), -1, e.req, "end-of-run")
	}
	st := &r.metrics.Serve
	group := float64(r.serveCfg.TensorParallel)
	for _, n := range r.nodes {
		s := n.rep.Stats()
		st.Batches += s.Batches
		st.Preemptions += s.Preemptions
		st.PromptTokens += s.PromptTokens
		st.DecodeTokens += s.DecodeTokens
		st.KVHighWaterEvents += s.KVHighWaterEvents
		st.KVReservedTokens += s.KVReservedTokens
		st.KVFreedTokens += s.KVFreedTokens
		st.EnergyJ += s.EnergyJ * group
		st.CapExtraSec += s.CapExtraSec
		st.CapDeltaJ += s.CapDeltaJ * group
		if s.MaxRunning > st.MaxRunning {
			st.MaxRunning = s.MaxRunning
		}
		if s.KVHighWaterFrac > st.KVHighWaterFrac {
			st.KVHighWaterFrac = s.KVHighWaterFrac
		}
	}
}
