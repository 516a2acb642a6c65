package serve

import (
	"fmt"

	"polca/internal/obs"
	"polca/internal/workload"
)

// Router picks a replica for an arriving request from the candidates'
// snapshots: in-flight sequences (waiting plus running), KV-cache
// occupancy, and the applied SM-clock lock (0 = uncapped). The snapshot is
// the decision log's obs.RouteCandidate, so the live row and an offline
// replay hand routers the same values. Implementations must be
// deterministic — ties break on the lowest candidate index, and no policy
// draws randomness — so serve-mode runs stay byte-identical across reruns.
type Router interface {
	Name() string
	// Pick returns the index into cands to route the request to, or -1 if
	// cands is empty.
	Pick(cands []obs.RouteCandidate, req workload.Request) int
}

// RouterNames lists the available policies in a stable order.
func RouterNames() []string {
	return []string{"round-robin", "least-queue", "least-kv", "power-aware", "session-affinity"}
}

// NewRouter builds a routing policy by name.
func NewRouter(name string) (Router, error) {
	switch name {
	case "round-robin":
		return &roundRobin{}, nil
	case "least-queue":
		return leastQueue{}, nil
	case "least-kv":
		return leastKV{}, nil
	case "power-aware":
		return powerAware{}, nil
	case "session-affinity":
		return sessionAffinity{}, nil
	}
	return nil, fmt.Errorf("serve: unknown router %q (have %v)", name, RouterNames())
}

// roundRobin cycles through the candidates regardless of load.
type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Pick(cands []obs.RouteCandidate, _ workload.Request) int {
	if len(cands) == 0 {
		return -1
	}
	i := r.next % len(cands)
	r.next = i + 1
	return i
}

// leastQueue routes to the replica with the fewest sequences in flight
// (waiting plus running) — the classic load balancer.
type leastQueue struct{}

func (leastQueue) Name() string { return "least-queue" }

func (leastQueue) Pick(cands []obs.RouteCandidate, _ workload.Request) int {
	best := -1
	for i := range cands {
		if best < 0 || cands[i].Load < cands[best].Load {
			best = i
		}
	}
	return best
}

// leastKV routes to the replica with the most free KV cache, which spreads
// long-context work away from memory-pressured replicas and so minimizes
// preemptions.
type leastKV struct{}

func (leastKV) Name() string { return "least-kv" }

func (leastKV) Pick(cands []obs.RouteCandidate, _ workload.Request) int {
	best := -1
	for i := range cands {
		if best < 0 || cands[i].KVFrac < cands[best].KVFrac {
			best = i
		}
	}
	return best
}

// powerAware steers low-priority work toward frequency-capped replicas and
// keeps high-priority work on uncapped ones, concentrating the latency
// penalty of POLCA's caps on the traffic that tolerates it (the paper's
// priority argument, applied at routing time). Within the preferred set it
// falls back to least-queue; if the preferred set is empty it considers
// everyone.
type powerAware struct{}

func (powerAware) Name() string { return "power-aware" }

func (powerAware) Pick(cands []obs.RouteCandidate, req workload.Request) int {
	wantCapped := req.Priority == workload.Low
	best, bestPreferred := -1, false
	for i := range cands {
		preferred := (cands[i].CappedMHz > 0) == wantCapped
		switch {
		case best < 0,
			preferred && !bestPreferred,
			preferred == bestPreferred && cands[i].Load < cands[best].Load:
			best, bestPreferred = i, preferred
		}
	}
	return best
}

// sessionAffinity keeps the turns of one scenario session — and, failing
// that, the requests of one shared-prefix group — on the same replica, so
// the carried context's KV pages land where earlier turns already warmed
// them (vLLM-style prefix-cache locality). The key hashes onto the
// candidate set, which is stable while the pool is healthy; requests with
// no session or prefix structure (legacy traffic, retries after failover
// reshuffles) fall back to least-queue. Deterministic: the hash depends
// only on the request, ties on the candidate order.
type sessionAffinity struct{}

func (sessionAffinity) Name() string { return "session-affinity" }

func (sessionAffinity) Pick(cands []obs.RouteCandidate, req workload.Request) int {
	if len(cands) == 0 {
		return -1
	}
	key := uint64(req.Session)
	if key == 0 {
		key = uint64(req.PrefixGroup)
	}
	if key == 0 || req.Retry > 0 {
		return leastQueue{}.Pick(cands, req)
	}
	// Fibonacci hashing spreads consecutive session ids uniformly.
	return int((key * 0x9E3779B97F4A7C15 >> 33) % uint64(len(cands)))
}
