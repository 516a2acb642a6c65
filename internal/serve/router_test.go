package serve

import (
	"testing"

	"polca/internal/obs"
	"polca/internal/workload"
)

// loads builds uncapped candidates with the given queued+running loads.
func loads(ls ...int32) []obs.RouteCandidate {
	out := make([]obs.RouteCandidate, len(ls))
	for i, l := range ls {
		out[i] = obs.RouteCandidate{Server: int32(i), Load: l}
	}
	return out
}

// TestRoutersPickFromSnapshotOnly drives every router over one candidate
// snapshot, the value type the decision log records and polca-replay
// re-routes offline.
func TestRoutersPickFromSnapshotOnly(t *testing.T) {
	c := []obs.RouteCandidate{
		{Load: 3, KVFrac: 0.9},
		{Load: 1, KVFrac: 0.1, CappedMHz: 1110},
		{Load: 2, KVFrac: 0.5},
	}
	req := workload.Request{Priority: workload.Low, Session: 11}
	for _, name := range RouterNames() {
		rt, _ := NewRouter(name)
		if got := rt.Pick(c, req); got < 0 || got >= len(c) {
			t.Errorf("%s.Pick = %d, want a valid index", name, got)
		}
	}
}

func TestRouterNamesRoundTrip(t *testing.T) {
	for _, name := range RouterNames() {
		rt, err := NewRouter(name)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", name, err)
		}
		if rt.Name() != name {
			t.Errorf("NewRouter(%q).Name() = %q", name, rt.Name())
		}
	}
	if _, err := NewRouter("totally-bogus"); err == nil {
		t.Error("unknown router accepted")
	}
}

func TestRoutersEmptyEndpoints(t *testing.T) {
	for _, name := range RouterNames() {
		rt, _ := NewRouter(name)
		if got := rt.Pick(nil, workload.Request{}); got != -1 {
			t.Errorf("%s.Pick(empty) = %d, want -1", name, got)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rt, _ := NewRouter("round-robin")
	c := loads(9, 0, 5)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := rt.Pick(c, workload.Request{}); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastQueuePicksMinLoadLowestIndex(t *testing.T) {
	rt, _ := NewRouter("least-queue")
	if got := rt.Pick(loads(3, 1, 1), workload.Request{}); got != 1 {
		t.Errorf("pick = %d, want 1 (lowest index among ties)", got)
	}
}

func TestLeastKVPicksEmptiestCache(t *testing.T) {
	rt, _ := NewRouter("least-kv")
	c := []obs.RouteCandidate{{KVFrac: 0.5}, {KVFrac: 0.2}, {KVFrac: 0.2}}
	if got := rt.Pick(c, workload.Request{}); got != 1 {
		t.Errorf("pick = %d, want 1 (least KV, lowest index among ties)", got)
	}
}

func TestPowerAwareSteering(t *testing.T) {
	rt, _ := NewRouter("power-aware")
	// Candidate 0: uncapped, idle. Candidates 1, 2: frequency-capped, with
	// candidate 2 less loaded.
	c := []obs.RouteCandidate{
		{Load: 0},
		{Load: 5, CappedMHz: 1200},
		{Load: 1, CappedMHz: 1200},
	}
	low := workload.Request{Priority: workload.Low}
	high := workload.Request{Priority: workload.High}
	if got := rt.Pick(c, low); got != 2 {
		t.Errorf("low-priority pick = %d, want 2 (least-loaded capped)", got)
	}
	if got := rt.Pick(c, high); got != 0 {
		t.Errorf("high-priority pick = %d, want 0 (uncapped)", got)
	}

	// No capped replica at all: low priority falls back to least-queue
	// across everyone.
	if got := rt.Pick(loads(4, 2), low); got != 1 {
		t.Errorf("fallback pick = %d, want 1", got)
	}
}

func TestSessionAffinity(t *testing.T) {
	rt, _ := NewRouter("session-affinity")
	// Loads differ so a least-queue fallback is distinguishable from the
	// hash; 1 and 3 tie for least loaded.
	c := loads(4, 1, 3, 1, 2)

	t.Run("same-session-same-index", func(t *testing.T) {
		for sess := int64(1); sess <= 50; sess++ {
			first := rt.Pick(c, workload.Request{Session: sess, Turn: 1})
			if first < 0 || first >= len(c) {
				t.Fatalf("session %d: pick %d out of range", sess, first)
			}
			// Later turns land on the same replica whatever the loads and
			// other request fields.
			later := workload.Request{Session: sess, Turn: 3, PrefixGroup: 99, Priority: workload.High}
			if got := rt.Pick(loads(0, 9, 9, 9, 9), later); got != first {
				t.Errorf("session %d: turn pick %d, first turn %d", sess, got, first)
			}
		}
	})

	t.Run("prefix-group-fallback", func(t *testing.T) {
		for g := int32(1); g <= 50; g++ {
			byPrefix := rt.Pick(c, workload.Request{PrefixGroup: g})
			bySession := rt.Pick(c, workload.Request{Session: int64(g)})
			if byPrefix != bySession {
				t.Errorf("prefix group %d: pick %d, want the session-%d pick %d", g, byPrefix, g, bySession)
			}
		}
		// Spread: distinct keys do not all hash to one replica.
		seen := map[int]bool{}
		for g := int32(1); g <= 50; g++ {
			seen[rt.Pick(c, workload.Request{PrefixGroup: g})] = true
		}
		if len(seen) < 2 {
			t.Errorf("50 prefix groups landed on %d replica(s)", len(seen))
		}
	})

	t.Run("least-queue-fallback", func(t *testing.T) {
		// Key 8 hashes away from the least-queue pick, so a retry that
		// kept its affinity would fail below.
		if got := rt.Pick(c, workload.Request{Session: 8}); got == 1 {
			t.Fatalf("session 8 hashes to the least-queue pick %d; choose another key", got)
		}
		for _, req := range []workload.Request{
			{},
			{Session: 8, Retry: 1},
			{PrefixGroup: 8, Retry: 2},
		} {
			if got := rt.Pick(c, req); got != 1 {
				t.Errorf("%+v: pick %d, want 1 (least queue, lowest index among ties)", req, got)
			}
		}
	})
}
