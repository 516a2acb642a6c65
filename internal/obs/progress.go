package obs

import (
	"sort"
	"sync"
	"time"
)

// Progress tracks a set of named units of work (sweep grid points) from
// start to finish, for the -v progress log and the /progress endpoint. A
// nil *Progress disables tracking. Wall-clock here is observability
// metadata — it never feeds back into simulation state.
type Progress struct {
	mu       sync.Mutex
	total    int
	done     int
	cached   int
	inflight map[string]time.Time

	// OnDone, if set, is called (outside the lock) after each unit
	// completes with the unit name, done count, total, whether the result
	// came from the singleflight cache, and the unit's wall-clock elapsed.
	OnDone func(name string, done, total int, cached bool, elapsed time.Duration)
}

// NewProgress returns a tracker expecting total units.
func NewProgress(total int) *Progress {
	return &Progress{total: total, inflight: map[string]time.Time{}}
}

// AddTotal grows the expected unit count — sweeps register their batch
// sizes as they reach the executor, since the full grid is not known up
// front.
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()
}

// Start marks a unit in flight.
func (p *Progress) Start(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.inflight[name] = time.Now()
	p.mu.Unlock()
}

// Done marks a unit complete and fires OnDone.
func (p *Progress) Done(name string, cached bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	started, ok := p.inflight[name]
	delete(p.inflight, name)
	p.done++
	if cached {
		p.cached++
	}
	done, total := p.done, p.total
	cb := p.OnDone
	p.mu.Unlock()
	var elapsed time.Duration
	if ok {
		elapsed = time.Since(started)
	}
	if cb != nil {
		cb(name, done, total, cached, elapsed)
	}
}

// ProgressSnapshot is a point-in-time view for the /progress endpoint.
type ProgressSnapshot struct {
	Total    int            `json:"total"`
	Done     int            `json:"done"`
	Cached   int            `json:"cached"`
	InFlight []InFlightUnit `json:"in_flight"`
}

// InFlightUnit is one unit currently running.
type InFlightUnit struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Snapshot returns the current state with in-flight units sorted by name.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{InFlight: []InFlightUnit{}}
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	units := make([]InFlightUnit, 0, len(p.inflight))
	for name, started := range p.inflight {
		units = append(units, InFlightUnit{
			Name:      name,
			ElapsedMS: float64(now.Sub(started)) / float64(time.Millisecond),
		})
	}
	sort.Slice(units, func(a, b int) bool { return units[a].Name < units[b].Name })
	return ProgressSnapshot{Total: p.total, Done: p.done, Cached: p.cached, InFlight: units}
}
