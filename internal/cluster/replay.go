package cluster

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"polca/internal/sim"
	"polca/internal/trace"
	"polca/internal/workload"
)

// GenerateRequests materializes the synthetic request trace for a row: the
// arrival times of the fitted plan with concrete classes, priorities, and
// token sizes sampled from the row's workload mix. This is the artifact the
// paper's simulator consumes ("this synthetic trace contains the arrivals
// for each inference request along with their input and output sizes",
// §6.4); it can be saved, audited, and replayed with Row.RunRequests.
func GenerateRequests(cfg RowConfig, plan trace.RatePlan, seed int64) ([]workload.Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New(seed)
	sampler := workload.NewSampler(cfg.Classes, eng.Rand("workload"))
	poolRNG := eng.Rand("dispatch")
	arrRNG := eng.Rand("arrivals")

	// Pool split mirrors NewRow: weight ∝ poolSize / mean service time.
	total := cfg.Servers()
	lpServers := int(float64(total)*cfg.LowPriorityFraction + 0.5)
	wLow := float64(lpServers) / cfg.MeanServiceSeconds(workload.Low)
	wHigh := float64(total-lpServers) / cfg.MeanServiceSeconds(workload.High)
	lowProb := 0.0
	if wLow+wHigh > 0 {
		lowProb = wLow / (wLow + wHigh)
	}

	var out []workload.Request
	t := time.Duration(0)
	for {
		next, ok := plan.NextAfter(t, arrRNG)
		if !ok {
			return out, nil
		}
		t = next
		pri := workload.High
		if poolRNG.Float64() < lowProb {
			pri = workload.Low
		}
		out = append(out, sampler.SampleWithPriority(next, pri))
	}
}

// RunRequests simulates the row serving an explicit, pre-materialized
// request trace (e.g. one loaded from disk) instead of sampling arrivals
// online. Requests must be sorted by arrival time.
func (r *Row) RunRequests(reqs []workload.Request, horizon time.Duration) *Metrics {
	// An explicit trace needs no rate plan, but the admission gate derives
	// its offered-load target from one: reconstruct a coarse plan from the
	// trace itself (arrival counts per 5-minute bucket).
	r.arrivalPlan = planFromRequests(reqs, horizon)
	for _, req := range reqs {
		req := req
		if req.Arrival > horizon {
			break
		}
		r.eng.At(req.Arrival, func(now sim.Time) {
			r.metrics.Arrived[req.Priority]++
			r.dispatch(now, req)
		})
	}
	return r.runTo(horizon)
}

// planFromRequests histograms arrivals into a rate plan.
func planFromRequests(reqs []workload.Request, horizon time.Duration) trace.RatePlan {
	bucket := 5 * time.Minute
	n := int(horizon/bucket) + 1
	plan := trace.RatePlan{Bucket: bucket, Rates: make([]float64, n), Shape: 32}
	for _, req := range reqs {
		i := int(req.Arrival / bucket)
		if i >= 0 && i < n {
			plan.Rates[i] += 1 / bucket.Seconds()
		}
	}
	return plan
}

// SaveRequestsCSV writes a request trace with one row per request.
func SaveRequestsCSV(w io.Writer, reqs []workload.Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"arrival_sec", "class", "priority", "input_tokens", "output_tokens"}); err != nil {
		return err
	}
	for _, r := range reqs {
		rec := []string{
			strconv.FormatFloat(r.Arrival.Seconds(), 'f', 3, 64),
			r.Class,
			r.Priority.String(),
			strconv.Itoa(r.Input),
			strconv.Itoa(r.Output),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadRequestsCSV reads a trace written by SaveRequestsCSV and returns the
// requests sorted by arrival.
func LoadRequestsCSV(rd io.Reader) ([]workload.Request, error) {
	cr := csv.NewReader(rd)
	cr.Comment = '#' // skip run-provenance header lines
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("cluster: empty request trace")
	}
	var out []workload.Request
	for i, rec := range records[1:] {
		if len(rec) != 5 {
			return nil, fmt.Errorf("cluster: trace line %d: want 5 fields, got %d", i+2, len(rec))
		}
		sec, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace line %d: bad arrival: %w", i+2, err)
		}
		var pri workload.Priority
		switch rec[2] {
		case "low":
			pri = workload.Low
		case "high":
			pri = workload.High
		default:
			return nil, fmt.Errorf("cluster: trace line %d: bad priority %q", i+2, rec[2])
		}
		input, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("cluster: trace line %d: bad input: %w", i+2, err)
		}
		output, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("cluster: trace line %d: bad output: %w", i+2, err)
		}
		if input <= 0 || output < 0 {
			return nil, fmt.Errorf("cluster: trace line %d: non-positive sizes", i+2)
		}
		out = append(out, workload.Request{
			ID:       int64(i + 1),
			Class:    rec[1],
			Priority: pri,
			Arrival:  time.Duration(sec * float64(time.Second)),
			Input:    input,
			Output:   output,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Arrival < out[b].Arrival })
	return out, nil
}
