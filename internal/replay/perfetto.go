package replay

import (
	"io"
	"strconv"

	"polca/internal/obs"
)

// WritePerfetto renders the summaries' top-regret ticks as a Chrome
// trace-event JSON file: one track per alternate policy, one duration slice
// per high-regret telemetry interval, carrying the priced regret in args.
// Loaded next to the run's span trace in ui.perfetto.dev, the slices
// annotate exactly where the deployed configuration left headroom or
// burned latency.
func WritePerfetto(w io.Writer, meta obs.DecisionMeta, sums []*PolicySummary) error {
	ct := obs.NewChromeTrace(w)
	ct.Rowf(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"polca-replay regret"}}`)
	durUS := int64(meta.TelemetrySec * 1e6)
	if durUS <= 0 {
		durUS = 2e6
	}
	for tid, s := range sums {
		ct.Rowf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			tid+1, obs.JSONString("vs "+s.Name))
		for _, r := range s.TopRegret {
			label := "headroom-left"
			if r.SavedJ > 0 {
				label = "energy-unsaved"
			}
			if r.BrakeRisk {
				label = "brake-risk"
			}
			ct.Rowf(`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"args":{"seq":%d,"headroom_j":%s,"saved_j":%s,"latency_s":%s,"rec_lp_mhz":%s,"rec_hp_mhz":%s,"alt_lp_mhz":%s,"alt_hp_mhz":%s}}`,
				obs.JSONString(label), tid+1, r.At.Microseconds(), durUS, r.Seq,
				jsonFloat(r.HeadroomJ), jsonFloat(r.SavedJ), jsonFloat(r.LatencyS),
				jsonFloat(r.RecLP), jsonFloat(r.RecHP), jsonFloat(r.AltLP), jsonFloat(r.AltHP))
		}
	}
	return ct.Close()
}

func jsonFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
