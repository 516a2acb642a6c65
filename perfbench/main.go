// Command perfbench is the repository's benchmark: it runs one named
// workload in-process through the same public entry points the CLIs use,
// measures it, checks that the simulated outputs are correct, and prints
// one JSON result line. run.py drives it: it builds this package, spawns
// one fresh process per repetition, and reports medians in the format
// BENCHMARK.json describes.
//
// Usage:
//
//	perfbench -workload NAME -seed N [-trace] [-setup-only] [-no-control]
//
// # Workloads
//
//   - slot-week: the slot-mode production row exactly as `polca-sim` runs
//     it by default (40 base servers plus 30%, POLCA, 7 days of the fitted
//     diurnal trace). It exercises the slot row that drives fig13–18:
//     `cluster` and `gpu` dominate CPU and nearly all allocations are
//     slot-path objects; `serve`, `obs` and `replay` do not run.
//   - serve-observed: `polca-sim -days 1 -servers 16 -serve` (least-queue
//     router, POLCA) with every recorder attached (event tracer, span
//     sink, decision recorder, TSDB, default alert rules). Each sink is
//     then encoded into a byte-counting writer, the decision log into
//     memory, and the log is loaded and replayed through the matrix
//     `polca-replay` runs by default: self-check, the standard alternates,
//     the default T1/T2 grid and every router. Observation turns off
//     decode-span coalescing, so the engine sees several times more events.
//     It is the benchmark's serve-mode row, where the `gpu`/`llm` cost model
//     and the `serve` scheduler run the simulation, and the only workload
//     where the record pipeline and replay run.
//   - paper-quick: `experiments.RunAll(QuickOptions())` with 2 workers, all
//     artifacts at quick scale: what users run to regenerate the paper, and
//     the only workload that exercises the sweep executor, its cache and the
//     characterisation figures. The eval cache is process-global, which is
//     one reason every repetition is a fresh process.
//
// # End-to-end metrics
//
// The timed phase is Row.Run; for serve-observed it also covers encoding,
// loading and replay; for paper-quick it is RunAll. Lower is better for all.
//
//   - wall_s: host wall seconds of the timed phase.
//   - cpu_s: host CPU seconds (user plus system, all threads) of the timed
//     phase, GC work included.
//   - setup_s: seconds from the start of the workload process to the start
//     of the timed phase: process start, package initialisation, the
//     reference trace, the fit, and row and sink construction. run.py
//     measures it from the moment it spawns the process.
//   - peak_rss_mb: the process's peak resident set, from getrusage.
//   - alloc_mb, allocs_m: heap bytes and heap objects (millions) allocated
//     in the timed phase.
//
// # Per-layer metrics
//
// With -trace the run times calls into each layer's public functions from
// this package's own code, wraps the controller to time its ticks, and
// buckets a CPU profile of the timed phase by module: a sample belongs to
// the module of its innermost polca/internal/<module> frame, samples with
// no repository frame go to runtime and other modules to other. The
// row-level counts describe the workload's one row, so they read 0 on
// paper-quick, as does any layer a workload does not run. Which end-to-end
// metric each layer metric should move, and where:
//
//   - sim (events, ns_per_event, cpu_share): cpu_s and wall_s on
//     serve-observed; nothing on slot-week.
//   - gpu, llm, plan, server (cpu_share): cpu_s on the simulation part of
//     serve-observed, where the cost model is most of the CPU; less on
//     slot-week; nothing on its encode and replay part.
//   - cluster (cpu_share): cpu_s, allocs_m and alloc_mb on slot-week and
//     paper-quick. cluster.new_row_s: setup_s. Its counts and latencies
//     (requests, completed, dropped, max_queue, telemetry_ticks,
//     oob_commands, oob_failed, brakes, latency_p50_s, latency_p99_s) are
//     modelled outputs that a perf or simplicity change must leave unchanged.
//   - serve (cpu_share, batches, prompt_tokens, decode_tokens,
//     tokens_per_batch, preemptions, max_running, kv_high_water,
//     ttft_p99_s, energy_mj): cpu_s on serve-observed;
//     nothing on slot-week. All but cpu_share are modelled outputs.
//   - polca (ticks, tick_ns_p50, tick_ns_p99, lock_requests, cpu_share):
//     under 1% of CPU everywhere; a controller refactor should move no
//     end-to-end metric.
//   - trace (reference_s, fit_s, cpu_share): setup_s on the row workloads.
//     trace.fit_mape_pct is trace.ValidateFit's error of the fitted arrival
//     plan against the reference trace; the paper's §6.4 accepts at most 3%
//     and the analytic fit is near zero by construction.
//   - obs (events, spans, decisions, events_mb, spans_mb, decisions_mb,
//     encode_s, retained_mb, cpu_share): peak_rss_mb and wall_s on
//     serve-observed; zero elsewhere, where the sinks are nil.
//   - replay (load_s, self_s, alternates_s, routes_s, fidelity, cpu_share):
//     wall_s on serve-observed only.
//   - experiments (parallel_efficiency = cpu_s / (wall_s × workers),
//     sweep_points, cache_hits, <id>.wall_s for the slowest artifacts):
//     wall_s on paper-quick only.
//   - runtime (gc_cycles, gc_cpu_s, cpu_share) and other.cpu_share: follow
//     allocs_m; drive cpu_s on slot-week and paper-quick.
//   - bench.trace_overhead: traced wall_s over untraced wall_s, written by
//     run.py; it moves nothing and prices the tracing itself.
//
// # Correctness
//
// Every check is one operation of the benchmark; a failed check is a failed
// operation. Each run checks invariants that hold for any seed (arrivals
// equal completions plus drops, the KV ledger balances, per-class energy
// sums to the row's energy), the observed run's event counts against its
// metrics, 100% self-replay fidelity, that observation does not change the
// simulated statistics (skipped with -no-control, which run.py passes to
// every repetition after a run's first), and for seed 1 the committed digest of the
// simulated statistics (the rendered text, for paper-quick).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// result is the one JSON line a workload process prints.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Machine  machine `json:"machine"`
	// TimedStartUnixNano is the wall clock at the start of the timed phase;
	// run.py subtracts its spawn time to get setup_s.
	TimedStartUnixNano int64 `json:"timed_start_unix_nano"`
	// EndToEnd holds every end-to-end metric but setup_s.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []spanTotal        `json:"spans,omitempty"`
	Digest string             `json:"digest,omitempty"`
	// Attempted and Failed count correctness checks; Failures names them.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// machine identifies where a result was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs one workload; split from main so tests drive it.
func cli(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	traced := fs.Bool("trace", false, "time each layer and profile the timed phase")
	setupOnly := fs.Bool("setup-only", false, "stop at the start of the timed phase")
	noControl := fs.Bool("no-control", false, "skip serve-observed's check against an unobserved run of the same config")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(errw, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	b := newBench(*traced, *setupOnly)
	b.noControl = *noControl
	res, err := b.run(wl, *name, *seed)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// identify describes this machine and build.
func identify() machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// spanTotal aggregates the benchmark's spans of one name.
type spanTotal struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanLog records spans around the benchmark's calls into each layer. A
// span's self time is its duration minus its children's.
type spanLog struct {
	spans []span
	open  []int
}

type span struct {
	name   string
	parent int // index into spans, -1 for a root
	count  int
	dur    time.Duration
	child  time.Duration
}

// do times fn as a span nested in whatever span is open. A nil log runs fn
// untimed.
func (l *spanLog) do(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, parent: parent, count: 1})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	start := time.Now()
	fn()
	l.close(i, time.Since(start))
}

// add records n calls of total duration d, timed elsewhere, as one
// aggregated span nested in whatever span is open.
func (l *spanLog) add(name string, n int, d time.Duration) {
	parent := -1
	if k := len(l.open); k > 0 {
		parent = l.open[k-1]
		l.spans[parent].child += d
	}
	l.spans = append(l.spans, span{name: name, parent: parent, count: n, dur: d})
}

func (l *spanLog) close(i int, d time.Duration) {
	l.open = l.open[:len(l.open)-1]
	l.spans[i].dur = d
	if p := l.spans[i].parent; p >= 0 {
		l.spans[p].child += d
	}
}

// total sums the durations of every span with this name.
func (l *spanLog) total(name string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return d
}

// totals aggregates spans by name, in first-seen order.
func (l *spanLog) totals() []spanTotal {
	var out []spanTotal
	idx := map[string]int{}
	for _, s := range l.spans {
		parent := ""
		if s.parent >= 0 {
			parent = l.spans[s.parent].name
		}
		i, ok := idx[s.name]
		if !ok {
			i = len(out)
			idx[s.name] = i
			out = append(out, spanTotal{Name: s.name, Parent: parent})
		}
		out[i].Count += s.count
		out[i].TotalS += s.dur.Seconds()
		out[i].SelfS += (s.dur - s.child).Seconds()
	}
	return out
}
