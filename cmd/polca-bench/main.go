// Command polca-bench turns `go test -bench` output into the versioned
// BENCH_*.json artifacts that track this repo's performance trajectory, and
// compares two artifacts to gate CI on regressions.
//
// Modes (exactly one):
//
//	go test -run '^$' -bench . -benchmem ./... | polca-bench -o BENCH_N.json
//	    Parse benchmark output (stdin or a file argument) and emit a
//	    polca-bench/v2 JSON artifact: v1's results plus the identity of
//	    the machine they were measured on (CPU model, GOMAXPROCS, Go
//	    version; GOARCH was already recorded).
//
//	polca-bench -compare OLD.json NEW.json
//	    Compare two artifacts. An allocs/op increase on any shared
//	    benchmark always fails. An ns/op regression beyond -threshold
//	    (default 15%) fails, or only warns under -advisory-time (for noisy
//	    CI runners where wall time is not trustworthy but allocation
//	    counts are deterministic). A benchmark present in OLD but missing
//	    from NEW fails: the trajectory must not silently lose coverage.
//	    When the two artifacts name different machines, or one of them (a
//	    v1 artifact) names none, a warning says the ns/op deltas may
//	    compare hardware rather than code.
//
//	polca-bench -check FILE.json [FILE2.json ...]
//	    Validate artifacts against their schema (v1 or v2); used by
//	    `make ci` so a committed BENCH_*.json can never rot unnoticed.
//
//	polca-bench -require Name1,Name2 [bench-output.txt]
//	    Fail unless every named benchmark appears in the output; guards
//	    `make bench-smoke` against patterns that silently match nothing.
//
//	polca-bench -zero-alloc Name1,Name2 [bench-output.txt]
//	    Fail unless every named benchmark reports exactly 0 allocs/op.
//	    Guards hot paths with an allocation-free contract (the telemetry
//	    TSDB ingest, the rules evaluation tick) — unlike -compare this
//	    needs no baseline artifact, so a first regression cannot slip in
//	    alongside a refreshed snapshot. Composable with -require.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The artifact formats this tool reads. It writes schemaV2; v1 artifacts
// (BENCH_6–9) stay readable and comparable. Bump only with a new reader.
const (
	schemaV1 = "polca-bench/v1"
	schemaV2 = "polca-bench/v2"
)

// Benchmark is one `go test -bench` result row.
type Benchmark struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units (events/s, wall_s/day, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Machine identifies the host an artifact was measured on (v2). With
// GOARCH it is what -compare checks before trusting an ns/op delta.
type Machine struct {
	// CPU is the processor model from the "cpu:" header `go test -bench`
	// prints (the CPUID brand string, or /proc/cpuinfo's model name), so a
	// saved output converted elsewhere keeps the measuring host's CPU;
	// "unknown" when the output has no header.
	CPU string `json:"cpu"`
	// GOMAXPROCS is the benchmarks' parallelism, from the -P suffix of
	// their names (no suffix means 1).
	GOMAXPROCS int `json:"gomaxprocs"`
	// GoVersion is the toolchain that built this tool; under `go run`, as
	// in the Makefile, the same one that ran the benchmarks.
	GoVersion string `json:"go_version"`
}

// Artifact is the versioned benchmark snapshot committed as BENCH_N.json.
// BaselineRef/Baseline are optional provenance: the pre-change numbers the
// snapshot was measured against, kept inside the artifact so the
// before/after story travels with it. The emitter never fills them; they
// are added by hand (or a future flag) when a snapshot documents a
// perf campaign. Machine is required in v2 and absent in v1.
type Artifact struct {
	Schema      string      `json:"schema"`
	Goos        string      `json:"goos,omitempty"`
	Goarch      string      `json:"goarch,omitempty"`
	Machine     *Machine    `json:"machine,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	BaselineRef string      `json:"baseline_ref,omitempty"`
	Baseline    []Benchmark `json:"baseline,omitempty"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polca-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	outPath := fs.String("o", "", "write the JSON artifact here instead of stdout")
	compare := fs.Bool("compare", false, "compare two artifacts: OLD.json NEW.json")
	check := fs.Bool("check", false, "validate artifact files against the schema")
	require := fs.String("require", "", "comma-separated benchmark names that must appear in the input")
	zeroAlloc := fs.String("zero-alloc", "", "comma-separated benchmark names that must report 0 allocs/op")
	threshold := fs.Float64("threshold", 0.15, "relative ns/op regression that fails -compare")
	advisoryTime := fs.Bool("advisory-time", false, "demote ns/op regressions to warnings (allocs/op still fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(errw, "usage: polca-bench -compare OLD.json NEW.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *threshold, *advisoryTime, out, errw)
	case *check:
		if fs.NArg() == 0 {
			fmt.Fprintln(errw, "usage: polca-bench -check FILE.json ...")
			return 2
		}
		code := 0
		for _, path := range fs.Args() {
			if err := checkArtifact(path); err != nil {
				fmt.Fprintf(errw, "polca-bench: %s: %v\n", path, err)
				code = 1
			} else {
				fmt.Fprintf(out, "%s: ok\n", path)
			}
		}
		return code
	default:
		in, name, err := openInput(fs.Args())
		if err != nil {
			fmt.Fprintln(errw, "polca-bench:", err)
			return 1
		}
		defer in.Close()
		art, err := parseBenchOutput(in)
		if err != nil {
			fmt.Fprintf(errw, "polca-bench: %s: %v\n", name, err)
			return 1
		}
		if *zeroAlloc != "" {
			if err := requireZeroAllocs(art, *zeroAlloc); err != nil {
				fmt.Fprintln(errw, "polca-bench:", err)
				return 1
			}
		}
		if *require != "" {
			if err := requireNames(art, *require); err != nil {
				fmt.Fprintln(errw, "polca-bench:", err)
				return 1
			}
			fmt.Fprintf(out, "all required benchmarks present (%d results)\n", len(art.Benchmarks))
			return 0
		}
		if *zeroAlloc != "" {
			fmt.Fprintf(out, "zero-alloc contract holds for: %s\n", *zeroAlloc)
			return 0
		}
		if len(art.Benchmarks) == 0 {
			fmt.Fprintf(errw, "polca-bench: %s: no benchmark results in input\n", name)
			return 1
		}
		if art.Machine.CPU == "" {
			art.Machine.CPU = "unknown"
		}
		return writeArtifact(art, *outPath, out, errw)
	}
}

// openInput returns the benchmark text source: the single file argument, or
// stdin when no argument is given.
func openInput(args []string) (io.ReadCloser, string, error) {
	switch len(args) {
	case 0:
		return io.NopCloser(os.Stdin), "stdin", nil
	case 1:
		f, err := os.Open(args[0])
		return f, args[0], err
	default:
		return nil, "", fmt.Errorf("expected at most one input file, got %d", len(args))
	}
}

// parseBenchOutput folds `go test -bench` text into a v2 Artifact. Its
// machine's CPU is the output's "cpu:" header, its GOMAXPROCS the first
// result's -P suffix, its Go version this binary's. Benchmark names must be
// unique across packages — comparisons are keyed by name, so a duplicate
// would make the trajectory ambiguous.
func parseBenchOutput(r io.Reader) (*Artifact, error) {
	art := &Artifact{Schema: schemaV2, Machine: &Machine{GoVersion: runtime.Version()}}
	seen := map[string]string{} // name → pkg
	pkg := ""
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			art.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			art.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			art.Machine.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result row is "BenchmarkName-P  iterations  value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // e.g. the bare "BenchmarkName" echo line under -v
		}
		name, procs := fields[0], 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], p
			}
		}
		if len(art.Benchmarks) == 0 {
			art.Machine.GOMAXPROCS = procs
		}
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate benchmark %s (in %s and %s)", ln+1, name, prev, pkg)
		}
		seen[name] = pkg
		b := Benchmark{Name: name, Pkg: pkg}
		if b.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad iteration count %q", ln+1, fields[1])
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q for unit %q", ln+1, fields[i], fields[i+1])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		art.Benchmarks = append(art.Benchmarks, b)
	}
	sort.Slice(art.Benchmarks, func(i, j int) bool { return art.Benchmarks[i].Name < art.Benchmarks[j].Name })
	return art, nil
}

func writeArtifact(art *Artifact, path string, out, errw io.Writer) int {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(errw, "polca-bench:", err)
		return 1
	}
	data = append(data, '\n')
	if path == "" {
		out.Write(data)
		return 0
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(errw, "polca-bench:", err)
		return 1
	}
	fmt.Fprintf(out, "wrote %d benchmarks to %s\n", len(art.Benchmarks), path)
	return 0
}

// loadArtifact reads and schema-validates one BENCH_*.json.
func loadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, err
	}
	if err := validate(&art); err != nil {
		return nil, err
	}
	return &art, nil
}

func checkArtifact(path string) error {
	_, err := loadArtifact(path)
	return err
}

// validate enforces the v1 and v2 schema invariants: v2 names its machine,
// v1 predates machine identity and carries none.
func validate(art *Artifact) error {
	switch art.Schema {
	case schemaV1:
		if art.Machine != nil {
			return fmt.Errorf("%s artifact carries a machine; machine identity is %s", schemaV1, schemaV2)
		}
	case schemaV2:
		m := art.Machine
		if m == nil || m.CPU == "" || m.GOMAXPROCS <= 0 || m.GoVersion == "" {
			return fmt.Errorf("%s artifact needs a machine with cpu, gomaxprocs and go_version", schemaV2)
		}
	default:
		return fmt.Errorf("schema %q, want %q or %q", art.Schema, schemaV1, schemaV2)
	}
	if len(art.Benchmarks) == 0 {
		return fmt.Errorf("artifact has no benchmarks")
	}
	seen := map[string]bool{}
	for _, b := range art.Benchmarks {
		if b.Name == "" || !strings.HasPrefix(b.Name, "Benchmark") {
			return fmt.Errorf("benchmark name %q does not start with Benchmark", b.Name)
		}
		if seen[b.Name] {
			return fmt.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.Iterations <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: non-positive iterations (%d) or ns/op (%g)", b.Name, b.Iterations, b.NsPerOp)
		}
		if b.BPerOp < 0 || b.AllocsPerOp < 0 {
			return fmt.Errorf("%s: negative B/op or allocs/op", b.Name)
		}
	}
	return nil
}

// runCompare diffs NEW against OLD. Allocation growth and lost coverage are
// always fatal; ns/op regressions beyond threshold are fatal unless
// advisoryTime demotes them to warnings.
func runCompare(oldPath, newPath string, threshold float64, advisoryTime bool, out, errw io.Writer) int {
	oldArt, err := loadArtifact(oldPath)
	if err != nil {
		fmt.Fprintf(errw, "polca-bench: %s: %v\n", oldPath, err)
		return 1
	}
	newArt, err := loadArtifact(newPath)
	if err != nil {
		fmt.Fprintf(errw, "polca-bench: %s: %v\n", newPath, err)
		return 1
	}
	if warn := machineWarning(oldPath, oldArt, newPath, newArt); warn != "" {
		fmt.Fprintln(out, "WARN: "+warn)
	}
	newBy := map[string]Benchmark{}
	for _, b := range newArt.Benchmarks {
		newBy[b.Name] = b
	}
	code := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(errw, "FAIL: "+format+"\n", args...)
		code = 1
	}
	for _, ob := range oldArt.Benchmarks {
		nb, ok := newBy[ob.Name]
		if !ok {
			fail("%s: present in %s but missing from %s", ob.Name, oldPath, newPath)
			continue
		}
		delete(newBy, ob.Name)
		rel := nb.NsPerOp/ob.NsPerOp - 1
		switch {
		case nb.AllocsPerOp > ob.AllocsPerOp:
			fail("%s: allocs/op %g → %g (any increase fails)", ob.Name, ob.AllocsPerOp, nb.AllocsPerOp)
		case rel > threshold && !advisoryTime:
			fail("%s: ns/op %.4g → %.4g (%+.1f%%, threshold %.0f%%)",
				ob.Name, ob.NsPerOp, nb.NsPerOp, rel*100, threshold*100)
		case rel > threshold:
			fmt.Fprintf(out, "WARN: %s: ns/op %.4g → %.4g (%+.1f%%, advisory)\n",
				ob.Name, ob.NsPerOp, nb.NsPerOp, rel*100)
		default:
			fmt.Fprintf(out, "ok:   %s: ns/op %.4g → %.4g (%+.1f%%), allocs/op %g → %g\n",
				ob.Name, ob.NsPerOp, nb.NsPerOp, rel*100, ob.AllocsPerOp, nb.AllocsPerOp)
		}
	}
	var added []string
	for name := range newBy {
		added = append(added, name)
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(out, "new:  %s (no baseline)\n", name)
	}
	if code == 0 {
		fmt.Fprintf(out, "compare: %s vs %s: no regressions\n", oldPath, newPath)
	}
	return code
}

// machineWarning explains why two artifacts' ns/op may not be comparable:
// they name different machines, or one names none. It returns "" when both
// name the same machine.
func machineWarning(oldPath string, oldArt *Artifact, newPath string, newArt *Artifact) string {
	describe := func(a *Artifact) string {
		m := a.Machine
		return fmt.Sprintf("%s, %s, GOMAXPROCS=%d, %s", m.CPU, a.Goarch, m.GOMAXPROCS, m.GoVersion)
	}
	switch {
	case oldArt.Machine == nil || newArt.Machine == nil:
		var unnamed []string
		if oldArt.Machine == nil {
			unnamed = append(unnamed, oldPath)
		}
		if newArt.Machine == nil {
			unnamed = append(unnamed, newPath)
		}
		return fmt.Sprintf("no machine recorded in %s (%s); ns/op deltas may compare different hardware",
			strings.Join(unnamed, " and "), schemaV1)
	case *oldArt.Machine != *newArt.Machine || oldArt.Goarch != newArt.Goarch:
		return fmt.Sprintf("machines differ: %s measured on %s; %s on %s; ns/op deltas compare different hardware",
			oldPath, describe(oldArt), newPath, describe(newArt))
	}
	return ""
}

// requireNames fails unless every comma-separated name parsed out of the
// benchmark output.
func requireNames(art *Artifact, list string) error {
	have := map[string]bool{}
	for _, b := range art.Benchmarks {
		have[b.Name] = true
	}
	var missing []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name != "" && !have[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmarks matched nothing: %s (pattern drift in the Makefile?)", strings.Join(missing, ", "))
	}
	return nil
}

// requireZeroAllocs fails if any named benchmark is missing or reports a
// nonzero allocs/op — the allocation-free contract for hot paths, enforced
// without needing a committed baseline.
func requireZeroAllocs(art *Artifact, list string) error {
	byName := map[string]Benchmark{}
	for _, b := range art.Benchmarks {
		byName[b.Name] = b
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, ok := byName[name]
		if !ok {
			return fmt.Errorf("zero-alloc benchmark %s missing from input", name)
		}
		if b.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %.0f allocs/op (%.0f B/op); this path must be allocation-free",
				name, b.AllocsPerOp, b.BPerOp)
		}
	}
	return nil
}
