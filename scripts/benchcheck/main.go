// Command benchcheck is the CI bench-regression gate: it re-runs the
// repository's tracked benchmarks, parses their ns/op and allocs/op, and
// compares them against the "checks" baselines recorded in BENCH_fl.json.
// A benchmark regressing by more than the ns/op tolerance (25% by
// default — machine noise on shared CI runners is real) or by ANY
// allocs/op increase (allocation counts are deterministic, so any growth
// is a code change, not noise) fails the gate.
//
// Usage, from the repository root:
//
//	go run ./scripts/benchcheck            # compare against the baselines
//	go run ./scripts/benchcheck -update    # re-baseline (rewrites "checks")
//	go run ./scripts/benchcheck -out F     # gate AND write a re-baselined
//	                                       # copy to F from the same single
//	                                       # measurement pass (written even
//	                                       # when the gate fails — that is
//	                                       # when a re-baseline is wanted)
//	go run ./scripts/benchcheck -smoke     # run every tracked benchmark
//	                                       # once (benchtime 1x) and check
//	                                       # only that each recorded
//	                                       # baseline produced a result —
//	                                       # the CI smoke that keeps bench
//	                                       # code executing and fails
//	                                       # loudly when a benchmark is
//	                                       # renamed out from under its
//	                                       # baseline
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix, so baselines recorded on one core count compare across runners.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// tracked is the benchmark set the gate runs: the engine grid plus the
// selection/aggregation micro-benchmarks BENCH_fl.json has always
// tracked, and the WAL append path added with the durable control plane (its 0
// allocs/op baseline is the gate that journaling stays off the round
// loop's allocation budget; its ns/op is one write(2) and noisy, so
// the baseline records the high end of the measured spread).
var tracked = []struct {
	pkg       string
	pattern   string
	benchtime string
}{
	// Iteration counts are sized so the microsecond-scale entries
	// aggregate enough work to ride out scheduler noise on a 1-core
	// runner: at the old 20x a single preempted iteration of a ~2µs
	// decode moved the mean 5x and flapped the gate.
	{"./internal/sparse/", "BenchmarkTopKInto", "200x"},
	// The prefilter's pass alone, Go loop and AVX2 kernel, at the D of
	// engine_adaptive's and the TCP workloads' models.
	{"./internal/sparse/", "BenchmarkCompact", "2000x"},
	// BenchmarkAggregate's engine/ rows run engine_adaptive's aggregation
	// shape (N = 32, d = 1e5) at k = D/100, D/10 and D.
	{"./internal/gs/", "BenchmarkAggregate$", "30x"},
	// One shard's range reduction at tcp_direct_s2's shard-0 shape:
	// dense reads the range off its slab, sparse sorts.
	{"./internal/gs/", "BenchmarkRangeReduce", "2000x"},
	// The minibatch gradient and loss at the three BENCHMARK.json model
	// shapes: the gradient and the seal's probe losses are ~31 % of
	// engine_adaptive's CPU (pprof; docs/ARCHITECTURE.md's CPU budget).
	{"./internal/nn/", "BenchmarkMeanLoss", "200x"},
	{"./internal/transport/", "BenchmarkSliceCodec|BenchmarkWireRoundBytes", "200x"},
	// The straggler wall clock tracks a W = 1 run under an injected
	// straggler, which paces the fleet as in lockstep. Each iteration
	// is a full 12-round 2-shard run (~250 ms), so a few iterations
	// suffice.
	{"./internal/transport/", "BenchmarkStragglerWallClock", "3x"},
	// The population tier's scale contract: a 100k-member sampled run
	// must cost rounds × cohort member computations, never O(population)
	// per round. Each iteration is a full 3-round run over two physical
	// mem connections, so a few iterations suffice; the allocs/op
	// baseline (per drawn member and per round, never per enrolled
	// member) is the stronger, host-independent gate.
	{"./internal/transport/", "BenchmarkVirtualClients", "3x"},
	{"./internal/wal/", "BenchmarkWALAppend", "2000x"},
	{".", "BenchmarkRunGSParallel", "3x"},
}

// check is one benchmark's recorded baseline. The bytes fields are the
// wire-size baselines reported by the transport benchmarks
// (BenchmarkWireRoundBytes's B/round and valB/round ReportMetric
// columns); they are deterministic byte counts, not wall-clock, so they
// gate hard on any meaningful increase regardless of host.
type check struct {
	NsPerOp            float64 `json:"ns_per_op"`
	AllocsPerOp        float64 `json:"allocs_per_op"`
	BytesPerRound      float64 `json:"bytes_per_round,omitempty"`
	ValueBytesPerRound float64 `json:"value_bytes_per_round,omitempty"`
}

// measurement is one parsed benchmark result line. bytesRound and
// valBytesRound are -1 when the benchmark does not report them.
type measurement struct {
	name          string
	ns            float64
	allocs        float64
	bytesRound    float64
	valBytesRound float64
}

func main() {
	var (
		baseline   = flag.String("baseline", "BENCH_fl.json", "baseline file holding the checks section")
		update     = flag.Bool("update", false, "re-baseline: rewrite the checks section from a fresh run")
		out        = flag.String("out", "", "also write a re-baselined copy of the baseline file here from the gate run's own measurements (no second benchmark pass; written even when the gate fails)")
		smoke      = flag.Bool("smoke", false, "run every tracked benchmark once (benchtime 1x) and only cross-check coverage against the baselines' checks — no performance gating")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression")
		allocSlack = flag.Float64("alloc-slack", 2, "allowed absolute allocs/op growth on nonzero baselines (zero baselines stay strict)")
	)
	flag.Parse()
	if err := run(*baseline, *update, *out, *smoke, *tolerance, *allocSlack); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(baselinePath string, update bool, outPath string, smoke bool, tolerance, allocSlack float64) error {
	benchtime := ""
	if smoke {
		benchtime = "1x"
	}
	results, err := measureAll(benchtime)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results parsed — did the bench patterns rot?")
	}
	if smoke {
		return checkCoverage(baselinePath, results)
	}
	if update {
		return rebaseline(baselinePath, baselinePath, results)
	}
	if outPath != "" {
		if err := rebaseline(baselinePath, outPath, results); err != nil {
			return err
		}
	}
	return compare(baselinePath, results, tolerance, allocSlack)
}

// measureAll runs every tracked benchmark set and returns the parsed
// measurements keyed by normalized name. A non-empty benchtime overrides
// every tracked entry's iteration count (the -smoke 1x pass).
func measureAll(benchtime string) (map[string]measurement, error) {
	results := make(map[string]measurement)
	for _, tr := range tracked {
		bt := tr.benchtime
		if benchtime != "" {
			bt = benchtime
		}
		args := []string{"test", "-run", "^$", "-bench", tr.pattern, "-benchtime", bt, "-benchmem", "-count", "1", tr.pkg}
		fmt.Printf("benchcheck: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("bench run %s %s: %w", tr.pkg, tr.pattern, err)
		}
		for _, m := range parseBench(out.String()) {
			results[tr.pkg+":"+m.name] = m
		}
	}
	return results, nil
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts (name, ns/op, allocs/op) from `go test -bench`
// output. Metric pairs are scanned positionally (value then unit), so
// extra ReportMetric columns like ns/round pass through harmlessly.
func parseBench(out string) []measurement {
	var ms []measurement
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		m := measurement{name: procSuffix.ReplaceAllString(fields[0], ""), allocs: -1, bytesRound: -1, valBytesRound: -1}
		ok := false
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.ns = v
				ok = true
			case "allocs/op":
				m.allocs = v
			case "B/round":
				m.bytesRound = v
			case "valB/round":
				m.valBytesRound = v
			}
		}
		if ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// loadChecks parses the baseline document's checks section.
func loadChecks(doc map[string]any, baselinePath string) (map[string]check, error) {
	rawChecks, ok := doc["checks"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s has no checks section — run `go run ./scripts/benchcheck -update` on the baseline host", baselinePath)
	}
	checks := make(map[string]check, len(rawChecks))
	for name, raw := range rawChecks {
		b, err := json.Marshal(raw)
		if err != nil {
			return nil, err
		}
		var c check
		if err := json.Unmarshal(b, &c); err != nil {
			return nil, fmt.Errorf("baseline entry %q: %w", name, err)
		}
		checks[name] = c
	}
	return checks, nil
}

// checkCoverage is the -smoke gate: every recorded baseline must have
// produced a measurement (a baseline whose benchmark vanished means a
// bench was renamed or deleted without -update — the smoke run must
// fail loudly instead of silently shrinking), and unbaselined results
// are reported so new benchmarks get adopted into the tracked set.
func checkCoverage(baselinePath string, results map[string]measurement) error {
	doc, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	checks, err := loadChecks(doc, baselinePath)
	if err != nil {
		return err
	}
	var failures []string
	for name := range checks {
		if _, ok := results[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: tracked baseline produced no result — benchmark renamed or deleted without re-baselining?", name))
		}
	}
	unbaselined := 0
	for name := range results {
		if _, ok := checks[name]; !ok {
			unbaselined++
			fmt.Printf("benchcheck: note: %s has no baseline (add one with -update)\n", name)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", f)
		}
		return fmt.Errorf("%d tracked benchmark(s) missing from the smoke run", len(failures))
	}
	fmt.Printf("benchcheck: smoke OK — %d tracked benchmarks executed (%d unbaselined)\n",
		len(checks), unbaselined)
	return nil
}

// compare fails on any tracked regression against the baselines.
func compare(baselinePath string, results map[string]measurement, tolerance, allocSlack float64) error {
	doc, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	checks, err := loadChecks(doc, baselinePath)
	if err != nil {
		return err
	}

	// ns/op baselines only mean something on the hardware class that
	// recorded them: when the current host's shape differs from the
	// recorded checks_host (different core count, OS, or arch — e.g. the
	// 1-core baseline container vs a 4-core CI runner), wall-clock
	// comparisons are reported as notes instead of failures until someone
	// re-baselines with -update on the new runner class. allocs/op is
	// host-independent and always gates hard.
	sameHost := hostMatches(doc["checks_host"])
	if !sameHost {
		fmt.Println("benchcheck: note: host differs from the recorded baseline host — ns/op compared informationally only; re-baseline on this runner class with -update")
	}

	var failures, missing []string
	for name, base := range checks {
		got, ok := results[name]
		if !ok {
			// A baseline with no measurement means a bench was renamed or
			// deleted without re-baselining — that is rot, and it fails.
			failures = append(failures, fmt.Sprintf("%s: baseline exists but benchmark produced no result", name))
			continue
		}
		if limit := base.NsPerOp * (1 + tolerance); got.ns > limit {
			msg := fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f by more than %.0f%%",
				name, got.ns, base.NsPerOp, tolerance*100)
			if sameHost {
				failures = append(failures, msg)
			} else {
				fmt.Println("benchcheck: note (foreign host):", msg)
			}
		}
		// Zero-alloc baselines are strict — those are the repo's signature
		// invariants (also pinned exactly by the AllocsPerRun unit tests).
		// Nonzero baselines get a tiny absolute slack: whole-engine bench
		// counts jitter by a unit or two from runtime internals, while a
		// real hot-loop regression scales with rounds × clients.
		allowed := base.AllocsPerOp
		if allowed > 0 {
			allowed += allocSlack
		}
		if got.allocs >= 0 && got.allocs > allowed {
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op regressed from baseline %.1f",
				name, got.allocs, base.AllocsPerOp))
		}
		// Wire-size baselines are deterministic byte counts over a fixed
		// workload — any growth beyond rounding noise is a codec or
		// protocol change, and gates hard on every host class.
		if base.BytesPerRound > 0 && got.bytesRound >= 0 && got.bytesRound > base.BytesPerRound*1.01 {
			failures = append(failures, fmt.Sprintf("%s: %.0f B/round regressed from baseline %.0f",
				name, got.bytesRound, base.BytesPerRound))
		}
		if base.ValueBytesPerRound > 0 && got.valBytesRound >= 0 && got.valBytesRound > base.ValueBytesPerRound*1.01 {
			failures = append(failures, fmt.Sprintf("%s: %.0f valB/round regressed from baseline %.0f",
				name, got.valBytesRound, base.ValueBytesPerRound))
		}
	}
	for name := range results {
		if _, ok := checks[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, name := range missing {
		fmt.Printf("benchcheck: note: %s has no baseline (add one with -update)\n", name)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	fmt.Printf("benchcheck: OK — %d benchmarks within tolerance (%d unbaselined)\n",
		len(checks), len(missing))
	return nil
}

// hostMatches reports whether the current host has the same shape as the
// recorded checks_host stamp (missing stamp = mismatch).
func hostMatches(raw any) bool {
	host, ok := raw.(map[string]any)
	if !ok {
		return false
	}
	cores, _ := host["cores"].(float64)
	goos, _ := host["goos"].(string)
	goarch, _ := host["goarch"].(string)
	return int(cores) == runtime.NumCPU() && goos == runtime.GOOS && goarch == runtime.GOARCH
}

// rebaseline rewrites the checks section (and its host stamp) of the
// baseline loaded from srcPath and writes the result to dstPath,
// preserving every other key of the baseline file. srcPath == dstPath is
// the in-place -update; a distinct dstPath is the gate run's artifact
// copy.
func rebaseline(srcPath, dstPath string, results map[string]measurement) error {
	doc, err := loadBaseline(srcPath)
	if err != nil {
		return err
	}
	checks := make(map[string]check, len(results))
	for name, m := range results {
		allocs := m.allocs
		if allocs < 0 {
			allocs = 0
		}
		c := check{NsPerOp: m.ns, AllocsPerOp: allocs}
		if m.bytesRound >= 0 {
			c.BytesPerRound = m.bytesRound
		}
		if m.valBytesRound >= 0 {
			c.ValueBytesPerRound = m.valBytesRound
		}
		checks[name] = c
	}
	doc["checks"] = checks
	doc["checks_host"] = map[string]any{
		"date":       time.Now().UTC().Format("2006-01-02"),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cores":      runtime.NumCPU(),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(dstPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchcheck: re-baselined %d benchmarks into %s\n", len(checks), dstPath)
	return nil
}

func loadBaseline(path string) (map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return doc, nil
}
