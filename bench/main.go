// Command bench is the fedsparse benchmark: four workloads, each a fresh
// deployment of the real roles (engine, or coordinator/shards/clients/
// hosts over loopback TCP with the binary codec) measured from outside
// through fl.Observer and the connection ends it hands out. See
// README.md in this directory for the metric and workload tables.
//
//	go run ./bench --workload tcp_routed_q8 --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics (tracing off); --trace 1 prints the
// per-layer metrics from traced repetitions and the layer walk. Without
// --workload it runs every workload, both ways, each in a child process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses, so numbers from a bigger
// host stay comparable with the 2-core container the bounds were set on.
const pinnedProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	check    bool
	aa       bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all of them, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from (2 is the held-out cross-check seed)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting timed repetitions")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced repetitions")
	flag.IntVar(&o.reps, "reps", 0, "run exactly this many timed repetitions instead of filling -seconds")
	flag.BoolVar(&o.check, "check", false, "30 rounds of every workload: trajectory and layer-walk equality only, PASS/FAIL")
	flag.BoolVar(&o.aa, "aa", false, "run the full set twice and fail if an end-to-end metric moves by more than its bound, or bytes and losses at all")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(pinnedProcs)

	var err error
	switch {
	case o.check:
		err = runCheck(o)
	case o.aa:
		err = runAA(o)
	case o.workload == "":
		_, err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result
// line. A run that measured something exits 0 even when the outputs were
// wrong or rounds failed: the result line says so.
func runOne(o options) error {
	sh, err := shapeByName(o.workload)
	if err != nil {
		return err
	}
	m, err := measure(sh, o)
	if err != nil {
		return err
	}
	var res result
	if o.trace == 0 {
		res = m.endToEnd()
	} else {
		res = m.perLayer()
	}
	m.report(os.Stdout, res)
	if err := m.writeOut(res, o.trace != 0); err != nil {
		// The artefacts are a convenience; the result line is the contract.
		fmt.Fprintln(os.Stderr, "bench: writing", outDir+":", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFacts describe where a result was taken.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Date       string `json:"date"`
}

func readHostFacts() hostFacts {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}
