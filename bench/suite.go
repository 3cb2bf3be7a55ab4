package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// suiteResult is one full set: every workload's end-to-end and
// per-layer result.
type suiteResult map[string][2]result

// runAll measures every workload, end to end and per layer, each in a
// fresh child process of this binary so that set-up time, peak RSS and
// heap state are the workload's own.
func runAll(o options) (suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := suiteResult{}
	for _, sh := range shapes {
		if o.workload != "" && o.workload != sh.Name {
			continue
		}
		var pair [2]result
		for trace := 0; trace <= 1; trace++ {
			args := []string{"--workload", sh.Name, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"--reps", strconv.Itoa(o.reps)}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				return nil, fmt.Errorf("%s --trace %d: %w", sh.Name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &pair[trace]); err != nil {
				return nil, fmt.Errorf("%s --trace %d: result line: %w", sh.Name, trace, err)
			}
			if r := pair[trace]; !r.Correct || r.Failed > 0 {
				return nil, fmt.Errorf("%s --trace %d: correct=%v failed=%d of %d", sh.Name, trace, r.Correct, r.Failed, r.Attempted)
			}
		}
		out[sh.Name] = pair
	}
	return out, nil
}

// contract is the part of BENCHMARK.json the A/A run needs.
type contract struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaRow is one comparison of the A/A run: a metric of the end-to-end
// (trace 0) or per-layer (trace 1) result and how far it may move.
type aaRow struct {
	trace int
	name  string
	bound float64
}

// exactRows are the figures that are functions of the seed alone: two
// sets of one commit must agree on them to the last bit. The byte count
// is end-to-end, and compared exactly here whatever bound BENCHMARK.json
// gives it across seeds; the two loss figures are per-layer.
var exactRows = []aaRow{
	{0, "wire_bytes_per_round", 0},
	{1, "fl.final_loss", 0},
	{1, "fl.norm_time_to_loss", 0},
}

// runAA measures the full set twice back to back on the same commit and
// fails if any end-to-end metric moved between the two sets by more than
// its own bound, or an exact figure moved at all. The observed spread is
// printed per metric, which is the evidence a later change needs to
// tighten a bound.
func runAA(o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	rows := exactRows
	for _, mt := range c.EndToEnd {
		if mt.Name != "wire_bytes_per_round" {
			rows = append(rows, aaRow{0, mt.Name, mt.Bound})
		}
	}
	a, err := runAll(o)
	if err != nil {
		return err
	}
	b, err := runAll(o)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "moved", "bound")
	failed := 0
	for _, sh := range shapes {
		ra, ok := a[sh.Name]
		if !ok {
			continue
		}
		rb := b[sh.Name]
		for _, r := range rows {
			va, vb := ra[r.trace].Metrics[r.name].Value, rb[r.trace].Metrics[r.name].Value
			moved := 0.0
			if va != vb {
				moved = math.Abs(vb-va) / math.Abs(va)
			}
			verdict := ""
			if moved > r.bound {
				verdict = "  EXCEEDS BOUND"
				failed++
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", sh.Name, r.name, va, vb, 100*moved, 100*r.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d metrics moved by more than their bound between two runs of the same commit", failed)
	}
	fmt.Println("A/A: PASS")
	return nil
}

// checkRounds is the length of a -check repetition.
const checkRounds = 30

// runCheck is the fast correctness pass: checkRounds rounds of every
// workload, two repetitions against the reference and the layer walk
// against both. No number it takes is reported.
func runCheck(o options) error {
	failed := 0
	for _, sh := range shapes {
		if o.workload != "" && o.workload != sh.Name {
			continue
		}
		sh.Rounds = checkRounds
		m := &measurement{sh: sh, seed: o.seed, correct: true}
		var err error
		if m.ref, err = reference(sh, o.seed); err != nil {
			return err
		}
		for i := 1; i <= 2; i++ {
			rep := runRep(sh, o.seed, i == 2)
			m.check(rep, fmt.Sprintf("repetition %d", i))
			if rep.rounds() != sh.Rounds {
				m.fault("repetition %d: %d of %d rounds ended", i, rep.rounds(), sh.Rounds)
			}
		}
		m.walk = runWalk(sh, o.seed)
		m.checkWalk()
		if m.correct {
			fmt.Printf("PASS %s\n", sh.Name)
			continue
		}
		failed++
		fmt.Printf("FAIL %s\n", sh.Name)
		for _, why := range m.why {
			fmt.Println("    ", why)
		}
	}
	if failed > 0 {
		return fmt.Errorf("check: %d workloads failed", failed)
	}
	return nil
}
