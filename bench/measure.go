package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"fedsparse/internal/fl"
	"fedsparse/internal/simtime"
)

// roundKey is what a round's output is compared on. K is compared on the
// adaptive workload only (it is the constant k everywhere else).
type roundKey struct {
	K    int
	Loss float64
	Down int
}

func trajectory(events []fl.RoundEvent) []roundKey {
	out := make([]roundKey, len(events))
	for i, ev := range events {
		out[i] = roundKey{K: ev.K, Loss: ev.Loss, Down: ev.DownlinkElems}
	}
	return out
}

// reference is the trajectory the workload's outputs must equal bit for
// bit: engine_adaptive against its own sequential (Workers=0) run, the
// TCP workloads against their in-process fl.Run twin (FAB-top-k, the
// same fixed k, QuantBits and seed). The population workload has none —
// an fl.Run twin would need 100k client structs — so its repetitions are
// compared with each other and against the cohort arithmetic instead.
func reference(sh shape, seed int64) ([]roundKey, error) {
	if sh.Plane == planePop {
		return nil, nil
	}
	coll := &fl.Collector{}
	if _, err := fl.Run(engineConfig(sh, generate(sh, seed), seed, 0, coll)); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return trajectory(coll.Events), nil
}

// measurement is everything one invocation learned about one workload.
type measurement struct {
	sh      shape
	seed    int64
	host    hostFacts
	ref     []roundKey
	timed   []*repResult // untraced, in run order
	setups  []float64    // setup_s samples: the timed repetitions' plus the set-up-only deployments'
	traced  []*repResult // traced (only with --trace 1)
	walk    *walkResult  // layer walk (only with --trace 1)
	correct bool
	why     []string // what made correct false
}

func (m *measurement) fault(format string, args ...any) {
	m.correct = false
	if len(m.why) < 8 {
		m.why = append(m.why, fmt.Sprintf(format, args...))
	}
}

// check compares one repetition's outputs with the reference (or, on the
// population workload, with the first repetition).
func (m *measurement) check(rep *repResult, label string) {
	if rep.err != nil {
		m.fault("%s: %v", label, rep.err)
		return
	}
	got := trajectory(rep.events)
	want := m.ref
	if want == nil {
		m.ref, want = got, got
	}
	if len(got) != len(want) {
		m.fault("%s: %d rounds, reference has %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			m.fault("%s: round %d is %+v, reference %+v", label, i+1, got[i], want[i])
			return
		}
	}
	if m.sh.Plane == planePop {
		drawn := 0
		for _, ev := range rep.events {
			drawn += ev.CohortSize
		}
		if drawn != m.sh.Cohort*m.sh.Rounds {
			m.fault("%s: cohorts sum to %d members, want %d", label, drawn, m.sh.Cohort*m.sh.Rounds)
		}
	}
}

// measure runs the workload: reference, one discarded warm-up
// repetition, then timed repetitions (fresh deployment each) until the
// time budget is spent. With tracing requested, untraced and traced
// repetitions alternate so the two are taken under the same conditions,
// and the layer walk runs last.
func measure(sh shape, o options) (*measurement, error) {
	m := &measurement{sh: sh, seed: o.seed, host: readHostFacts(), correct: true}
	var err error
	if m.ref, err = reference(sh, o.seed); err != nil {
		return nil, err
	}
	settle()
	m.check(runRep(sh, o.seed, false), "warm-up")

	start := time.Now()
	for i := 0; ; i++ {
		if o.reps > 0 {
			if i >= o.reps {
				break
			}
		} else if i > 0 && time.Since(start).Seconds() >= o.seconds {
			break
		}
		settle()
		rep := runRep(sh, o.seed, false)
		m.check(rep, fmt.Sprintf("repetition %d", i+1))
		m.timed = append(m.timed, rep)
		if o.trace != 0 {
			settle()
			rep := runRep(sh, o.seed, true)
			m.check(rep, fmt.Sprintf("traced repetition %d", i+1))
			m.traced = append(m.traced, rep)
		}
	}
	for _, rep := range m.timed {
		if rep.err == nil {
			m.setups = append(m.setups, rep.setup.Seconds())
		}
	}
	// Set-up is short next to a repetition, so a handful of repetitions
	// give a jumpy median. An end-to-end run deploys a few more times for
	// one round each: the path to the first OnRoundStart is the same.
	if o.trace != 0 {
		m.walk = runWalk(sh, o.seed)
		m.checkWalk()
		return m, nil
	}
	one := sh
	one.Rounds = 1
	for i := 0; i < setupSamples; i++ {
		settle()
		if rep := runRep(one, o.seed, false); rep.err != nil {
			m.fault("set-up sample %d: %v", i+1, rep.err)
		} else {
			m.setups = append(m.setups, rep.setup.Seconds())
		}
	}
	return m, nil
}

// setupSamples is how many one-round deployments top up the setup_s
// sample.
const setupSamples = 8

// settle returns the previous repetition's garbage before the next one
// starts, so a repetition's allocation and RSS numbers are its own.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// normTimes is the cumulative normalised time (the paper's x-axis: 1 per
// round of computation plus beta times the fraction of a full exchange
// the round moved) after each round. The engine reports it; for the wire
// workloads it is rebuilt from the same cost model, since their
// coordinators do not.
func normTimes(sh shape, events []fl.RoundEvent) []float64 {
	out := make([]float64, len(events))
	if sh.Plane == planeEngine {
		for i, ev := range events {
			out[i] = ev.Time
		}
		return out
	}
	cost := simtime.NewCostModel(sh.dim(), beta)
	elemUnits := 2.0
	if sh.QuantBits > 0 && sh.QuantBits < 64 {
		elemUnits = 1 + float64(sh.QuantBits)/64
	}
	var clock simtime.Clock
	for i, ev := range events {
		out[i] = clock.Advance(cost.RoundTime(float64(ev.K)*elemUnits, float64(ev.DownlinkElems)*elemUnits))
	}
	return out
}

// timeToLoss is the normalised time at the first round whose trailing
// lossWindow-round mean loss is at most psi. A run that never gets there
// reports its final time and ok=false.
func timeToLoss(events []fl.RoundEvent, times []float64, psi float64) (t float64, ok bool) {
	var sum float64
	for i, ev := range events {
		sum += ev.Loss
		if i >= lossWindow {
			sum -= events[i-lossWindow].Loss
		}
		if i >= lossWindow-1 && sum/lossWindow <= psi {
			return times[i], true
		}
	}
	if len(times) == 0 {
		return 0, false
	}
	return times[len(times)-1], false
}

func finalLoss(events []fl.RoundEvent) float64 {
	tail := events[max(0, len(events)-lossWindow):]
	var sum float64
	for _, ev := range tail {
		sum += ev.Loss
	}
	return sum / float64(max(1, len(tail)))
}

// wireBytes sums a repetition's per-round traffic over every connection
// the benchmark created. Each byte is counted once, where it was sent.
func wireBytes(rep *repResult) (up, down, ctrl uint64) {
	for _, c := range rep.conns {
		up += c.bytes[classUp]
		down += c.bytes[classDown]
		ctrl += c.bytes[classCtrl]
	}
	return up, down, ctrl
}

// rawElemBytes is one sparse element at raw precision as the binary
// codec ships it: a u32 index and an f64 value.
const rawElemBytes = 4 + 8

// engineExchangeBytes is the traffic of an fl.Run repetition. The engine
// has no sockets, so the count comes from what its rounds moved: every
// participant uploads K elements and receives the DownlinkElems selected
// ones, each at rawElemBytes. It follows the controller's k, so it moves
// when the controller or the selection does and not when the codec does.
func engineExchangeBytes(events []fl.RoundEvent) uint64 {
	var elems int
	for _, ev := range events {
		elems += ev.Participants * (ev.K + ev.DownlinkElems)
	}
	return rawElemBytes * uint64(elems)
}

// lossStats are the trajectory's own figures, exact functions of the
// seed: the mean loss of the last lossWindow rounds and the normalised
// time at which the trailing mean first reached the workload's target.
func (m *measurement) lossStats() (final, timeToPsi float64, reached bool) {
	for _, rep := range m.timed {
		if rep.err == nil && rep.rounds() == m.sh.Rounds {
			timeToPsi, reached = timeToLoss(rep.events, normTimes(m.sh, rep.events), m.sh.Psi)
			return finalLoss(rep.events), timeToPsi, reached
		}
	}
	return 0, 0, false
}

// endToEnd derives the --trace 0 result from the untraced repetitions.
func (m *measurement) endToEnd() result {
	sh := m.sh
	res := result{Correct: m.correct, Metrics: map[string]metric{}}
	var rates, cpus, allocs []float64
	var wire []uint64
	for _, rep := range m.timed {
		res.Attempted += sh.Rounds
		res.Failed += sh.Rounds - rep.rounds()
		if rep.err != nil || rep.rounds() != sh.Rounds {
			continue
		}
		r := float64(sh.Rounds)
		rates = append(rates, r/rep.wall.Seconds())
		cpus = append(cpus, rep.cpu.Seconds()/r)
		allocs = append(allocs, float64(rep.mallocs)/r)
		if sh.Plane == planeEngine {
			wire = append(wire, engineExchangeBytes(rep.events))
		} else {
			up, down, ctrl := wireBytes(rep)
			wire = append(wire, up+down+ctrl)
		}
	}
	if len(wire) == 0 {
		res.Correct = false
		return res
	}
	// Reaching the loss target inside the round budget is the workload's
	// deadline: a repetition that misses it is one more failed operation.
	if _, _, reached := m.lossStats(); !reached {
		res.Failed += len(wire)
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(m.setups))
	set("rounds_per_s", "1/s", median(rates))
	set("cpu_s_per_round", "core-s", median(cpus))
	set("allocs_per_round", "count", median(allocs))
	rss, err := vmHWMMiB()
	if err != nil {
		m.fault("rss_peak_mb: %v", err)
		res.Correct = false
	}
	set("rss_peak_mb", "MiB", rss)
	// Bytes are an exact count, so every repetition must agree.
	for _, w := range wire[1:] {
		if w != wire[0] {
			m.fault("wire bytes differ between repetitions: %d and %d", wire[0], w)
			res.Correct = false
		}
	}
	set("wire_bytes_per_round", "B", float64(wire[0])/float64(sh.Rounds))
	return res
}
