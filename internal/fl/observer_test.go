package fl

import (
	"errors"
	"testing"
)

// recObserver records every callback for the contract tests.
type recObserver struct {
	starts []int
	events []RoundEvent
	done   bool
	err    error
}

func (r *recObserver) OnRoundStart(round int)   { r.starts = append(r.starts, round) }
func (r *recObserver) OnRoundEnd(ev RoundEvent) { r.events = append(r.events, ev) }
func (r *recObserver) OnRunEnd(err error)       { r.done, r.err = true, err }

// requireRoundSequence checks the exactly-once contract of a run that
// was not cut short: starts and events both cover rounds 1..n in order.
func requireRoundSequence(t *testing.T, rec *recObserver, n int) {
	t.Helper()
	requireWindowedSequence(t, rec, n, n)
}

// requireWindowedSequence is the contract in full: starts cover rounds
// 1..started and events rounds 1..ended, each in order and exactly once.
func requireWindowedSequence(t *testing.T, rec *recObserver, started, ended int) {
	t.Helper()
	if len(rec.starts) != started || len(rec.events) != ended {
		t.Fatalf("observer saw %d starts / %d events, want %d / %d", len(rec.starts), len(rec.events), started, ended)
	}
	for i, round := range rec.starts {
		if round != i+1 {
			t.Fatalf("start %d is round %d, want %d", i, round, i+1)
		}
	}
	for i, ev := range rec.events {
		if ev.Round != i+1 {
			t.Fatalf("event %d is round %d, want %d", i, ev.Round, i+1)
		}
	}
}

// orderObserver checks the interleaving as it happens: when round r
// ends, the starts seen so far must be exactly 1..min(r+W, Rounds).
type orderObserver struct {
	recObserver
	t         *testing.T
	w, rounds int
}

func (o *orderObserver) OnRoundEnd(ev RoundEvent) {
	if want := min(ev.Round+o.w, o.rounds); len(o.starts) != want {
		o.t.Fatalf("round %d ended after %d starts, want %d (W=%d)", ev.Round, len(o.starts), want, o.w)
	}
	o.recObserver.OnRoundEnd(ev)
}

// TestObserverPassiveAndExactlyOnce pins the two halves of the observer
// contract on the GS engine: attaching one changes no stat of the run
// (no rng draw, no round result), and every round is delivered exactly
// once, in order, with the events equal to the Result's stats.
func TestObserverPassiveAndExactlyOnce(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 15
	cfg.EvalEvery = 5
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec := &recObserver{}
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStats(t, res.Stats, ref.Stats)
	requireRoundSequence(t, rec, cfg.Rounds)
	assertSameStats(t, rec.events, res.Stats)
	if !rec.done || rec.err != nil {
		t.Fatalf("OnRunEnd: done=%v err=%v", rec.done, rec.err)
	}

	// Under a window the same holds, with starts leading ends by W …
	cfg.Observer = nil
	cfg.Staleness = 1
	ref, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	win := &orderObserver{t: t, w: 1, rounds: cfg.Rounds}
	cfg.Observer = win
	if res, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	assertSameStats(t, res.Stats, ref.Stats)
	requireRoundSequence(t, &win.recObserver, cfg.Rounds)
	assertSameStats(t, win.events, res.Stats)

	// … and a MaxTime stop leaves the W rounds in flight started but
	// never ended: no event exists for a round that did not seal.
	cfg.MaxTime = ref.Stats[5].Time
	cut := &orderObserver{t: t, w: 1, rounds: cfg.Rounds}
	cfg.Observer = cut
	if res, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	requireWindowedSequence(t, &cut.recObserver, 7, 6)
	assertSameStats(t, cut.events, ref.Stats[:6])
	assertSameStats(t, cut.events, res.Stats)
	if !cut.done || cut.err != nil {
		t.Fatalf("OnRunEnd after a MaxTime stop: done=%v err=%v", cut.done, cut.err)
	}
}

// TestObserverFedAvg covers the FedAvg engine path.
func TestObserverFedAvg(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 8
	cfg.Strategy, cfg.Controller = nil, nil
	cfg.FedAvg = true
	cfg.FedAvgKEquiv = 100
	rec := &recObserver{}
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireRoundSequence(t, rec, cfg.Rounds)
	assertSameStats(t, rec.events, res.Stats)
}

// TestObserverResumeReplaysPrefix is the durable face of exactly-once:
// a resumed run must re-emit the already-logged rounds through the
// stream (a tailing consumer of the resumed process sees the whole
// run), with the replayed events equal to the ones the halted run
// published, and WAL counters zero on the replayed prefix (replay
// verification appends nothing).
func TestObserverResumeReplaysPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.HaltAfter = 9
	first := &recObserver{}
	cfg.Observer = first
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	requireRoundSequence(t, first, 9)

	cfg = durableConfig(dir)
	cfg.Resume = true
	second := &recObserver{}
	cfg.Observer = second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireRoundSequence(t, second, cfg.Rounds)
	assertSameStats(t, second.events, res.Stats)
	assertSameStats(t, second.events[:9], first.events)
	for i, ev := range second.events[:9] {
		if ev.WALAppends != 0 || ev.WALSnapshots != 0 {
			t.Fatalf("replayed round %d carries WAL counters %d/%d, want 0/0", i+1, ev.WALAppends, ev.WALSnapshots)
		}
	}
	live := second.events[len(second.events)-1]
	if live.WALAppends == 0 {
		t.Fatal("live durable rounds published no WAL appends")
	}
	if live.WALSnapshots == 0 {
		t.Fatal("live durable rounds published no WAL snapshots")
	}
}

// TestObserverRunEndOnError: a run that fails validation still closes
// the stream with the error.
func TestObserverRunEndOnError(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 0
	rec := &recObserver{}
	cfg.Observer = rec
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	if !rec.done || rec.err == nil {
		t.Fatalf("OnRunEnd after failed run: done=%v err=%v", rec.done, rec.err)
	}
	if len(rec.events) != 0 {
		t.Fatalf("failed run emitted %d round events", len(rec.events))
	}
}

// TestMultiObserver pins fan-out order and nil filtering.
func TestMultiObserver(t *testing.T) {
	var order []string
	a := funcObserver{onEnd: func(RoundEvent) { order = append(order, "a") }}
	b := funcObserver{onEnd: func(RoundEvent) { order = append(order, "b") }}
	m := MultiObserver(nil, a, nil, b)
	m.OnRoundStart(1)
	m.OnRoundEnd(RoundEvent{Round: 1})
	m.OnRunEnd(errors.New("x"))
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("fan-out order %v, want [a b]", order)
	}
	// All-nil input still yields a usable no-op observer.
	empty := MultiObserver(nil, nil)
	if empty == nil {
		t.Fatal("MultiObserver of nils is nil")
	}
	empty.OnRoundStart(1)
	empty.OnRoundEnd(RoundEvent{})
	empty.OnRunEnd(nil)
}

// funcObserver adapts closures to the Observer interface.
type funcObserver struct {
	onEnd func(RoundEvent)
}

func (f funcObserver) OnRoundStart(int) {}
func (f funcObserver) OnRoundEnd(ev RoundEvent) {
	if f.onEnd != nil {
		f.onEnd(ev)
	}
}
func (f funcObserver) OnRunEnd(error) {}
