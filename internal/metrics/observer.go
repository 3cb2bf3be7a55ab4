package metrics

import (
	"math"

	"fedsparse/internal/fl"
)

// RoundObserver folds a run's round-event stream into the series the
// experiment harness plots. It implements fl.Observer, so it can be
// attached live to a run (fl.Config.Observer) or replayed over a
// collected []fl.RoundEvent after the fact; both produce identical
// series because it consumes nothing but the events.
type RoundObserver struct {
	LossByTime  Series // (normalized time, sampled training loss)
	LossByRound Series // (round, sampled training loss) — Fig. 1's x-axis
	AccByTime   Series // (normalized time, test accuracy) at eval rounds
	KByRound    Series // (round, realized k)
}

// OnRoundStart implements fl.Observer.
func (o *RoundObserver) OnRoundStart(int) {}

// OnRoundEnd implements fl.Observer.
func (o *RoundObserver) OnRoundEnd(ev fl.RoundEvent) {
	o.LossByTime.Append(ev.Time, ev.Loss)
	o.LossByRound.Append(float64(ev.Round), ev.Loss)
	if !math.IsNaN(ev.TestAcc) {
		o.AccByTime.Append(ev.Time, ev.TestAcc)
	}
	o.KByRound.Append(float64(ev.Round), float64(ev.K))
}

// OnRunEnd implements fl.Observer.
func (o *RoundObserver) OnRunEnd(error) {}

// Replay feeds an already-collected stats slice through the observer,
// for callers that hold a finished Result rather than a live run.
func (o *RoundObserver) Replay(stats []fl.RoundEvent) {
	for _, st := range stats {
		o.OnRoundEnd(st)
	}
}
