package experiments

import (
	"fmt"
	"math"

	"fedsparse/internal/core"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/metrics"
)

// Fig6Options configures the Algorithm 2 vs Algorithm 3 comparison.
type Fig6Options struct {
	// Rounds per run (0 = workload default).
	Rounds int
	// Beta is the communication time (paper: 100 — large, so the optimal
	// k is small and the shrinking interval matters).
	Beta float64
}

// Fig6 reproduces Fig. 6: Algorithm 3 (shrinking search intervals) versus
// plain Algorithm 2 at a large communication time, where Algorithm 2's
// step size δ_m = B/√(2m) causes k to keep oscillating high and waste
// communication.
func Fig6(w *Workload, opts Fig6Options) (*FigureResult, error) {
	rounds := opts.Rounds
	if rounds == 0 {
		rounds = w.Rounds
	}
	beta := opts.Beta
	if beta == 0 {
		beta = 100
	}
	kmin := math.Max(2, 0.002*float64(w.D))
	kmax := float64(w.D)
	evalEvery := maxInt(1, rounds/30)

	fig := newFigure("fig6", fmt.Sprintf("Algorithm 2 vs Algorithm 3 (comm time %g)", beta))

	alg3 := core.NewAdaptiveSignOGD(kmin, kmax, kmax, 1.5, 20, nil)
	alg2 := core.NewSignOGD(kmin, kmax, kmax, nil)
	type entry struct {
		name  string
		stats []fl.RoundEvent
	}
	var entries []entry
	for i, e := range []struct {
		name string
		ctrl core.Controller
	}{{"alg3", alg3}, {"alg2", alg2}} {
		cfg := w.baseFL(beta, rounds, int64(400+i))
		cfg.Strategy = &gs.FABTopK{}
		cfg.Controller = e.ctrl
		cfg.EvalEvery = evalEvery
		res, err := fl.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", e.name, err)
		}
		entries = append(entries, entry{e.name, res.Stats})
	}

	var finals []float64
	for _, e := range entries {
		finals = append(finals, smoothedFinalLoss(e.stats, 25))
	}
	target := metrics.Quantile(finals, 1) // the weaker method's final loss

	table := metrics.Table{
		Title: fmt.Sprintf("fig6: Alg 2 vs Alg 3 (target loss %.3f)", target),
		Headers: []string{"algorithm", "final loss", "final time",
			"time-to-target", "k std (late)", "interval restarts"},
	}
	for _, e := range entries {
		loss := lossSeries(e.stats)
		ks := kSeries(e.stats)
		fig.Series["loss@"+e.name] = loss
		fig.Series["acc@"+e.name] = accSeries(e.stats)
		fig.Series["k@"+e.name] = ks
		late := ks.Y[len(ks.Y)/2:]
		finalTime, _ := loss.Last()
		restarts := "-"
		if e.name == "alg3" {
			restarts = fmt.Sprintf("%d", alg3.Resets())
		}
		table.AddRow(
			e.name,
			metrics.F(smoothedFinalLoss(e.stats, 25)),
			metrics.F(finalTime),
			metrics.F(loss.MovingAverage(25).TimeToReach(target)),
			metrics.F(metrics.StdDev(late)),
			restarts,
		)
	}
	fig.Tables = append(fig.Tables, table)
	fig.Notes = append(fig.Notes,
		"Expected shape: Algorithm 3 shows lower k fluctuation and reaches the target loss in less time than Algorithm 2.")
	return fig, nil
}
