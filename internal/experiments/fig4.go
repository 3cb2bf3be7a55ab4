package experiments

import (
	"fmt"
	"math"

	"fedsparse/internal/core"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/metrics"
)

// Fig4Options configures the GS-method comparison.
type Fig4Options struct {
	// Rounds for the reference FAB run that sets the shared time budget
	// (0 = workload default).
	Rounds int
	// Beta is the communication time (paper: 10).
	Beta float64
	// K is the sparsity degree (0 = the workload's k=1000 analog).
	K int
}

// Fig4 reproduces Fig. 4: loss and accuracy versus normalized time for
// FAB-top-k against FUB-top-k, unidirectional top-k, periodic-k, FedAvg
// (equal average communication), and always-send-all — plus the CDF of
// gradient elements used from each client (the fairness panel).
func Fig4(w *Workload, opts Fig4Options) (*FigureResult, error) {
	rounds := opts.Rounds
	if rounds == 0 {
		rounds = w.Rounds
	}
	beta := opts.Beta
	if beta == 0 {
		beta = 10
	}
	k := opts.K
	if k == 0 {
		k = w.KFixed
	}
	evalEvery := maxInt(1, rounds/30)

	fig := newFigure("fig4", fmt.Sprintf("GS methods at k=%d, communication time %g", k, beta))

	// Reference run fixes the time budget every method receives.
	refCfg := w.baseFL(beta, rounds, 200)
	refCfg.Strategy = &gs.FABTopK{}
	refCfg.Controller = core.NewFixedK(float64(k))
	refCfg.EvalEvery = evalEvery
	refCfg.RecordPerClient = true
	ref, err := fl.Run(refCfg)
	if err != nil {
		return nil, fmt.Errorf("fig4 fab: %w", err)
	}
	budget := ref.Stats[len(ref.Stats)-1].Time

	type methodRun struct {
		name  string
		stats []fl.RoundEvent
	}
	runs := []methodRun{{"fab-top-k", ref.Stats}}

	sparseMethods := []gs.Strategy{gs.FUBTopK{}, gs.UniTopK{}, gs.PeriodicK{}, gs.SendAll{}}
	capRounds := int(budget) + rounds + 10
	for i, s := range sparseMethods {
		cfg := w.baseFL(beta, capRounds, int64(201+i))
		cfg.Strategy = s
		cfg.Controller = core.NewFixedK(float64(k))
		cfg.EvalEvery = evalEvery
		cfg.RecordPerClient = true
		cfg.MaxTime = budget
		res, err := fl.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", s.Name(), err)
		}
		runs = append(runs, methodRun{s.Name(), res.Stats})
	}
	// FedAvg with the same average communication overhead.
	fedCfg := w.baseFL(beta, capRounds, 250)
	fedCfg.FedAvg = true
	fedCfg.FedAvgKEquiv = k
	fedCfg.EvalEvery = evalEvery
	fedCfg.MaxTime = budget
	fed, err := fl.Run(fedCfg)
	if err != nil {
		return nil, fmt.Errorf("fig4 fedavg: %w", err)
	}
	runs = append(runs, methodRun{"fedavg", fed.Stats})

	// The paper reads Fig. 4 at a target loss; use the median method's
	// achievable loss so both leaders and laggards are measurable.
	var finals []float64
	for _, r := range runs {
		finals = append(finals, smoothedFinalLoss(r.stats, 25))
	}
	target := metrics.Quantile(finals, 0.5)

	table := metrics.Table{
		Title: fmt.Sprintf("fig4: methods at equal time budget %.1f (target loss %.3f)", budget, target),
		Headers: []string{"method", "rounds", "final loss", "final acc",
			"time-to-target", "min client contrib/round"},
	}
	n := w.Data.NumClients()
	for _, r := range runs {
		loss := lossSeries(r.stats)
		acc := accSeries(r.stats)
		fig.Series["loss@"+r.name] = loss
		fig.Series["acc@"+r.name] = acc

		finalAcc := math.NaN()
		if acc.Len() > 0 {
			_, finalAcc = acc.Last()
		}
		minContrib := math.NaN()
		if contribs := perClientMeanContributions(r.stats, n); contribs != nil {
			fig.Series["contribcdf@"+r.name] = metrics.CDF(contribs)
			minContrib = metrics.Quantile(contribs, 0)
		}
		table.AddRow(
			r.name,
			fmt.Sprintf("%d", len(r.stats)),
			metrics.F(smoothedFinalLoss(r.stats, 25)),
			metrics.F(finalAcc),
			metrics.F(loss.MovingAverage(25).TimeToReach(target)),
			metrics.F(minContrib),
		)
	}
	fig.Tables = append(fig.Tables, table)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("FAB guarantee: every client contributes ≥ ⌊k/N⌋ = %d elements per round.", k/n),
		"Expected shape: fab ≈ fub ≫ {uni, periodic, fedavg, send-all} in time-to-loss; fub starves some clients (CDF mass near 0).")
	return fig, nil
}
