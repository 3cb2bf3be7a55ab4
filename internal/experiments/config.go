// Package experiments reproduces every figure of the paper's evaluation
// (Section V) on the synthetic federated workloads: Fig. 1 (Assumption 1
// validation), Fig. 4 (GS method comparison + fairness CDF), Fig. 5
// (online-learning method comparison), Fig. 6 (Algorithm 2 vs 3), and
// Figs. 7–8 (communication-time sweeps with cross-applied k sequences on
// FEMNIST-like and CIFAR-like data).
//
// Each figure function returns a FigureResult holding the raw series (the
// exact data a plot would show) plus summary tables with the shape
// metrics to compare against the paper.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/metrics"
	"fedsparse/internal/nn"
)

// Scale selects the experiment size. The paper runs N=156 clients and
// D > 400,000 on GPUs; these scales keep the same structure on CPU.
type Scale string

const (
	// ScaleTiny is for unit tests (seconds).
	ScaleTiny Scale = "tiny"
	// ScaleSmall is the benchmark default (tens of seconds per figure).
	ScaleSmall Scale = "small"
	// ScalePaper is the cmd/figures default (minutes per figure).
	ScalePaper Scale = "paper"
)

// Workload bundles a federated dataset, a model family, and the paper's
// hyper-parameters at a given scale.
type Workload struct {
	Name  string
	Scale Scale
	Data  *dataset.Federated
	Model func() *nn.Network
	// D is the model dimension (the paper's D).
	D int
	// KFixed is the "k = 1000" analog at this scale, preserving the
	// paper's per-client budget k/N ≈ 6.4 (Fig. 4 uses it).
	KFixed int
	// Rounds is the default training length.
	Rounds       int
	BatchSize    int
	LearningRate float64
	Seed         int64
	// Workers sizes the engine's per-client worker pool for every run
	// this workload spawns (0 = sequential; results are bit-identical
	// at any value, see fl.Config.Workers).
	Workers int
}

type scaleParams struct {
	clients, dim, hidden, rounds, batch int
}

func femnistParams(s Scale) scaleParams {
	switch s {
	case ScaleTiny:
		return scaleParams{clients: 6, dim: 32, hidden: 12, rounds: 80, batch: 8}
	case ScalePaper:
		return scaleParams{clients: 48, dim: 64, hidden: 96, rounds: 1500, batch: 16}
	default: // ScaleSmall
		return scaleParams{clients: 16, dim: 64, hidden: 24, rounds: 400, batch: 8}
	}
}

// NewFEMNIST builds the FEMNIST-like workload (62 classes, writer-
// partitioned non-i.i.d. clients) at the given scale.
func NewFEMNIST(s Scale) *Workload {
	p := femnistParams(s)
	cfg := dataset.DefaultFEMNIST(p.clients)
	cfg.Dim = p.dim
	fed := dataset.GenerateFEMNIST(cfg)
	model := func() *nn.Network { return nn.NewMLP(p.dim, []int{p.hidden}, cfg.NumClasses) }
	d := model().D()
	return &Workload{
		Name:         "femnist",
		Scale:        s,
		Data:         fed,
		Model:        model,
		D:            d,
		KFixed:       kFixedFor(p.clients, d),
		Rounds:       p.rounds,
		BatchSize:    p.batch,
		LearningRate: 0.1,
		Seed:         17,
	}
}

// NewCIFAR builds the CIFAR-like workload (10 classes, one class per
// client — the paper's strong non-i.i.d. case) at the given scale.
func NewCIFAR(s Scale) *Workload {
	p := femnistParams(s)
	cfg := dataset.DefaultCIFAR(p.clients)
	cfg.Dim = p.dim + 32 // slightly wider features, as CIFAR > FEMNIST dims
	fed := dataset.GenerateCIFAR(cfg)
	model := func() *nn.Network { return nn.NewMLP(cfg.Dim, []int{p.hidden}, 10) }
	d := model().D()
	return &Workload{
		Name:         "cifar",
		Scale:        s,
		Data:         fed,
		Model:        model,
		D:            d,
		KFixed:       kFixedFor(p.clients, d),
		Rounds:       p.rounds,
		BatchSize:    p.batch,
		LearningRate: 0.1,
		Seed:         29,
	}
}

// kFixedFor scales the paper's k = 1000 at N = 156 (per-client budget
// ≈ 6.4 elements) to the workload size, capped at D/4 so sparsification
// stays meaningful at tiny scales.
func kFixedFor(clients, d int) int {
	k := (clients*64 + 9) / 10 // 6.4 per client
	if k > d/4 {
		k = d / 4
	}
	if k < 1 {
		k = 1
	}
	return k
}

// baseFL returns the fl.Config shared by the figure runners.
func (w *Workload) baseFL(beta float64, rounds int, seedOffset int64) fl.Config {
	return fl.Config{
		Data:         w.Data,
		Model:        w.Model,
		LearningRate: w.LearningRate,
		BatchSize:    w.BatchSize,
		Rounds:       rounds,
		Seed:         w.Seed + seedOffset,
		Beta:         beta,
		Workers:      w.Workers,
	}
}

// FigureResult is one reproduced figure: the raw series a plot would
// show, plus tables summarizing the shape metrics.
type FigureResult struct {
	ID     string
	Title  string
	Notes  []string
	Tables []metrics.Table
	Series map[string]metrics.Series
}

func newFigure(id, title string) *FigureResult {
	return &FigureResult{ID: id, Title: title, Series: make(map[string]metrics.Series)}
}

// Render returns the figure as text: notes, tables, and downsampled
// series blocks (≈20 points each) so benchmark output contains the
// actual figure data.
func (r *FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
	}
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Series[name].DropNaN().Downsample(20)
		fmt.Fprintf(&b, "-- %s --\n", name)
		for i := range s.X {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%s:%s", metrics.F(s.X[i]), metrics.F(s.Y[i]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// observe replays a finished run's stats through the shared
// round-event consumer; the figure helpers below are views of it.
func observe(stats []fl.RoundEvent) *metrics.RoundObserver {
	var o metrics.RoundObserver
	o.Replay(stats)
	return &o
}

// lossSeries extracts (time, loss).
func lossSeries(stats []fl.RoundEvent) metrics.Series {
	return observe(stats).LossByTime
}

// lossByRound extracts (round, loss) — Fig. 1's x-axis.
func lossByRound(stats []fl.RoundEvent) metrics.Series {
	return observe(stats).LossByRound
}

// accSeries extracts (time, test accuracy) at evaluation rounds.
func accSeries(stats []fl.RoundEvent) metrics.Series {
	return observe(stats).AccByTime
}

// kSeries extracts (round, realized k).
func kSeries(stats []fl.RoundEvent) metrics.Series {
	return observe(stats).KByRound
}

// perClientMeanContributions averages each client's |J ∩ J_i| over the
// rounds that recorded it (the Fig. 4-right CDF input).
func perClientMeanContributions(stats []fl.RoundEvent, clients int) []float64 {
	sums := make([]float64, clients)
	rounds := 0
	for _, st := range stats {
		if st.PerClientUsed == nil {
			continue
		}
		rounds++
		for i, used := range st.PerClientUsed {
			sums[i] += float64(used)
		}
	}
	if rounds == 0 {
		return nil
	}
	for i := range sums {
		sums[i] /= float64(rounds)
	}
	return sums
}

// smoothedFinalLoss is the moving-average loss at the end of a run.
func smoothedFinalLoss(stats []fl.RoundEvent, window int) float64 {
	s := lossSeries(stats).MovingAverage(window)
	if s.Len() == 0 {
		return 0
	}
	_, y := s.Last()
	return y
}
