package fl

import (
	"fmt"
	"math"
	"math/rand"

	"fedsparse/internal/core"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
)

// Server is Algorithm 1's server side and Fig. 3's k schedule, written
// once: the engine's rounds (round.go) and every wire coordinator
// (internal/transport's coordRun) run one. It decides k_m and the probe
// k′_m, selects B and B′ from the uploads, or B from the shard tier's rank
// histograms, and snaps them onto the b-bit grid — the one post-aggregation
// quantization — and feeds the round's losses to the online learner
// (Algorithms 2–3). It owns the strategy's scratches and is
// single-goroutine state; the Aggregates it returns alias its scratch
// (a Select's cut likewise) until its next Aggregate or Select.
type Server struct {
	strat gs.Strategy
	ctrl  core.Controller
	// rng may be nil when no decision can draw: an integral FixedK with
	// a strategy that mandates nothing, the wire coordinator's case.
	rng     *rand.Rand
	d, bits int
	agg     *gs.AggScratch
	mand    gs.MandateScratch
}

// Decision is one round's core.Decision realized: KCont is k_m projected
// onto [1, D] and K its stochastic rounding (Definition 2); ProbeK is k′_m
// rounded strictly inside [1, K), 0 meaning no probe; Mandated is the
// mandated index set (nil on a top-k round), valid until the next Decide.
type Decision struct {
	Round, K, ProbeK int
	KCont            float64
	Mandated         []int
}

// NewServer returns the server step of a run with model dimension d and
// b-bit quantization (0 = off) of B and B′.
func NewServer(strat gs.Strategy, ctrl core.Controller, rng *rand.Rand, d, quantBits int) *Server {
	s := &Server{strat: strat, ctrl: ctrl, rng: rng, d: d, bits: quantBits, agg: gs.NewAggScratch(0)}
	s.agg.Reserve(d) // uploads only carry coordinates < d
	return s
}

// Decide asks the controller for round m and realizes its answer, drawing
// on the server stream in a fixed order: k's rounding, then the probe's,
// then the mandated set. A controller that decides a non-finite k or k′
// fails the round before any draw.
func (s *Server) Decide(m int) (Decision, error) {
	dec := s.ctrl.Decide(m)
	switch {
	case math.IsNaN(dec.K) || math.IsInf(dec.K, 0):
		return Decision{}, fmt.Errorf("fl: round %d: controller %s decided k = %v", m, s.ctrl.Name(), dec.K)
	case math.IsNaN(dec.ProbeK) || math.IsInf(dec.ProbeK, 0):
		return Decision{}, fmt.Errorf("fl: round %d: controller %s decided k′ = %v", m, s.ctrl.Name(), dec.ProbeK)
	}
	kCont := core.Project(dec.K, 1, float64(s.d))
	k := min(max(sparse.StochasticRound(kCont, s.rng), 1), s.d)
	out := Decision{Round: m, KCont: kCont, K: k}
	if dec.ProbeK > 0 {
		out.ProbeK = max(min(sparse.StochasticRound(dec.ProbeK, s.rng), k-1), 0) // k = 1 leaves no room
	}
	out.Mandated = s.strat.MandatedIndicesInto(&s.mand, m, s.d, k, s.rng)
	return out, nil
}

// Aggregate selects B for k and, in the same pass, B′ for the probe k′
// (0 = no probe) from the round's uploads (Algorithm 1, lines 8–11),
// quantizes both, and returns B's grid scale.
func (s *Server) Aggregate(uploads []gs.ClientUpload, k, probeK int) (main, probe gs.Aggregate, scale float64) {
	s.SelectB(uploads, k, probeK)
	return s.Sum(uploads)
}

// SelectB is Aggregate's first half: it selects B and B′ from the uploads
// and returns B's membership map (j ∈ B where inB[j]&gs.InB != 0), which
// Settle reads. The map is read-only and valid until the next selection.
func (s *Server) SelectB(uploads []gs.ClientUpload, k, probeK int) (inB []byte) {
	s.strat.SelectInto(s.agg, uploads, k, probeK)
	return s.agg.Membership()
}

// Sum is Aggregate's second half, over the uploads SelectB selected from:
// B's and B′'s values, quantized, and B's scale. Other goroutines may read
// SelectB's map while it runs; nothing else of the server's.
func (s *Server) Sum(uploads []gs.ClientUpload) (main, probe gs.Aggregate, scale float64) {
	main, probe = s.agg.Sum(uploads)
	return main, probe, s.quantize(main, probe)
}

// Select is Aggregate's B on the direct shard plane, read off the
// shards' merged min-rank histogram (gs.FABTopK.SelectHist, fill served
// by the shards): the same B bit for bit, as the cut the shards seal —
// the coordinator never holds B's values — and the scale of its grid,
// which needs B's largest |b_j| from the shards. Only FAB selects
// there, and no probe runs on the wire.
func (s *Server) Select(hist []int, fill gs.FillServer, k int) (cut gs.Cut, scale float64, err error) {
	fab, ok := s.strat.(*gs.FABTopK)
	if !ok {
		return cut, 0, fmt.Errorf("fl: strategy %s has no rank-histogram selection", s.strat.Name())
	}
	// QuantizeInPlace leaves b ≥ 64 unquantized and calls its scale 0.
	quantizes := s.bits > 0 && s.bits < 64
	if cut, err = fab.SelectHist(s.agg, hist, fill, k, quantizes); err != nil || !quantizes {
		return cut, 0, err
	}
	return cut, cut.Max, nil
}

// quantize snaps B and B′ onto their b-bit grids in place and returns
// B's scale. B′ is empty without a probe, which leaves it untouched.
func (s *Server) quantize(main, probe gs.Aggregate) float64 {
	if s.bits == 0 {
		return 0
	}
	// B′ first, so the scale left is B's.
	var scale float64
	for _, vals := range [2][]float64{probe.Values, main.Values} {
		scale = sparse.QuantizeInPlace(vals, s.bits)
	}
	return scale
}

// Observe reveals round dec.Round to the controller: the participants'
// weighted minibatch loss, the round's time τ_m(k_m) and the probe's
// θ_m(k′_m), and the three one-sample losses as means over participant
// order — L̃(w(m−1)) from prev, L̃(w(m)) from cur, L̃(w′(m)) from probe,
// which is read only when the round probed.
func (s *Server) Observe(dec Decision, globalLoss, roundTime, probeTime float64, prev, cur, probe []float64) {
	obs := core.Observation{
		Round:      dec.Round,
		K:          dec.KCont,
		RoundTime:  roundTime,
		GlobalLoss: globalLoss,
		LossPrev:   mean(prev),
		LossCur:    mean(cur),
		LossProbe:  math.NaN(),
	}
	if dec.ProbeK > 0 {
		obs.ProbeK = float64(dec.ProbeK)
		obs.ProbeRoundTime = probeTime
		obs.LossProbe = mean(probe)
	}
	s.ctrl.Observe(obs)
}
