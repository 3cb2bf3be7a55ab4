// Package core implements the paper's primary contribution: online
// learning of the gradient-sparsity degree k to minimize total training
// time (Section IV).
//
// A Controller decides, before every training round m, the continuous
// sparsity degree k_m ∈ [kmin, kmax] (realized by stochastic rounding,
// Definition 2) and optionally a probe degree k′_m = k_m − δ_m/2 used to
// estimate the sign of the derivative of the round cost τ_m(k) at k_m
// (Section IV-E). After the round, the FL engine reveals an Observation —
// the realized round time, the hypothetical one-round time under k′, and
// the three averaged one-sample losses L̃(w(m−1)), L̃(w(m)), L̃(w′(m)) —
// from which the controller updates k.
//
// Controllers provided:
//
//   - FixedK — constant k (all the fixed-sparsity baselines).
//   - SignOGD — Algorithm 2: k_{m+1} = P_K(k_m − δ_m·ŝ_m) with
//     δ_m = B/√(2m); regret ≤ GHB√(2M) (Theorems 1–2).
//   - AdaptiveSignOGD — Algorithm 3: SignOGD with shrinking search
//     intervals (restart when B′ < (√2−1)·B and M″ ≥ M′).
//   - ValueOGD — value-based gradient descent [36] (Fig. 5 baseline).
//   - EXP3 — non-stochastic multi-armed bandit [38] over integer k arms
//     (Fig. 5 baseline).
//   - ContinuousBandit — one-point bandit gradient descent [37] (Fig. 5
//     baseline).
package core

import "math"

// Decision is a controller's choice for one round.
type Decision struct {
	// K is the continuous sparsity degree k_m; the engine realizes it by
	// stochastic rounding.
	K float64
	// ProbeK is k′_m for derivative-sign estimation; 0 means no probe is
	// requested this round.
	ProbeK float64
}

// Observation is what the system reveals to the controller after a round
// (Fig. 3 steps ④–⑤ carry exactly this information to the server).
type Observation struct {
	// Round is m (1-based).
	Round int
	// K and ProbeK echo the decision (continuous values).
	K, ProbeK float64
	// RoundTime is τ_m(k_m): the realized computation + communication
	// time of round m.
	RoundTime float64
	// ProbeRoundTime is θ_m(k′_m): the time one round would have taken
	// with k′-element GS.
	ProbeRoundTime float64
	// LossPrev, LossCur, LossProbe are the server-averaged one-sample
	// losses L̃(w(m−1)), L̃(w(m)), L̃(w′(m)). When no probe ran,
	// LossProbe is NaN.
	LossPrev, LossCur, LossProbe float64
	// GlobalLoss is the C_i/C-weighted average of the clients' minibatch
	// losses at w(m−1) — the server already receives these scalars, and
	// threshold-switching controllers (Fig. 1) key off it.
	GlobalLoss float64
}

// ThresholdK plays Before until the observed global loss reaches
// Threshold, then switches permanently to After — the schedule used to
// validate Assumption 1 (Fig. 1).
type ThresholdK struct {
	Before, After, Threshold float64

	switched bool
	// SwitchRound records when the threshold was crossed (0 = not yet).
	SwitchRound int
}

var _ Controller = (*ThresholdK)(nil)

func (t *ThresholdK) Name() string { return "threshold-k" }

func (t *ThresholdK) Decide(_ int) Decision {
	if t.switched {
		return Decision{K: t.After}
	}
	return Decision{K: t.Before}
}

func (t *ThresholdK) Observe(o Observation) {
	if !t.switched && o.GlobalLoss <= t.Threshold {
		t.switched = true
		t.SwitchRound = o.Round
	}
}

// Controller selects k_m online.
type Controller interface {
	// Name identifies the controller in experiment output.
	Name() string
	// Decide is called before round m (strictly increasing m, starting
	// at 1) and returns the round's sparsity decision.
	Decide(m int) Decision
	// Observe is called after round m completes.
	Observe(o Observation)
}

// Project is P_K: the closest point of [kmin, kmax] to k (Section IV-B).
func Project(k, kmin, kmax float64) float64 {
	if k < kmin {
		return kmin
	}
	if k > kmax {
		return kmax
	}
	return k
}

// Sign is the paper's sign function: +1 for positive, −1 for negative, 0
// for exactly zero.
func Sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// SignSource produces the (estimated) derivative sign ŝ_m from a round's
// observation. The production implementation is LossBasedSign (Section
// IV-E); tests and the synthetic regret harness substitute exact or
// noise-injected sources.
type SignSource interface {
	Sign(o Observation) (sign int, ok bool)
}

// FixedK keeps k constant — the non-adaptive baseline configuration used
// by every fixed-sparsity experiment.
type FixedK struct {
	K float64
}

var _ Controller = (*FixedK)(nil)

// NewFixedK returns a constant-k controller.
func NewFixedK(k float64) *FixedK { return &FixedK{K: k} }

func (f *FixedK) Name() string          { return "fixed-k" }
func (f *FixedK) Decide(_ int) Decision { return Decision{K: f.K} }
func (f *FixedK) Observe(_ Observation) {}

// LossBasedSign estimates the derivative sign from the three one-sample
// losses and the two round times, per equations (10)–(11):
//
//	τ̂_m(k′) = θ_m(k′) · (L̃(w(m−1)) − L̃(w(m))) / (L̃(w(m−1)) − L̃(w′(m)))
//	ŝ_m     = sign( (τ_m(k_m) − τ̂_m(k′)) / (k_m − k′) )
//
// The estimate is unavailable (ok = false) when a loss did not decrease —
// the paper's guard against minibatch randomness — or when no probe ran.
type LossBasedSign struct{}

var _ SignSource = LossBasedSign{}

// Sign implements SignSource.
func (LossBasedSign) Sign(o Observation) (int, bool) {
	der, ok := estimateDerivative(o)
	if !ok {
		return 0, false
	}
	return Sign(der), true
}

// estimateDerivative is the shared value inside sign(·) of equation (11);
// ValueOGD uses it without the sign operation. An estimate that is not
// finite — a non-finite loss or time got into it — is unavailable too.
func estimateDerivative(o Observation) (float64, bool) {
	if o.ProbeK <= 0 || o.ProbeK >= o.K {
		return 0, false
	}
	if math.IsNaN(o.LossProbe) || math.IsNaN(o.LossCur) || math.IsNaN(o.LossPrev) {
		return 0, false
	}
	dCur := o.LossPrev - o.LossCur
	dProbe := o.LossPrev - o.LossProbe
	if dCur <= 0 || dProbe <= 0 {
		return 0, false
	}
	tauHat := o.ProbeRoundTime * dCur / dProbe
	der := (o.RoundTime - tauHat) / (o.K - o.ProbeK)
	return der, !math.IsNaN(der) && !math.IsInf(der, 0)
}
