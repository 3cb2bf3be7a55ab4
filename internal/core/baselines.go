package core

import (
	"math"
	"math/rand"
)

// ValueOGD is the Fig. 5 "value-based gradient (derivative) descent"
// baseline [36]: identical probing to Algorithm 2, but the update uses the
// raw estimated derivative instead of its sign:
//
//	k_{m+1} = P_K(k_m − δ_m·d̂_m).
//
// Because the per-unit-k derivative of the round time is tiny (order β/D),
// the update barely moves k — the behaviour the paper reports.
type ValueOGD struct {
	kmin, kmax float64
	b          float64
	k          float64
}

var _ Controller = (*ValueOGD)(nil)

// NewValueOGD constructs the value-based baseline on [kmin, kmax] with
// initial k1.
func NewValueOGD(kmin, kmax, k1 float64) *ValueOGD {
	return &ValueOGD{kmin: kmin, kmax: kmax, b: kmax - kmin, k: Project(k1, kmin, kmax)}
}

func (v *ValueOGD) Name() string { return "value-ogd" }

// K returns the current continuous k_m.
func (v *ValueOGD) K() float64 { return v.k }

func (v *ValueOGD) delta(m int) float64 {
	if m < 1 {
		m = 1
	}
	return v.b / math.Sqrt(2*float64(m))
}

func (v *ValueOGD) Decide(m int) Decision {
	// Like SignOGD, the probe may drop below kmin (it is hypothetical).
	probe := v.k - v.delta(m)/2
	if probe < 1 {
		probe = 1
	}
	if probe >= v.k {
		probe = 0
	}
	return Decision{K: v.k, ProbeK: probe}
}

func (v *ValueOGD) Observe(o Observation) {
	der, ok := estimateDerivative(o)
	if !ok {
		return
	}
	v.k = Project(v.k-v.delta(o.Round)*der, v.kmin, v.kmax)
}

// EXP3 is the non-stochastic multi-armed bandit baseline [38] with one arm
// per integer value of k in [kmin, kmax] (Fig. 5). When the range exceeds
// MaxArms the arm grid strides uniformly so the arm count stays bounded;
// the paper's setting (one arm per integer) is used whenever it fits.
//
// Rewards: the paper does not specify a reward mapping, so the natural one
// for time-to-loss minimization is used — loss decrease per unit time,
// normalized into [0, 1] by the running maximum.
type EXP3 struct {
	arms  []float64
	logW  []float64
	gamma float64
	rng   *rand.Rand

	lastArm int
	lastP   float64
	scale   float64 // running max of raw rewards for normalization
}

var _ Controller = (*EXP3)(nil)

// DefaultMaxArms bounds the EXP3 arm count (the arm grid strides above it).
const DefaultMaxArms = 8192

// NewEXP3 constructs the bandit over integer arms kmin…kmax with
// exploration rate γ (the standard tuning γ = min{1, √(K·lnK/((e−1)·M))}
// is applied when gamma <= 0, using horizon M).
func NewEXP3(kmin, kmax int, gamma float64, horizon int, rng *rand.Rand) *EXP3 {
	if kmax < kmin {
		kmax = kmin
	}
	count := kmax - kmin + 1
	stride := 1
	if count > DefaultMaxArms {
		stride = (count + DefaultMaxArms - 1) / DefaultMaxArms
		count = (kmax-kmin)/stride + 1
	}
	arms := make([]float64, count)
	for i := range arms {
		arms[i] = float64(kmin + i*stride)
	}
	if gamma <= 0 {
		k := float64(len(arms))
		m := float64(horizon)
		if m < 1 {
			m = 1
		}
		gamma = math.Min(1, math.Sqrt(k*math.Log(k)/((math.E-1)*m)))
	}
	return &EXP3{
		arms:  arms,
		logW:  make([]float64, len(arms)),
		gamma: gamma,
		rng:   rng,
	}
}

func (e *EXP3) Name() string { return "exp3" }

// Arms returns the arm count (after any striding).
func (e *EXP3) Arms() int { return len(e.arms) }

// probs returns the EXP3 sampling distribution
// p_a = (1−γ)·w_a/Σw + γ/K, computed from log-weights for stability.
func (e *EXP3) probs() []float64 {
	maxLW := e.logW[0]
	for _, lw := range e.logW[1:] {
		if lw > maxLW {
			maxLW = lw
		}
	}
	var sum float64
	w := make([]float64, len(e.logW))
	for i, lw := range e.logW {
		w[i] = math.Exp(lw - maxLW)
		sum += w[i]
	}
	k := float64(len(e.arms))
	for i := range w {
		w[i] = (1-e.gamma)*w[i]/sum + e.gamma/k
	}
	return w
}

func (e *EXP3) Decide(_ int) Decision {
	p := e.probs()
	r := e.rng.Float64()
	var cum float64
	arm := len(p) - 1
	for i, pi := range p {
		cum += pi
		if r < cum {
			arm = i
			break
		}
	}
	e.lastArm, e.lastP = arm, p[arm]
	return Decision{K: e.arms[arm]}
}

func (e *EXP3) Observe(o Observation) {
	raw, ok := rawReward(o)
	if !ok {
		return
	}
	if raw > e.scale {
		e.scale = raw
	}
	var r float64
	if e.scale > 0 {
		r = raw / e.scale
	}
	// Importance-weighted reward for the played arm.
	rHat := r / e.lastP
	e.logW[e.lastArm] += e.gamma * rHat / float64(len(e.arms))
}

// rawReward is the bandits' shared reward before normalization: the loss
// decrease per unit time. A reward that is not finite — a non-finite
// loss got into it — would poison the running scale for good, so it is
// reported unusable and the round is skipped.
func rawReward(o Observation) (float64, bool) {
	raw := 0.0
	if o.RoundTime > 0 {
		raw = math.Max(0, o.LossPrev-o.LossCur) / o.RoundTime
	}
	return raw, !math.IsNaN(raw) && !math.IsInf(raw, 0)
}

// ContinuousBandit is the one-point bandit gradient-descent baseline [37]:
// play k = x + δ·u with u ∈ {−1, +1}, estimate the gradient from the
// single observed cost as (c/δ)·u, and descend. Costs are the complement
// of EXP3's normalized reward, so they live in [0, 1].
type ContinuousBandit struct {
	kmin, kmax float64
	x          float64
	delta      float64 // exploration radius
	eta        float64 // step size
	rng        *rand.Rand

	lastU float64
	scale float64
}

var _ Controller = (*ContinuousBandit)(nil)

// NewContinuousBandit constructs the baseline on [kmin, kmax] with initial
// point x1. Exploration radius and step size follow the standard horizon
// tuning δ ∝ B·M^(−1/4), η = B·δ/√M when zero values are passed.
func NewContinuousBandit(kmin, kmax, x1 float64, horizon int, delta, eta float64, rng *rand.Rand) *ContinuousBandit {
	b := kmax - kmin
	m := float64(horizon)
	if m < 1 {
		m = 1
	}
	if delta <= 0 {
		delta = 0.25 * b * math.Pow(m, -0.25)
	}
	if delta > b/2 {
		delta = b / 2
	}
	if eta <= 0 {
		eta = b * delta / math.Sqrt(m)
	}
	return &ContinuousBandit{
		kmin:  kmin,
		kmax:  kmax,
		x:     Project(x1, kmin+delta, kmax-delta),
		delta: delta,
		eta:   eta,
		rng:   rng,
	}
}

func (c *ContinuousBandit) Name() string { return "continuous-bandit" }

// X returns the current center point.
func (c *ContinuousBandit) X() float64 { return c.x }

func (c *ContinuousBandit) Decide(_ int) Decision {
	u := 1.0
	if c.rng.Float64() < 0.5 {
		u = -1
	}
	c.lastU = u
	return Decision{K: Project(c.x+c.delta*u, c.kmin, c.kmax)}
}

func (c *ContinuousBandit) Observe(o Observation) {
	raw, ok := rawReward(o)
	if !ok {
		return
	}
	if raw > c.scale {
		c.scale = raw
	}
	reward := 0.0
	if c.scale > 0 {
		reward = raw / c.scale
	}
	cost := 1 - reward
	g := cost / c.delta * c.lastU
	c.x = Project(c.x-c.eta*g, c.kmin+c.delta, c.kmax-c.delta)
}
