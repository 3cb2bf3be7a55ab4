package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProjectProperty(t *testing.T) {
	f := func(k, a, b float64) bool {
		if math.IsNaN(k) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		p := Project(k, lo, hi)
		if p < lo || p > hi {
			return false
		}
		// Closest point: no interval point is strictly closer.
		return math.Abs(p-k) <= math.Abs(lo-k) && math.Abs(p-k) <= math.Abs(hi-k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSign(t *testing.T) {
	tests := []struct {
		give float64
		want int
	}{
		{3.2, 1}, {-0.1, -1}, {0, 0}, {math.Inf(1), 1}, {math.Inf(-1), -1},
	}
	for _, tt := range tests {
		if got := Sign(tt.give); got != tt.want {
			t.Errorf("Sign(%v) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestFixedK(t *testing.T) {
	c := NewFixedK(123)
	for m := 1; m <= 5; m++ {
		d := c.Decide(m)
		if d.K != 123 || d.ProbeK != 0 {
			t.Fatalf("FixedK decision = %+v", d)
		}
		c.Observe(Observation{Round: m})
	}
}

func TestLossBasedSignDirections(t *testing.T) {
	base := Observation{
		Round: 3, K: 100, ProbeK: 90,
		RoundTime: 2.0, ProbeRoundTime: 1.8,
		LossPrev: 1.0, LossCur: 0.8, LossProbe: 0.9,
	}
	// τ̂ = 1.8·(0.2/0.1) = 3.6 > τ = 2.0 → derivative (2−3.6)/10 < 0:
	// smaller k needs more time per loss, so the sign says increase k.
	sign, ok := LossBasedSign{}.Sign(base)
	if !ok || sign != -1 {
		t.Fatalf("sign = %d ok=%v, want -1 true", sign, ok)
	}
	// Probe as effective as the full round but cheaper → positive
	// derivative: decrease k.
	o := base
	o.LossProbe = 0.8
	o.ProbeRoundTime = 1.5
	sign, ok = LossBasedSign{}.Sign(o)
	if !ok || sign != 1 {
		t.Fatalf("sign = %d ok=%v, want +1 true", sign, ok)
	}
}

func TestLossBasedSignUnavailableCases(t *testing.T) {
	good := Observation{
		K: 100, ProbeK: 90, RoundTime: 2, ProbeRoundTime: 1.8,
		LossPrev: 1, LossCur: 0.8, LossProbe: 0.9,
	}
	if _, ok := (LossBasedSign{}).Sign(good); !ok {
		t.Fatal("baseline observation should be usable")
	}
	cases := map[string]func(o *Observation){
		"no probe":            func(o *Observation) { o.ProbeK = 0 },
		"probe >= k":          func(o *Observation) { o.ProbeK = 100 },
		"loss increased":      func(o *Observation) { o.LossCur = 1.2 },
		"probe loss increase": func(o *Observation) { o.LossProbe = 1.3 },
		"nan probe loss":      func(o *Observation) { o.LossProbe = math.NaN() },
		"loss unchanged":      func(o *Observation) { o.LossCur = 1.0 },
	}
	for name, mutate := range cases {
		o := good
		mutate(&o)
		if _, ok := (LossBasedSign{}).Sign(o); ok {
			t.Errorf("%s: expected unavailable estimate", name)
		}
	}
}

func TestSignOGDDeltaSchedule(t *testing.T) {
	s := NewSignOGD(10, 110, 60, nil)
	// δ_m = B/√(2m) with B = 100.
	for _, tt := range []struct {
		m    int
		want float64
	}{
		{1, 100 / math.Sqrt(2)},
		{2, 50},
		{8, 25},
	} {
		if got := s.delta(tt.m); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("delta(%d) = %v, want %v", tt.m, got, tt.want)
		}
	}
}

func TestSignOGDMovesOppositeSign(t *testing.T) {
	env := NewSyntheticCostEnv(50, 1)
	s := NewSignOGD(10, 110, 100, ExactSign{env})
	d1 := s.Decide(1)
	if d1.K != 100 {
		t.Fatalf("k1 = %v", d1.K)
	}
	// k=100 > k*=50: exact sign +1, so k must decrease by δ_1.
	s.Observe(Observation{Round: 1, K: 100, ProbeK: d1.ProbeK})
	want := Project(100-100/math.Sqrt(2), 10, 110)
	if math.Abs(s.K()-want) > 1e-9 {
		t.Fatalf("k2 = %v, want %v", s.K(), want)
	}
}

func TestSignOGDUnavailableKeepsK(t *testing.T) {
	s := NewSignOGD(10, 110, 60, nil) // LossBasedSign with NaN losses → unavailable
	s.Observe(Observation{Round: 1, K: 60, ProbeK: 50, LossPrev: math.NaN()})
	if s.K() != 60 {
		t.Fatalf("k changed to %v on unavailable sign", s.K())
	}
	if up, un := s.Stats(); up != 0 || un != 1 {
		t.Fatalf("stats = %d/%d, want 0/1", up, un)
	}
}

func TestSignOGDProbeBelowK(t *testing.T) {
	s := NewSignOGD(10, 110, 60, nil)
	for m := 1; m < 30; m++ {
		d := s.Decide(m)
		if d.ProbeK != 0 && d.ProbeK >= d.K {
			t.Fatalf("m=%d: probe %v >= k %v", m, d.ProbeK, d.K)
		}
	}
	// k pinned at kmin: the probe may go below kmin (it is hypothetical)
	// but never below 1, and stays strictly under k.
	pinned := NewSignOGD(10, 110, 10, nil)
	if d := pinned.Decide(1); d.ProbeK != 1 {
		t.Fatalf("pinned probe = %v, want 1 (clamped at the sparsity floor)", d.ProbeK)
	}
	// k at the absolute floor of 1: no informative probe exists.
	floor := NewSignOGD(1, 110, 1, nil)
	if d := floor.Decide(1); d.ProbeK != 0 {
		t.Fatalf("floor probe = %v, want 0", d.ProbeK)
	}
}

func TestSignOGDConvergesToKStar(t *testing.T) {
	env := NewSyntheticCostEnv(300, 2)
	s := NewSignOGD(10, 1010, 1000, ExactSign{env})
	res := RunSynthetic(s, env, 3000, 1000, 1)
	if math.Abs(s.K()-300) > 60 {
		t.Fatalf("after 3000 rounds k = %v, want near 300", s.K())
	}
	if res.Regret > res.Bound {
		t.Fatalf("regret %v exceeds Theorem 1 bound %v", res.Regret, res.Bound)
	}
}

func TestTheorem1RegretBound(t *testing.T) {
	// Exact signs: R(M) ≤ G·B·√(2M) for every horizon.
	for _, m := range []int{10, 100, 1000, 5000} {
		env := NewSyntheticCostEnv(200, int64(m))
		s := NewSignOGD(1, 1001, 1001, ExactSign{env})
		res := RunSynthetic(s, env, m, 1000, 1)
		if res.Regret > res.Bound {
			t.Fatalf("M=%d: regret %v > bound %v", m, res.Regret, res.Bound)
		}
	}
}

func TestRegretSublinear(t *testing.T) {
	// Average regret R(M)/M must shrink as M grows (Section IV-A3).
	avg := func(m int) float64 {
		env := NewSyntheticCostEnv(200, 7)
		s := NewSignOGD(1, 1001, 1001, ExactSign{env})
		res := RunSynthetic(s, env, m, 1000, 1)
		return res.Regret / float64(m)
	}
	a100, a10000 := avg(100), avg(10000)
	if a10000 >= a100/3 {
		t.Fatalf("average regret not sublinear: %v (M=100) vs %v (M=10000)", a100, a10000)
	}
}

func TestTheorem2NoisySignRegretBound(t *testing.T) {
	// Signs flipped with probability p = 0.2 → H = 1/(1−2p) = 5/3. The
	// expected regret obeys G·H·B·√(2M); average over trials to tame the
	// variance of a single run.
	const (
		m      = 2000
		trials = 8
		p      = 0.2
	)
	var total, bound float64
	for trial := 0; trial < trials; trial++ {
		env := NewSyntheticCostEnv(200, int64(trial+100))
		noisy := NoisySign{
			Inner:    ExactSign{env},
			FlipProb: p,
			Rng:      newTestRand(int64(trial + 500)),
		}
		s := NewSignOGD(1, 1001, 1001, noisy)
		res := RunSynthetic(s, env, m, 1000, noisy.H())
		total += res.Regret
		bound = res.Bound
	}
	if mean := total / trials; mean > bound {
		t.Fatalf("mean noisy regret %v > Theorem 2 bound %v", mean, bound)
	}
}

func TestAdaptiveSignOGDShrinksInterval(t *testing.T) {
	env := NewSyntheticCostEnv(100, 3)
	s := NewAdaptiveSignOGD(10, 1010, 1000, 1.5, 20, ExactSign{env})
	RunSynthetic(s, env, 2000, 1000, 1)
	if s.Resets() == 0 {
		t.Fatal("Algorithm 3 never restarted on a stable problem")
	}
	kmin, kmax, b := s.Interval()
	if b >= 1000 {
		t.Fatalf("interval did not shrink: B = %v", b)
	}
	if kmin > 100 || kmax < 100 {
		t.Fatalf("shrunken interval [%v, %v] excludes k* = 100", kmin, kmax)
	}
}

func TestAdaptiveSignOGDRestartRule(t *testing.T) {
	// Every restart must satisfy B′ < (√2−1)·B_before.
	env := NewSyntheticCostEnv(100, 4)
	s := NewAdaptiveSignOGD(10, 1010, 1000, 1.5, 20, ExactSign{env})
	prevB := 1000.0
	for m := 1; m <= 3000; m++ {
		dec := s.Decide(m)
		cost := env.Tau(m, dec.K)
		s.Observe(Observation{Round: m, K: dec.K, ProbeK: dec.ProbeK, RoundTime: cost})
		_, _, b := s.Interval()
		if b != prevB {
			if b >= (math.Sqrt2-1)*prevB {
				t.Fatalf("restart to B=%v violates B′ < (√2−1)·%v", b, prevB)
			}
			prevB = b
		}
	}
}

func TestAdaptiveSignOGDStaysInAbsoluteBounds(t *testing.T) {
	env := NewSyntheticCostEnv(100, 5)
	s := NewAdaptiveSignOGD(50, 500, 400, 1.5, 10, ExactSign{env})
	res := RunSynthetic(s, env, 1500, 450, 1)
	for i, k := range res.Ks {
		if k < 50 || k > 500 {
			t.Fatalf("round %d: k = %v escaped [50, 500]", i+1, k)
		}
	}
}

func TestAdaptiveBeatsPlainOnSmallKStar(t *testing.T) {
	// The Section IV-D motivation: when k* is near kmin, shrinking the
	// interval reduces the oscillation cost of the large early steps.
	run := func(ctrl Controller) float64 {
		env := NewSyntheticCostEnv(30, 6)
		return RunSynthetic(ctrl, env, 4000, 1000, 1).Regret
	}
	envA := NewSyntheticCostEnv(30, 6)
	plain := NewSignOGD(10, 1010, 1000, ExactSign{envA})
	envB := NewSyntheticCostEnv(30, 6)
	adaptive := NewAdaptiveSignOGD(10, 1010, 1000, 1.5, 20, ExactSign{envB})
	// Same amp sequence (same seed) for a paired comparison.
	rPlain := run(plain)
	rAdaptive := run(adaptive)
	if rAdaptive >= rPlain {
		t.Fatalf("Algorithm 3 regret %v not below Algorithm 2 regret %v", rAdaptive, rPlain)
	}
}

func TestValueOGDUsesRawDerivative(t *testing.T) {
	v := NewValueOGD(10, 1010, 500)
	d := v.Decide(1)
	if d.ProbeK <= 0 || d.ProbeK >= d.K {
		t.Fatalf("probe = %v", d.ProbeK)
	}
	// Large positive derivative → big move down, scaled by δ₁·d̂.
	v.Observe(Observation{
		Round: 1, K: 500, ProbeK: d.ProbeK,
		RoundTime: 10, ProbeRoundTime: 1,
		LossPrev: 1, LossCur: 0.5, LossProbe: 0.5,
	})
	// d̂ = (10 − 1·(0.5/0.5)) / (500 − probe) > 0 → k decreases.
	if v.K() >= 500 {
		t.Fatalf("value OGD did not decrease k: %v", v.K())
	}
	// Unavailable estimate keeps k.
	before := v.K()
	v.Observe(Observation{Round: 2, K: before, ProbeK: 0})
	if v.K() != before {
		t.Fatal("value OGD moved on unavailable estimate")
	}
}

func TestEXP3ProbsSumToOne(t *testing.T) {
	e := NewEXP3(5, 104, 0.1, 1000, newTestRand(1))
	if e.Arms() != 100 {
		t.Fatalf("arms = %d, want 100", e.Arms())
	}
	p := e.probs()
	var sum float64
	for _, pi := range p {
		if pi <= 0 {
			t.Fatal("non-positive arm probability")
		}
		sum += pi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestEXP3StridesLargeRanges(t *testing.T) {
	e := NewEXP3(1, 100000, 0.1, 1000, newTestRand(2))
	if e.Arms() > DefaultMaxArms {
		t.Fatalf("arm count %d exceeds cap %d", e.Arms(), DefaultMaxArms)
	}
	if e.Arms() < DefaultMaxArms/4 {
		t.Fatalf("arm count %d suspiciously small", e.Arms())
	}
}

func TestEXP3DecisionsInRange(t *testing.T) {
	e := NewEXP3(10, 60, 0.2, 500, newTestRand(3))
	for m := 1; m <= 200; m++ {
		d := e.Decide(m)
		if d.K < 10 || d.K > 60 {
			t.Fatalf("EXP3 played k = %v outside [10, 60]", d.K)
		}
		e.Observe(Observation{Round: m, K: d.K, RoundTime: 1, LossPrev: 1, LossCur: 0.9})
	}
}

func TestEXP3LearnsBestArm(t *testing.T) {
	// Reward 1 for arms below 20, ~0 otherwise: the empirical play
	// distribution must tilt toward the good arms.
	e := NewEXP3(1, 40, 0.1, 4000, newTestRand(4))
	goodPlays := 0
	const rounds = 4000
	for m := 1; m <= rounds; m++ {
		d := e.Decide(m)
		lossCur := 0.999 // near-zero reward
		if d.K < 20 {
			lossCur = 0.5 // high reward
			goodPlays++
		}
		e.Observe(Observation{Round: m, K: d.K, RoundTime: 1, LossPrev: 1, LossCur: lossCur})
	}
	frac := float64(goodPlays) / rounds
	// 19 of 40 arms are good (uniform would give 0.475).
	if frac < 0.6 {
		t.Fatalf("EXP3 played good arms only %.2f of the time", frac)
	}
}

func TestContinuousBanditStaysInRange(t *testing.T) {
	c := NewContinuousBandit(10, 1010, 500, 2000, 0, 0, newTestRand(5))
	for m := 1; m <= 500; m++ {
		d := c.Decide(m)
		if d.K < 10 || d.K > 1010 {
			t.Fatalf("bandit played k = %v outside range", d.K)
		}
		c.Observe(Observation{Round: m, K: d.K, RoundTime: 1 + d.K/100, LossPrev: 1, LossCur: 0.9})
	}
}

func TestContinuousBanditDescendsCost(t *testing.T) {
	// Cost grows with k (communication-dominated): x should drift down.
	c := NewContinuousBandit(10, 1010, 900, 4000, 0, 0, newTestRand(6))
	for m := 1; m <= 4000; m++ {
		d := c.Decide(m)
		// Loss decrease shrinks as k grows past 100 → reward higher for
		// small k.
		reward := 1 / (1 + d.K/100)
		c.Observe(Observation{Round: m, K: d.K, RoundTime: 1, LossPrev: 1, LossCur: 1 - reward})
	}
	if c.X() >= 900 {
		t.Fatalf("bandit center never descended: x = %v", c.X())
	}
}

func TestNoisySignPassesUnavailable(t *testing.T) {
	ns := NoisySign{Inner: LossBasedSign{}, FlipProb: 0.5, Rng: newTestRand(7)}
	if _, ok := ns.Sign(Observation{ProbeK: 0, K: 10}); ok {
		t.Fatal("NoisySign fabricated a sign from an unavailable estimate")
	}
	if h := (NoisySign{FlipProb: 0.25}).H(); math.Abs(h-2) > 1e-12 {
		t.Fatalf("H(0.25) = %v, want 2", h)
	}
}

// TestControllerEdgeObservations is Observe's edge table: every
// controller, fed one round whose losses or probe time are NaN or ±Inf,
// must go on deciding a finite k inside its range and a probe k′ that is
// 0 or inside [1, k) — the engine rounds both, and a non-finite decision
// fails the run. The −0 and subnormal-difference rows are finite
// controls. A derivative estimate built from any row is unavailable or
// finite: a NaN sign must not count as an observed round.
func TestControllerEdgeObservations(t *testing.T) {
	nan, inf, tiny := math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	rows := []struct {
		name string
		edit func(o *Observation)
	}{
		{"LossPrev=NaN", func(o *Observation) { o.LossPrev = nan }},
		{"LossPrev=+Inf", func(o *Observation) { o.LossPrev = inf }},
		{"LossPrev=-Inf", func(o *Observation) { o.LossPrev = -inf }},
		{"LossCur=NaN", func(o *Observation) { o.LossCur = nan }},
		{"LossCur=+Inf", func(o *Observation) { o.LossCur = inf }},
		{"LossCur=-Inf", func(o *Observation) { o.LossCur = -inf }},
		{"LossProbe=NaN", func(o *Observation) { o.LossProbe = nan }},
		{"LossProbe=+Inf", func(o *Observation) { o.LossProbe = inf }},
		{"LossProbe=-Inf", func(o *Observation) { o.LossProbe = -inf }},
		{"ProbeRoundTime=+Inf", func(o *Observation) { o.ProbeRoundTime = inf }},
		{"LossCur=-0", func(o *Observation) { o.LossCur = negZero }},
		{"ProbeRoundTime=-0", func(o *Observation) { o.ProbeRoundTime = negZero }},
		{"subnormal loss differences", func(o *Observation) { o.LossPrev, o.LossCur, o.LossProbe = 3*tiny, 2*tiny, tiny }},
	}
	ctrls := []struct {
		name   string
		make   func() Controller
		lo, hi float64
	}{
		{"fixed-k", func() Controller { return NewFixedK(100) }, 100, 100},
		{"threshold-k", func() Controller { return &ThresholdK{Before: 500, After: 50, Threshold: 0.5} }, 50, 500},
		{"alg2", func() Controller { return NewSignOGD(10, 1000, 500, nil) }, 10, 1000},
		{"alg3", func() Controller { return NewAdaptiveSignOGD(10, 1000, 1000, 1.5, 2, nil) }, 10, 1000},
		{"value-ogd", func() Controller { return NewValueOGD(10, 1000, 500) }, 10, 1000},
		{"exp3", func() Controller { return NewEXP3(10, 1000, 0.1, 100, newTestRand(7)) }, 10, 1000},
		{"bandit", func() Controller { return NewContinuousBandit(10, 1000, 500, 100, 0, 0, newTestRand(8)) }, 10, 1000},
	}
	observe := func(m int, d Decision, edit func(*Observation)) Observation {
		o := Observation{Round: m, K: d.K, ProbeK: d.ProbeK, RoundTime: 2, ProbeRoundTime: 1.8,
			LossPrev: 1, LossCur: 0.8, LossProbe: 0.9, GlobalLoss: 1}
		if edit != nil {
			edit(&o)
		}
		return o
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if der, ok := estimateDerivative(observe(3, Decision{K: 100, ProbeK: 90}, row.edit)); ok && (math.IsNaN(der) || math.IsInf(der, 0)) {
				t.Errorf("derivative estimate %v reported available", der)
			}
			for _, ctrl := range ctrls {
				c := ctrl.make()
				// A finite round first, so the bandits hold a reward scale.
				c.Observe(observe(1, c.Decide(1), nil))
				c.Observe(observe(2, c.Decide(2), row.edit))
				for m := 3; m <= 6; m++ {
					d := c.Decide(m)
					if !(d.K >= ctrl.lo && d.K <= ctrl.hi) || !(d.ProbeK == 0 || d.ProbeK >= 1 && d.ProbeK < d.K) {
						t.Fatalf("%s: round %d decided k = %v, k′ = %v; want k in [%v, %v], k′ 0 or in [1, k)",
							ctrl.name, m, d.K, d.ProbeK, ctrl.lo, ctrl.hi)
					}
					if e, ok := c.(*EXP3); ok {
						for arm, p := range e.probs() {
							if !(p > 0 && p <= 1) {
								t.Fatalf("%s: round %d arm %d has probability %v", ctrl.name, m, arm, p)
							}
						}
					}
					c.Observe(observe(m, d, nil))
				}
			}
		})
	}
}
