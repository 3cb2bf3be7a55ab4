package fl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsparse/internal/core"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
)

// scripted plays one fixed decision every round and records what it is
// shown.
type scripted struct {
	dec  core.Decision
	seen []core.Observation
}

func (s *scripted) Name() string               { return "scripted" }
func (s *scripted) Decide(int) core.Decision   { return s.dec }
func (s *scripted) Observe(o core.Observation) { s.seen = append(s.seen, o) }

// serverUploads is n rank-ordered top-k uploads over dimension d, some
// of them shorter, as the participant step produces them.
func serverUploads(rng *rand.Rand, n, d, k int) []gs.ClientUpload {
	ups := make([]gs.ClientUpload, n)
	for i := range ups {
		dense := make([]float64, d)
		for j := range dense {
			dense[j] = rng.NormFloat64()
		}
		ups[i] = gs.ClientUpload{Pairs: sparse.TopK(dense, 1+rng.Intn(k)), Weight: 1 + 9*rng.Float64()}
	}
	return ups
}

// sameAgg reports whether two selections hold the same indices and the
// same value bits.
func sameAgg(a, b gs.Aggregate) bool {
	return slices.Equal(a.Indices, b.Indices) && sameBits(a.Values, b.Values)
}

// TestServerContract pins the server step at its one home: the rng order
// of a decision, which decisions draw nothing, how k′ is rounded, which
// decisions are refused, that the two selection paths agree on B, B′ and
// the grid, and what the controller is shown.
func TestServerContract(t *testing.T) {
	const d = 60
	for _, row := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"decide draws k, then the probe, then the mandate", func(t *testing.T) {
			const kCont, probeK = 20.5, 10.25
			srv := NewServer(gs.PeriodicK{}, &scripted{dec: core.Decision{K: kCont, ProbeK: probeK}}, rand.New(rand.NewSource(5)), d, 0)
			twin := rand.New(rand.NewSource(5))
			var ms gs.MandateScratch
			for m := 1; m <= 40; m++ {
				dec, err := srv.Decide(m)
				if err != nil {
					t.Fatal(err)
				}
				k := sparse.StochasticRound(kCont, twin)
				p := sparse.StochasticRound(probeK, twin)
				mand := gs.PeriodicK{}.MandatedIndicesInto(&ms, m, d, k, twin)
				if dec.Round != m || dec.KCont != kCont || dec.K != k || dec.ProbeK != p || !slices.Equal(dec.Mandated, mand) {
					t.Fatalf("round %d decided %+v, want k %d, k′ %d, mandate %v from the twin", m, dec, k, p, mand)
				}
			}
			if srv.rng.Int63() != twin.Int63() {
				t.Fatal("server rng left at a different position than its twin")
			}
		}},
		{"an integral fixed k with FAB draws nothing", func(t *testing.T) {
			rng, twin := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			// nil is the wire coordinator's server: it holds no rng at all.
			for _, r := range []*rand.Rand{nil, rng} {
				srv := NewServer(&gs.FABTopK{}, core.NewFixedK(7), r, d, 8)
				for m := 1; m <= 10; m++ {
					if dec, err := srv.Decide(m); err != nil || dec.K != 7 || dec.ProbeK != 0 || dec.Mandated != nil {
						t.Fatalf("round %d decided %+v (err %v), want k 7, no probe, no mandate", m, dec, err)
					}
				}
			}
			if rng.Int63() != twin.Int63() {
				t.Fatal("a fixed integral k with FAB drew from the server rng")
			}
		}},
		{"the probe rounds strictly inside [1, k)", func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			for _, tt := range []struct {
				name   string
				probeK float64
				k      int
				want   func(int) bool
			}{
				{"no probe requested", 0, 50, func(p int) bool { return p == 0 }},
				{"negative probe", -3, 50, func(p int) bool { return p == 0 }},
				{"normal probe", 30, 50, func(p int) bool { return p == 30 }},
				{"probe above k clamps below", 80, 50, func(p int) bool { return p == 49 }},
				{"probe under 1 disabled", 0.2, 50, func(p int) bool { return p == 0 || p == 1 }},
				{"k=1 leaves no room", 0.9, 1, func(p int) bool { return p == 0 }},
			} {
				srv := NewServer(&gs.FABTopK{}, &scripted{dec: core.Decision{K: float64(tt.k), ProbeK: tt.probeK}}, rng, d, 0)
				for trial := 0; trial < 10; trial++ {
					dec, err := srv.Decide(trial + 1)
					if err != nil || dec.K != tt.k || !tt.want(dec.ProbeK) {
						t.Fatalf("%s: decided k %d, k′ %d (err %v)", tt.name, dec.K, dec.ProbeK, err)
					}
				}
			}
		}},
		{"a non-finite k or probe fails by name before any draw", func(t *testing.T) {
			nan, inf := math.NaN(), math.Inf(1)
			for _, tt := range []struct {
				dec  core.Decision
				want string
			}{
				{core.Decision{K: nan}, "fl: round 7: controller scripted decided k = NaN"},
				{core.Decision{K: -inf, ProbeK: 3}, "fl: round 7: controller scripted decided k = -Inf"},
				{core.Decision{K: 20, ProbeK: nan}, "fl: round 7: controller scripted decided k′ = NaN"},
				{core.Decision{K: 20, ProbeK: inf}, "fl: round 7: controller scripted decided k′ = +Inf"},
			} {
				rng, twin := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
				_, err := NewServer(gs.PeriodicK{}, &scripted{dec: tt.dec}, rng, d, 0).Decide(7)
				if err == nil || err.Error() != tt.want {
					t.Fatalf("decision %+v: err %v, want %q", tt.dec, err, tt.want)
				}
				if rng.Int63() != twin.Int63() {
					t.Fatalf("decision %+v: the refusal drew from the server rng", tt.dec)
				}
			}
			// The engine stops on it rather than training on at k = 1.
			cfg := smallConfig()
			cfg.Controller = &scripted{dec: core.Decision{K: nan}}
			if _, err := Run(cfg); err == nil || err.Error() != "fl: round 1: controller scripted decided k = NaN" {
				t.Fatalf("Run with a NaN k: err %v", err)
			}
		}},
		{"aggregate and select agree on B and the grid", func(t *testing.T) {
			const n, k = 7, 12
			rng := rand.New(rand.NewSource(11))
			for _, bits := range []int{0, 8, 64} {
				routed := NewServer(&gs.FABTopK{}, core.NewFixedK(k), nil, d, bits)
				direct := NewServer(&gs.FABTopK{}, core.NewFixedK(k), nil, d, bits)
				reduce := gs.NewAggScratch(0)
				for round, probeK := range []int{0, k / 2, 0, k / 3} {
					ups := serverUploads(rng, n, d, k)
					// One shard over [0, d): its histogram, grown to the
					// longest upload, is the merged one.
					red := gs.RangeReduceInto(reduce, ups, nil, 0, d)
					hist := gs.RankHist(nil, red)
					for _, u := range ups {
						for len(hist) < u.Pairs.Len() {
							hist = append(hist, 0)
						}
					}
					fill := func(kappa int) ([]gs.FillCand, float64, error) {
						cands, unionMax := gs.ServeFill(nil, ups, nil, red, kappa)
						return cands, unionMax, nil
					}
					main, probe, scale := routed.Aggregate(ups, k, probeK)
					cut, sScale, err := direct.Select(hist, fill, k)
					if err != nil {
						t.Fatal(err)
					}
					idx, val, err := gs.SealSlice(nil, nil, cut.Kappa, cut.Fill, red, 0, d)
					if err != nil {
						t.Fatal(err)
					}
					if bits > 0 {
						sparse.QuantizeToScale(val, bits, sScale)
					}
					if !slices.Equal(idx, main.Indices) || !sameBits(val, main.Values) || cut.Len() != len(idx) ||
						math.Float64bits(scale) != math.Float64bits(sScale) {
						t.Fatalf("bits=%d round %d: Aggregate (%v, %v) on %v and Select's cut %+v (%v, %v) on %v differ",
							bits, round, main.Indices, main.Values, scale, cut, idx, val, sScale)
					}
					if (bits > 0 && bits < 64) != (scale > 0) || probeK > 0 && len(probe.Indices) == 0 {
						t.Fatalf("bits=%d round %d: scale %v, |B′| %d at k′ %d", bits, round, scale, len(probe.Indices), probeK)
					}
					for _, sel := range []gs.Aggregate{main, probe} {
						snapped := slices.Clone(sel.Values)
						if bits > 0 {
							sparse.QuantizeInPlace(snapped, bits)
						}
						if !sameBits(snapped, sel.Values) {
							t.Fatalf("bits=%d round %d: a selection is off its %d-bit grid", bits, round, bits)
						}
					}
				}
			}
			// The plane's selection is FAB's; another strategy is refused.
			if _, _, err := NewServer(gs.FUBTopK{}, core.NewFixedK(k), nil, d, 0).Select(nil, nil, k); err == nil ||
				err.Error() != "fl: strategy fub-top-k has no rank-histogram selection" {
				t.Fatalf("FUB on the histogram plane: %v", err)
			}
		}},
		{"selectB's map is B, and Sum leaves it alone and returns what Aggregate does", func(t *testing.T) {
			const n, k = 6, 10
			rng := rand.New(rand.NewSource(13))
			for _, strat := range []gs.Strategy{&gs.FABTopK{}, gs.FUBTopK{}, gs.UniTopK{}, gs.PeriodicK{}, gs.SendAll{}} {
				for _, bits := range []int{0, 8} {
					whole := NewServer(strat, core.NewFixedK(k), nil, d, bits)
					halves := NewServer(strat, core.NewFixedK(k), nil, d, bits)
					for round, probeK := range []int{k / 2, 0, k / 3, 0} {
						ups := serverUploads(rng, n, d, k)
						main, probe, scale := whole.Aggregate(ups, k, probeK)
						inB := halves.SelectB(ups, k, probeK)
						before := slices.Clone(inB)
						hMain, hProbe, hScale := halves.Sum(ups)
						if !slices.Equal(before, inB) {
							t.Fatalf("%s bits=%d round %d: Sum wrote the membership map", strat.Name(), bits, round)
						}
						for j, m := range inB {
							if m&gs.InB != 0 != slices.Contains(main.Indices, j) {
								t.Fatalf("%s bits=%d round %d: map says %d ∈ B is %v", strat.Name(), bits, round, j, m&gs.InB != 0)
							}
						}
						if !sameAgg(main, hMain) || !sameAgg(probe, hProbe) || math.Float64bits(scale) != math.Float64bits(hScale) ||
							!slices.Equal(main.PerClientUsed, hMain.PerClientUsed) || !slices.Equal(probe.PerClientUsed, hProbe.PerClientUsed) {
							t.Fatalf("%s bits=%d round %d: SelectB+Sum differs from Aggregate", strat.Name(), bits, round)
						}
					}
				}
			}
		}},
		{"observe shows the decision and the participant-order means", func(t *testing.T) {
			ctrl := &scripted{}
			srv := NewServer(&gs.FABTopK{}, ctrl, nil, d, 0)
			prev, cur, probe := []float64{0.9, 1.3, 0.1}, []float64{0.8, 1.1, 0.05}, []float64{0.85, 1.2, 0.07}
			srv.Observe(Decision{Round: 3, KCont: 20.5, K: 21, ProbeK: 10}, 0.7, 2, 1.5, prev, cur, probe)
			srv.Observe(Decision{Round: 4, KCont: 20.5, K: 20}, 0.6, 2, 1.5, prev, cur, probe)
			mean := func(xs []float64) float64 { return ((0 + xs[0]) + xs[1] + xs[2]) / 3 }
			want := []core.Observation{
				{Round: 3, K: 20.5, ProbeK: 10, RoundTime: 2, ProbeRoundTime: 1.5, GlobalLoss: 0.7,
					LossPrev: mean(prev), LossCur: mean(cur), LossProbe: mean(probe)},
				{Round: 4, K: 20.5, RoundTime: 2, GlobalLoss: 0.6, LossPrev: mean(prev), LossCur: mean(cur), LossProbe: math.NaN()},
			}
			for i, o := range ctrl.seen {
				if fmt.Sprint(o) != fmt.Sprint(want[i]) {
					t.Fatalf("observation %d = %+v, want %+v", i, o, want[i])
				}
			}
			if len(ctrl.seen) != len(want) {
				t.Fatalf("%d observations, want %d", len(ctrl.seen), len(want))
			}
		}},
	} {
		t.Run(row.name, row.check)
	}
}
