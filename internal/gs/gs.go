// Package gs implements the gradient-sparsification strategies evaluated in
// the paper: the proposed fairness-aware bidirectional top-k (FAB-top-k,
// Algorithm 1's server-side selection) and the comparison methods from
// Section V-A — fairness-unaware bidirectional top-k (FUB-top-k),
// unidirectional top-k, periodic-k (random), and always-send-all. (The
// FedAvg comparison aggregates weights rather than gradients and lives in
// the fl package as a separate training mode.)
//
// A strategy sees one round of client uploads — each client's top-k
// accumulated-gradient elements as index/value pairs, with the client's
// dataset size C_i as its aggregation weight — and produces the downlink
// selection: the index set J and aggregated values
//
//	b_j = (1/C) Σ_i C_i·a_ij·1[j ∈ J_i]   (Algorithm 1, line 10).
//
// Every built-in strategy offers two aggregation entry points over raw
// uploads with bit-identical results: Aggregate (the Strategy interface,
// for one-shot callers: AggregateInto over a fresh scratch) and
// AggregateInto (the ScratchAggregator interface: allocation-free with a
// warm caller-owned AggScratch, one-pass main + probe aggregation — see
// scratch.go) — plus SelectDirect (DirectSelector, direct.go), the same
// selection over shard-reduced facts for a coordinator that holds no
// uploads. The original map-based aggregation lives on in
// reference_test.go as the oracle every entry point is held against.
package gs

import (
	"math/rand"
	"sort"

	"fedsparse/internal/sparse"
)

// ClientUpload is one client's uplink payload for a round (Algorithm 1,
// line 6): its top-k accumulated-gradient pairs in rank order (|value|
// descending), plus its aggregation weight C_i.
type ClientUpload struct {
	Pairs  sparse.Vec
	Weight float64
}

// Aggregate is the server's downlink selection for a round.
type Aggregate struct {
	// Indices is J, sorted ascending. For bidirectional strategies
	// |J| ≤ k; for unidirectional top-k it may reach k·N.
	Indices []int
	// Values holds b_j for each j in Indices.
	Values []float64
	// PerClientUsed[i] = |J ∩ J_i|: how many of client i's uploaded
	// elements made it into the global sparse gradient (the fairness
	// metric of Fig. 4 right).
	PerClientUsed []int
}

// Strategy is one gradient-sparsification method.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// MandatedIndices returns a server-chosen uplink index set that every
	// client must report this round (periodic-k, send-all), or nil when
	// clients select their own top-k elements.
	MandatedIndices(round, d, k int, rng *rand.Rand) []int
	// Dense reports whether payloads are full dense vectors (no index
	// transmission), which the cost model charges at 1 unit per element
	// instead of 2.
	Dense() bool
	// Aggregate computes the downlink selection from the round's uploads.
	Aggregate(uploads []ClientUpload, k int) Aggregate
}

// Stateful is implemented by strategies that carry mutable state across
// rounds and therefore need snapshotting in durable (WAL-backed) runs.
// None of the built-in strategies implement it: their only cross-round
// inputs are the round number and the engine rng (whose stream position
// the snapshot already records), so a reconstructed strategy replays
// bit-identically with no state of its own. The durable engine snapshots
// an empty state vector for such strategies and restores through this
// interface when a custom strategy provides it.
type Stateful interface {
	Strategy
	// StateSave exports the mutable cross-round state.
	StateSave() []float64
	// StateRestore imports a vector previously returned by StateSave.
	StateRestore(state []float64) error
}

// totalWeight returns C = Σ C_i.
func totalWeight(uploads []ClientUpload) float64 {
	var c float64
	for _, u := range uploads {
		c += u.Weight
	}
	return c
}

// FABTopK is the paper's fairness-aware bidirectional top-k strategy. The
// downlink carries exactly min(k, distinct-uploaded) elements chosen so
// that every client contributes at least ⌊k/N⌋ of them: a rank cutoff κ is
// found with |∪_i J_i^κ| ≤ k < |∪_i J_i^κ+1|, the union at κ is taken, and
// the remainder is filled with the largest-|value| candidates from rank
// κ+1.
type FABTopK struct{}

var _ Strategy = (*FABTopK)(nil)
var _ ScratchAggregator = (*FABTopK)(nil)

func (s *FABTopK) Name() string { return "fab-top-k" }

func (s *FABTopK) MandatedIndices(_, _, _ int, _ *rand.Rand) []int { return nil }
func (s *FABTopK) Dense() bool                                     { return false }

func (s *FABTopK) Aggregate(uploads []ClientUpload, k int) Aggregate {
	main, _ := s.AggregateInto(NewAggScratch(0), uploads, k, 0)
	return main
}

// FUBTopK is the fairness-unaware bidirectional top-k of [28]/[31]: the
// server aggregates every uploaded pair and keeps the k indices with the
// largest aggregated |b_j|, with no per-client guarantee — clients whose
// updates never rank can be excluded entirely (Fig. 4 right).
type FUBTopK struct{}

var _ Strategy = (*FUBTopK)(nil)
var _ ScratchAggregator = (*FUBTopK)(nil)

func (FUBTopK) Name() string                                    { return "fub-top-k" }
func (FUBTopK) MandatedIndices(_, _, _ int, _ *rand.Rand) []int { return nil }
func (FUBTopK) Dense() bool                                     { return false }

func (s FUBTopK) Aggregate(uploads []ClientUpload, k int) Aggregate {
	main, _ := s.AggregateInto(NewAggScratch(0), uploads, k, 0)
	return main
}

// UniTopK is unidirectional top-k [22]: every uploaded index is aggregated
// and broadcast, so the downlink can carry up to k·N elements.
type UniTopK struct{}

var _ Strategy = (*UniTopK)(nil)
var _ ScratchAggregator = (*UniTopK)(nil)

func (UniTopK) Name() string                                    { return "uni-top-k" }
func (UniTopK) MandatedIndices(_, _, _ int, _ *rand.Rand) []int { return nil }
func (UniTopK) Dense() bool                                     { return false }

func (s UniTopK) Aggregate(uploads []ClientUpload, k int) Aggregate {
	main, _ := s.AggregateInto(NewAggScratch(0), uploads, k, 0)
	return main
}

// PeriodicK is random sparsification [8]/[30]: the server draws k random
// coordinates each round; every client reports exactly those, so over
// enough rounds every coordinate is refreshed.
type PeriodicK struct{}

var _ Strategy = (*PeriodicK)(nil)
var _ ScratchAggregator = (*PeriodicK)(nil)

func (PeriodicK) Name() string { return "periodic-k" }
func (PeriodicK) Dense() bool  { return false }

func (PeriodicK) MandatedIndices(_, d, k int, rng *rand.Rand) []int {
	if k >= d {
		return allIndices(d)
	}
	// Partial Fisher–Yates over [0, d) for k distinct indices.
	picked := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(d-i)
		vi, oki := picked[i]
		vj, okj := picked[j]
		if !oki {
			vi = i
		}
		if !okj {
			vj = j
		}
		out[i] = vj
		picked[j] = vi
	}
	sort.Ints(out)
	return out
}

func (s PeriodicK) Aggregate(uploads []ClientUpload, k int) Aggregate {
	main, _ := s.AggregateInto(NewAggScratch(0), uploads, k, 0)
	return main
}

// SendAll transmits the full accumulated gradient every round — the
// densest baseline (Section V-A method 5).
type SendAll struct{}

var _ Strategy = (*SendAll)(nil)
var _ ScratchAggregator = (*SendAll)(nil)

func (SendAll) Name() string { return "send-all" }
func (SendAll) Dense() bool  { return true }

func (SendAll) MandatedIndices(_, d, _ int, _ *rand.Rand) []int { return allIndices(d) }

func (s SendAll) Aggregate(uploads []ClientUpload, k int) Aggregate {
	main, _ := s.AggregateInto(NewAggScratch(0), uploads, k, 0)
	return main
}

func allIndices(d int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = i
	}
	return out
}
