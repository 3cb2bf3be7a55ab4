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
// Every strategy implements one contract, Strategy: AggregateInto
// selects from the raw uploads into a caller-owned AggScratch — one pass
// for the main and the k′-probe selections, allocation-free once the
// scratch is warm (scratch.go), or in two halves, SelectInto and then
// AggScratch.Sum, for a caller that works beside the summing pass;
// SelectDirect makes the same selection, bit
// for bit, over shard-reduced facts for a coordinator that holds no
// uploads (direct.go); MandatedIndicesInto draws the uplink index set of
// the mandated-index strategies (mandate.go). The original map-based
// aggregation lives on in reference_test.go as the oracle every path is
// held against.
package gs

import (
	"math/rand"

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

// Strategy is one gradient-sparsification method, the one contract the
// engine and every wire coordinator drive a strategy through. The five
// built-ins below are its only implementations.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Dense reports whether payloads are full dense vectors (no index
	// transmission), which the cost model charges at 1 unit per element
	// instead of 2.
	Dense() bool
	// MandatedIndicesInto returns a server-chosen uplink index set that
	// every client must report this round (periodic-k, send-all), or nil
	// when clients select their own top-k elements. The slice is
	// scratch-owned and valid until the next call (mandate.go).
	MandatedIndicesInto(ms *MandateScratch, round, d, k int, rng *rand.Rand) []int
	// AggregateInto computes the main k-element selection and, when
	// probeK > 0, the k′-probe selection in one pass over the uploads,
	// allocation-free with a warm scratch (scratch.go). Both Aggregates
	// alias the scratch's buffers until its next use; with probeK <= 0
	// the probe Aggregate is zero. Uploads must not repeat a coordinate
	// within one client's pairs: every real producer (top-k selection,
	// the mandated-index strategies) guarantees it.
	AggregateInto(s *AggScratch, uploads []ClientUpload, k, probeK int) (main, probe Aggregate)
	// SelectInto is AggregateInto's first half: the same two selections,
	// marked in the scratch's membership map (AggScratch.Membership) without
	// their values. AggScratch.Sum over the same uploads is the second
	// half, and returns what AggregateInto would.
	SelectInto(s *AggScratch, uploads []ClientUpload, k, probeK int)
	// SelectDirect is AggregateInto over merged shard reductions in place
	// of the raw uploads (direct.go): the same selections bit for bit,
	// with PerClientUsed zeroed, not tallied (a caller that holds the
	// uploads follows up with AggScratch.CountUsed). The scratch must have
	// been Reserved for the model dimension.
	SelectDirect(s *AggScratch, red RangeAgg, meta DirectMeta, k, probeK int) (main, probe Aggregate, err error)
}

var (
	_ Strategy = (*FABTopK)(nil)
	_ Strategy = FUBTopK{}
	_ Strategy = UniTopK{}
	_ Strategy = PeriodicK{}
	_ Strategy = SendAll{}
)

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

func (*FABTopK) Name() string { return "fab-top-k" }
func (*FABTopK) Dense() bool  { return false }

func (*FABTopK) MandatedIndicesInto(*MandateScratch, int, int, int, *rand.Rand) []int { return nil }

// FUBTopK is the fairness-unaware bidirectional top-k of [28]/[31]: the
// server aggregates every uploaded pair and keeps the k indices with the
// largest aggregated |b_j|, with no per-client guarantee — clients whose
// updates never rank can be excluded entirely (Fig. 4 right).
type FUBTopK struct{}

func (FUBTopK) Name() string { return "fub-top-k" }
func (FUBTopK) Dense() bool  { return false }

func (FUBTopK) MandatedIndicesInto(*MandateScratch, int, int, int, *rand.Rand) []int { return nil }

// UniTopK is unidirectional top-k [22]: every uploaded index is aggregated
// and broadcast, so the downlink can carry up to k·N elements.
type UniTopK struct{}

func (UniTopK) Name() string { return "uni-top-k" }
func (UniTopK) Dense() bool  { return false }

func (UniTopK) MandatedIndicesInto(*MandateScratch, int, int, int, *rand.Rand) []int { return nil }

// PeriodicK is random sparsification [8]/[30]: the server draws k random
// coordinates each round; every client reports exactly those, so over
// enough rounds every coordinate is refreshed.
type PeriodicK struct{}

func (PeriodicK) Name() string { return "periodic-k" }
func (PeriodicK) Dense() bool  { return false }

// SendAll transmits the full accumulated gradient every round — the
// densest baseline (Section V-A method 5).
type SendAll struct{}

func (SendAll) Name() string { return "send-all" }
func (SendAll) Dense() bool  { return true }
