package gs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsparse/internal/sparse"
)

// requireSameAggregate asserts the two selections agree on every field —
// indices, values bit for bit, and the per-client fairness counts.
func requireSameAggregate(t *testing.T, trial int, a, b Aggregate) {
	t.Helper()
	if len(a.Indices) != len(b.Indices) {
		t.Fatalf("trial %d: |J| %d vs %d", trial, len(a.Indices), len(b.Indices))
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("trial %d: index %d: %d vs %d", trial, i, a.Indices[i], b.Indices[i])
		}
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			t.Fatalf("trial %d: value at j=%d: %v vs %v", trial, a.Indices[i], a.Values[i], b.Values[i])
		}
	}
	if len(a.PerClientUsed) != len(b.PerClientUsed) {
		t.Fatalf("trial %d: PerClientUsed lengths %d vs %d", trial, len(a.PerClientUsed), len(b.PerClientUsed))
	}
	for ci := range a.PerClientUsed {
		if a.PerClientUsed[ci] != b.PerClientUsed[ci] {
			t.Fatalf("trial %d: client %d used %d vs %d", trial, ci, a.PerClientUsed[ci], b.PerClientUsed[ci])
		}
	}
}

// selRow is one selection problem: uploads over d coordinates, the main
// budget k and the probe budget k′ (0 = no probe).
type selRow struct {
	name      string
	d         int
	ups       []ClientUpload
	k, probeK int
}

// requireAllEntryPoints runs the row through every aggregation entry point
// of the strategy and holds each against the map reference: the
// reference's two κ searches against each other (FAB), AggregateInto on a
// fresh un-reserved scratch with and without the probe, and the ranged
// selection through the shard tier's data flow (rangedDriver) at 1, 2 and
// 4 ranges on both planes — for FAB also its rank-histogram form, on the
// client-direct plane that runs it (requireHistogram).
func requireAllEntryPoints(t *testing.T, trial int, strat Strategy, row selRow) {
	t.Helper()
	want := referenceAggregate(strat, row.ups, row.k)
	var wantProbe Aggregate
	if row.probeK > 0 {
		wantProbe = referenceAggregate(strat, row.ups, row.probeK)
	}
	if _, fab := strat.(*FABTopK); fab {
		for _, budget := range []int{row.k, row.probeK} {
			if bin, lin := selectKappaBinary(row.ups, budget), selectKappaLinear(row.ups, budget); bin != lin {
				t.Fatalf("trial %d: budget %d: κ binary=%d linear=%d", trial, budget, bin, lin)
			}
		}
	}
	check := func(main, probe Aggregate) {
		t.Helper()
		requireSameAggregate(t, trial, want, main)
		if row.probeK > 0 {
			requireSameAggregate(t, trial, wantProbe, probe)
		} else if probe.Indices != nil || probe.Values != nil || probe.PerClientUsed != nil {
			t.Fatalf("trial %d: %s: probeK=0 returned non-zero probe", trial, strat.Name())
		}
	}
	check(strat.AggregateInto(NewAggScratch(0), row.ups, row.k, row.probeK))
	requireSameAggregate(t, trial, want, aggregate(strat, row.ups, row.k))
	for _, ranges := range []int{1, 2, 4} {
		for _, direct := range []bool{false, true} {
			main, probe, err := newRangedDriver(ranges, 0, row.d, direct).aggregate(strat, row.ups, row.k, row.probeK)
			if err != nil {
				t.Fatalf("trial %d: %s: ranges=%d direct=%v: %v", trial, strat.Name(), ranges, direct, err)
			}
			check(main, probe)
			if _, fab := strat.(*FABTopK); fab && direct {
				requireHistogram(t, trial, newRangedDriver(ranges, 0, row.d, true), row.ups, row.k, want)
			}
		}
	}
}

// requireHistogram holds the rank-histogram selection of B (main budget
// k) against want, AggregateInto's: the indices and values reassembled
// from the shards' sealed slices bit for bit, |B|, and — asked for —
// the scale QuantizeInPlace finds for B's values at 8 bits. Without the
// scale the selection must not change.
func requireHistogram(t *testing.T, trial int, rd *rangedDriver, ups []ClientUpload, k int, want Aggregate) {
	t.Helper()
	wantScale := sparse.QuantizeInPlace(slices.Clone(want.Values), 8)
	for _, withMax := range []bool{false, true} {
		got, cut, err := rd.histogram(ups, k, withMax)
		if err != nil {
			t.Fatalf("trial %d: histogram S=%d direct=%v: %v", trial, len(rd.shards), rd.direct, err)
		}
		got.PerClientUsed = want.PerClientUsed // the plane tallies no fairness counts
		requireSameAggregate(t, trial, want, got)
		if cut.Len() != len(want.Indices) {
			t.Fatalf("trial %d: histogram S=%d: cut |B| %d, want %d", trial, len(rd.shards), cut.Len(), len(want.Indices))
		}
		if withMax && math.Float64bits(cut.Max) != math.Float64bits(wantScale) {
			t.Fatalf("trial %d: histogram S=%d: scale %v, want %v", trial, len(rd.shards), cut.Max, wantScale)
		}
	}
}

// TestFABDifferentialLinearVsBinary cross-checks every FAB entry point —
// and the two reference κ searches — on random upload sets with unequal
// client weights and unequal upload lengths (stragglers with shorter
// top-k lists), asserting the full Aggregate — indices, values, and
// fairness counts — matches.
func TestFABDifferentialLinearVsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		d := 20 + rng.Intn(300)
		k := 1 + rng.Intn(60)
		ups := make([]ClientUpload, n)
		for i := range ups {
			dense := make([]float64, d)
			for j := range dense {
				dense[j] = rng.NormFloat64()
			}
			// Some clients upload fewer than k elements.
			ki := k
			if rng.Intn(3) == 0 {
				ki = 1 + rng.Intn(k)
			}
			ups[i] = ClientUpload{Pairs: sparse.TopK(dense, ki), Weight: 1 + rng.Float64()*9}
		}
		requireAllEntryPoints(t, trial, &FABTopK{}, selRow{d: d, ups: ups, k: k, probeK: rng.Intn(2 * k)})
	}
}

// TestFABDifferentialTieHeavy repeats the cross-check with quantized
// gradient values, so the rank-(κ+1) fill step must break many exact
// |value| ties identically at every entry point.
func TestFABDifferentialTieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		d := 30 + rng.Intn(120)
		k := 1 + rng.Intn(40)
		ups := make([]ClientUpload, n)
		for i := range ups {
			dense := make([]float64, d)
			for j := range dense {
				dense[j] = float64(rng.Intn(7)-3) * 0.25
			}
			ups[i] = ClientUpload{Pairs: sparse.TopK(dense, k), Weight: 1}
		}
		requireAllEntryPoints(t, trial, &FABTopK{}, selRow{d: d, ups: ups, k: k, probeK: rng.Intn(2 * k)})
	}
}

// degenerateRows is the edge table every entry point of every strategy
// must agree on. Values are multiples of 1/4 and weights small integers so
// each row is also a seed of FuzzFABSelection (encodeRow).
func degenerateRows() []selRow {
	dense := []float64{3, -2, 1, 0.5, -0.25}
	up := func(w float64, idx []int, val ...float64) ClientUpload {
		return ClientUpload{Pairs: sparse.Vec{Idx: idx, Val: val}, Weight: w}
	}
	ragged := []ClientUpload{
		up(2, []int{4, 1, 7, 0}, 5, -4, 2, 1),
		up(1, nil),
		up(3, []int{7}, -6),
		up(1, []int{2, 4, 9}, 3, 3, -3),
	}
	sameCoords := []ClientUpload{
		up(1, []int{3, 5, 8, 1}, 4, 3, 2, 1),
		up(2, []int{1, 8, 5, 3}, -4, 3, -2, 1),
		up(3, []int{5, 3, 1, 8}, 2, 2, 2, 2),
	}
	return []selRow{
		{"no uploads", 5, nil, 5, 0},
		{"empty pairs", 5, []ClientUpload{up(1, nil)}, 3, 0},
		{"k=1", 5, []ClientUpload{{Pairs: sparse.TopK(dense, 3), Weight: 1}, {Pairs: sparse.TopK(dense, 3), Weight: 2}}, 1, 0},
		{"k beyond uploads", 5, []ClientUpload{{Pairs: sparse.TopK(dense, 2), Weight: 1}}, 31, 0},
		{"single client", 5, []ClientUpload{{Pairs: sparse.TopK(dense, 4), Weight: 3}}, 2, 0},
		{"all uploads empty", 6, []ClientUpload{up(1, nil), up(2, nil), up(1, nil)}, 4, 2},
		{"ragged with an empty client in the middle", 10, ragged, 4, 2},
		{"same coordinates in different orders", 9, sameCoords, 3, 1},
		{"zero-weight client", 9, append([]ClientUpload{up(0, []int{6, 2}, 7, -7)}, sameCoords...), 3, 5},
		{"k=0", 10, ragged, 0, 3},
		{"k equals union", 10, ragged, 6, 0},
		{"probe below k", 10, ragged, 5, 1},
		{"probe equals k", 10, ragged, 3, 3},
		{"probe above k", 10, ragged, 2, 5},
		// Rank 0 is {0, 1, 2}; rank 1 adds 5 (twice) and 6, so at k = 4
		// the one fill member is 5, the rank-1 candidate of two clients.
		{"one fill coordinate two clients' candidate", 10, []ClientUpload{
			up(1, []int{0, 5, 7}, 1, 4, 1), up(2, []int{1, 5, 8}, 1, -4, 1), up(1, []int{2, 6, 9}, 1, 3, 1),
		}, 4, 0},
		// Client 0's rank-1 candidate, the largest, is client 1's rank-0
		// coordinate: the fill skips it for 2.
		{"fill candidate already in the union", 10, []ClientUpload{
			up(1, []int{0, 1}, 1, 8), up(1, []int{1, 2}, 1, 2), up(1, []int{3, 4}, 1, 1),
		}, 4, 0},
		// 3 and 8 tie on |value| in the two halves of [0, 10); the lower
		// coordinate joins.
		{"equal-magnitude candidates in two shards", 10, []ClientUpload{
			up(1, []int{0, 3}, 1, 2.5), up(3, []int{9, 8}, 1, -2.5),
		}, 3, 0},
	}
}

// TestFABDifferentialDegenerate pins the edge cases every entry point of
// every strategy must agree on: no uploads, empty and ragged uploads, the
// same coordinates in different orders, a zero weight, k = 0, 1, |union|
// and beyond, and a probe budget below, at and above k.
func TestFABDifferentialDegenerate(t *testing.T) {
	for i, row := range degenerateRows() {
		t.Run(row.name, func(t *testing.T) {
			for _, strat := range scratchStrategies() {
				requireAllEntryPoints(t, i, strat, row)
			}
		})
	}
}

// TestFABHistogramSelection holds the rank-histogram selection to
// AggregateInto's B at 1, 2 and 4 shards (requireAllEntryPoints) over
// the budgets that take each of its branches: k = 1, k exactly a rank-κ
// union (no fill), one past it (a fill from the next rank), and k = D
// (every uploaded coordinate, κ = the longest upload).
func TestFABHistogramSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		d := 16 + rng.Intn(200)
		k := 2 + rng.Intn(30)
		ups := make([]ClientUpload, n)
		for i := range ups {
			dense := make([]float64, d)
			for j := range dense {
				dense[j] = float64(rng.Intn(9)-4) * 0.5 // ties in the fill
			}
			ups[i] = ClientUpload{Pairs: sparse.TopK(dense, 1+rng.Intn(k)), Weight: 1 + float64(rng.Intn(4))}
		}
		union := map[int]bool{} // the coordinates uploaded at ranks 0 and 1
		for _, u := range ups {
			for _, j := range u.Pairs.Idx[:min(2, u.Pairs.Len())] {
				union[j] = true
			}
		}
		for _, budget := range []int{1, len(union), len(union) + 1, d} {
			requireAllEntryPoints(t, trial, &FABTopK{}, selRow{d: d, ups: ups, k: budget})
		}
	}
}

// decodeRow reads a selection problem off fuzz bytes (missing bytes read
// as 0): N ≤ 6 clients over d ≤ 24 coordinates, budgets below 32, and per
// client a weight in {0…3} and a ragged, duplicate-free upload — drawn by
// a partial Fisher–Yates the bytes steer — with values in quarters. An
// all-zero weight vector (0/0 sums) gets its first weight set to 1.
func decodeRow(data []byte) selRow {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next() % 7
	row := selRow{name: "fuzz", d: 1 + next()%24}
	row.k, row.probeK = next()%32, next()%32
	perm := make([]int, row.d)
	for ci := 0; ci < n; ci++ {
		u := ClientUpload{Weight: float64(next() % 4)}
		for j := range perm {
			perm[j] = j
		}
		length := next() % (row.d + 1)
		for i := 0; i < length; i++ {
			p := i + next()%(row.d-i)
			perm[i], perm[p] = perm[p], perm[i]
			u.Pairs.Idx = append(u.Pairs.Idx, perm[i])
			u.Pairs.Val = append(u.Pairs.Val, float64(int8(next()))/4)
		}
		row.ups = append(row.ups, u)
	}
	if n > 0 && totalWeight(row.ups) == 0 {
		row.ups[0].Weight = 1
	}
	return row
}

// encodeRow is decodeRow's inverse for rows inside its domain.
func encodeRow(row selRow) []byte {
	data := []byte{byte(len(row.ups)), byte(row.d - 1), byte(row.k), byte(row.probeK)}
	perm := make([]int, row.d)
	for _, u := range row.ups {
		data = append(data, byte(u.Weight), byte(u.Pairs.Len()))
		for j := range perm {
			perm[j] = j
		}
		for i, j := range u.Pairs.Idx {
			p := i
			for perm[p] != j {
				p++
			}
			perm[i], perm[p] = perm[p], perm[i]
			data = append(data, byte(p-i), byte(int8(u.Pairs.Val[i]*4)))
		}
	}
	return data
}

// FuzzFABSelection drives arbitrary small selection problems through every
// entry point of every strategy: none may panic, and all must equal the
// map reference in indices, values bit for bit and PerClientUsed. Seeded
// from the degenerate table; testdata/fuzz holds the committed corpus.
func FuzzFABSelection(f *testing.F) {
	for _, row := range degenerateRows() {
		data := encodeRow(row)
		back := decodeRow(data)
		back.name = row.name
		if fmt.Sprint(back) != fmt.Sprint(row) {
			f.Fatalf("row %q does not survive the fuzz encoding:\n%v\n%v", row.name, row, back)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		row := decodeRow(data)
		for _, strat := range scratchStrategies() {
			requireAllEntryPoints(t, 0, strat, row)
		}
	})
}
