package gs

import (
	"fedsparse/internal/par"
	"fedsparse/internal/tensor"
)

// rangedDriver runs one round's aggregation the way internal/transport's
// shard tier does, in-process, so the kernels the wire uses —
// RangeReduceInto, SelectDirect, AppendFillCands, CountUsed, MemberSpans,
// BuildDownlinkSlice, and the rank histogram's RankHist, SelectHist,
// ServeFill and SealSlice — stay differential-tested against
// AggregateInto without a connection in sight. It is test scaffolding: it
// allocates freely and exists in no production path.
//
// direct chooses which plane's data flow is modelled. Client-direct:
// every upload is split by coordinate range into slices tagged with
// explicit local ranks (what clients send), each shard reduces its slice
// set, and the fill candidates come from the slice sets. Routed: each
// shard reduces the un-sliced uploads over its range (pair position =
// rank) and the fill candidates come from the raw uploads the coordinator
// holds. Either way the main selection then travels the shard-served
// downlink — per-shard member spans, values rebuilt from each shard's own
// reduction, reassembled by concatenation — and the fairness counts are
// tallied from the uploads.
type rangedDriver struct {
	dim, workers int
	direct       bool
	bounds       []int // len(shards)+1 chunk boundaries over [0, dim)
	sel          *AggScratch
	shards       []*AggScratch
}

func newRangedDriver(shards, workers, dim int, direct bool) *rangedDriver {
	rd := &rangedDriver{dim: dim, workers: workers, direct: direct, bounds: make([]int, shards+1), sel: NewAggScratch(0)}
	rd.sel.Reserve(dim)
	for s := 0; s < shards; s++ {
		sc := NewAggScratch(0)
		sc.Reserve(dim)
		rd.shards = append(rd.shards, sc)
		rd.bounds[s], rd.bounds[s+1] = tensor.ChunkBounds(dim, shards, s)
	}
	return rd
}

// reduce is every shard's range reduction of the round: each shard's
// input (its slice set on the direct plane, the raw uploads otherwise),
// its ranks (nil for raw uploads) and its reduction.
func (rd *rangedDriver) reduce(uploads []ClientUpload) ([][]ClientUpload, [][][]int, []RangeAgg) {
	nShards := len(rd.shards)
	slices := make([][]ClientUpload, nShards)
	ranks := make([][][]int, nShards)
	for s := range rd.shards {
		if rd.direct {
			slices[s], ranks[s], _, _ = routeUploads(uploads, rd.dim, nShards, s)
		} else {
			slices[s] = uploads // ranks[s] stays nil: position is rank
		}
	}
	reds := make([]RangeAgg, nShards)
	par.For(rd.workers, nShards, func(s, _ int) {
		reds[s] = RangeReduceInto(rd.shards[s], slices[s], ranks[s], rd.bounds[s], rd.bounds[s+1])
	})
	return slices, ranks, reds
}

func (rd *rangedDriver) aggregate(strat Strategy, uploads []ClientUpload, k, probeK int) (Aggregate, Aggregate, error) {
	slices, ranks, reds := rd.reduce(uploads)
	var merged RangeAgg
	for _, r := range reds {
		merged.Idx = append(merged.Idx, r.Idx...)
		merged.Sum = append(merged.Sum, r.Sum...)
		merged.MinRank = append(merged.MinRank, r.MinRank...)
	}
	meta := DirectMeta{
		NumClients: len(uploads),
		MaxLen:     maxLen(uploads),
		Fill: func(kappa int) ([]FillCand, error) {
			if !rd.direct {
				return AppendFillCands(nil, uploads, nil, kappa), nil
			}
			var cands []FillCand
			for s := range slices {
				cands = AppendFillCands(cands, slices[s], ranks[s], kappa)
			}
			return cands, nil
		},
	}
	main, probe, err := strat.SelectDirect(rd.sel, merged, meta, k, probeK)
	if err != nil {
		return Aggregate{}, Aggregate{}, err
	}
	rd.sel.CountUsed(uploads, probeK > 0)
	var outIdx []int
	var outVal []float64
	for s, span := range MemberSpans(main.Indices, rd.bounds, nil) {
		outIdx, outVal, err = BuildDownlinkSlice(outIdx, outVal, span, reds[s], rd.bounds[s], rd.bounds[s+1])
		if err != nil {
			return Aggregate{}, Aggregate{}, err
		}
	}
	main.Indices, main.Values = outIdx, outVal
	return main, probe, nil
}

// histogram runs FAB's main selection the way the direct plane does:
// every shard reports its reduction's min-rank histogram, the
// coordinator selects off their sum (SelectHist, asking for B's scale
// when withMax), each shard serves its fill candidates and union maximum
// (ServeFill), and each builds its downlink slice from the cut — κ and
// its span of the fill (SealSlice). It returns B reassembled from the
// slices and the cut.
func (rd *rangedDriver) histogram(uploads []ClientUpload, k int, withMax bool) (Aggregate, Cut, error) {
	slices, ranks, reds := rd.reduce(uploads)
	hist := make([]int, maxLen(uploads))
	for _, red := range reds {
		for r, n := range RankHist(nil, red) {
			hist[r] += n
		}
	}
	fill := func(kappa int) ([]FillCand, float64, error) {
		var cands []FillCand
		var unionMax float64
		for s := range slices {
			var m float64
			cands, m = ServeFill(cands, slices[s], ranks[s], reds[s], kappa)
			unionMax = max(unionMax, m)
		}
		return cands, unionMax, nil
	}
	cut, err := (&FABTopK{}).SelectHist(rd.sel, hist, fill, k, withMax)
	if err != nil {
		return Aggregate{}, Cut{}, err
	}
	var b Aggregate
	for s, span := range MemberSpans(cut.Fill, rd.bounds, nil) {
		b.Indices, b.Values, err = SealSlice(b.Indices, b.Values, cut.Kappa, span, reds[s], rd.bounds[s], rd.bounds[s+1])
		if err != nil {
			return Aggregate{}, Cut{}, err
		}
	}
	return b, cut, nil
}
