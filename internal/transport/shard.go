package transport

import (
	"fmt"
	"sort"
	"time"

	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// This file is the wire form of the coordinate-sharded aggregation tier
// (gs/shard.go): the coordinator partitions the model's coordinate space
// into S contiguous ranges with tensor.ChunkBounds, routes every client
// upload's (index, value) pairs — tagged with their original upload ranks
// — to the owning shards, and each shard runs the range-restricted
// reduction before the coordinator's selection merges the results. Shards
// can be goroutines over NewMemPair or real processes over Dial/Listen;
// either way the aggregate is bit-identical to the single-process engine
// at every shard count (the differential suite pins mem and TCP alike).

// Shard-tier message types.
type (
	// ShardHello identifies a connection as an aggregation shard on a
	// shared coordinator listener (clients send Hello instead). Addr is
	// the shard's own client-facing ingest listener for the direct data
	// plane (direct.go); empty for a routed-only shard. A durable shard
	// declares its stable identity in ID (HasID set): the coordinator
	// seats it at that index (SeatShardPeers) instead of by arrival
	// order, which is racy across real processes — without the
	// declaration two shards enrolling out of order would each receive
	// the other's assignment and refuse it. Non-durable shards leave
	// both fields zero and take whatever index arrival order gives them
	// (their ShardAssign tells them who they are).
	ShardHello struct {
		Addr  string
		ID    int
		HasID bool
	}

	// ShardAssign is the coordinator's handshake reply to a shard: its
	// identity, the partition geometry, the run length, and every
	// client's aggregation weight C_i (the shard needs the full weight
	// vector — the total weight C divides every sum, including clients
	// with no pairs in the shard's range). Direct announces the
	// client-direct data plane: slices arrive straight from the clients
	// (RunDirectShard) instead of routed through the coordinator
	// (RunShard); each runner rejects the other's assignment, so a
	// topology mismatch fails loudly at the handshake. QuantBits is the
	// run's quantization width (direct plane only): a direct shard
	// validates incoming slices against it and snaps its reconstructed
	// downlink values onto the coordinator's sealed grid.
	ShardAssign struct {
		ShardID   int
		NumShards int
		Dim       int
		Rounds    int
		Weights   []float64
		Direct    bool
		QuantBits int
		// StartRound is the first round this shard runs (0 means 1 —
		// fresh assigns leave it zero). A durable coordinator re-seating
		// a shard that restarted mid-run sets it to the round in
		// progress so the shard's barrier starts there.
		StartRound int
		// Window is the bounded-staleness window W (0 = synchronous).
		// A direct shard with W > 0 relaxes its per-round barrier to a
		// sliding admission window: with round cut sealed for reduction,
		// it admits SliceUploads tagged for rounds in [cut+1, cut+1+W]
		// and NACKs anything at or below the cut. Direct plane only —
		// routed shards are driven by the coordinator's lockstep round
		// loop and reject a windowed assignment.
		Window int
		// NumHosts > 0 switches a direct shard into the population
		// tier's M:N ingest plane: instead of one connection per client
		// it accepts NumHosts virtual-client host connections (each
		// opening with a HostData that names its member roster), and
		// each round's barrier covers the drawn cohort announced by the
		// coordinator's CohortAssign, with one MuxFrame-enveloped
		// SliceUpload per drawn member. Weights then has one entry per
		// population member. 0 is the classic one-conn-per-client plane.
		NumHosts int
	}

	// ShardUpload is one round's routed pairs for one shard, all clients
	// concatenated: client ci's entries are Idx/Val/Rank[Off[ci]:Off[ci+1]].
	// Rank is each pair's 0-based position in the client's original
	// upload — the selection metadata the shard's reduction preserves
	// (range slicing destroys positions, so ranks ride along explicitly).
	// Coordinator → shard, routed aggregation plane, exactly one per
	// shard per round once every client's Upload arrived; answered by
	// exactly one ShardResult before the next round's routing.
	ShardUpload struct {
		Round int
		Off   []int
		Idx   []int
		Val   []float64
		Rank  []int
	}

	// ShardResult is a shard's reduction for one round: for every
	// distinct uploaded coordinate in its range, ascending, the exact
	// weighted sum b_j and the minimal upload rank (gs.RangeAgg on the
	// wire). Shard → coordinator, on the control connection in both
	// topologies — the routed reply to a ShardUpload, or the direct
	// plane's round report once the shard's client barrier is complete.
	ShardResult struct {
		Round   int
		ShardID int
		Idx     []int
		Sum     []float64
		MinRank []int
	}
)

// RunShard executes one aggregation shard over its coordinator
// connection: receive the ShardAssign, then for every round receive the
// routed ShardUpload, reduce it over the assigned coordinate range, and
// reply with the ShardResult. It returns nil after the assigned number of
// rounds, and an error on a malformed assignment or upload (out-of-range
// or duplicated coordinates, non-ascending ranks, inconsistent offsets) —
// the validation mirror of RunServer's client-upload checks, so a broken
// coordinator fails as a protocol error, not an aggregation panic.
//
// Like the client's reusable pair buffers, the reply aliases the shard's
// scratch: the protocol is lockstep (the coordinator consumes round m's
// result before routing round m+1), which makes reuse safe even over
// by-reference in-memory conns.
func RunShard(conn Conn) error {
	msg, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("transport: shard assign recv: %w", err)
	}
	assign, ok := msg.(ShardAssign)
	if !ok {
		return fmt.Errorf("transport: shard expected ShardAssign, got %T", msg)
	}
	if err := checkAssign(assign, false); err != nil {
		return err
	}
	if assign.Window != 0 {
		return fmt.Errorf("transport: routed shard given staleness window %d: bounded staleness rides the direct data plane (routed shards follow the coordinator's lockstep round loop)", assign.Window)
	}
	lo, hi := tensor.ChunkBounds(assign.Dim, assign.NumShards, assign.ShardID)
	n := len(assign.Weights)

	scratch := gs.NewAggScratch(0)
	scratch.Reserve(assign.Dim)
	uploads := make([]gs.ClientUpload, n)
	ranks := make([][]int, n)
	for ci := range uploads {
		uploads[ci].Weight = assign.Weights[ci]
	}
	// Duplicate-coordinate slab, one token per (round, client) check.
	seen := make([]int, assign.Dim)
	seenToken := 0

	for m := 1; m <= assign.Rounds; m++ {
		msg, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("transport: shard %d round %d recv: %w", assign.ShardID, m, err)
		}
		up, ok := msg.(ShardUpload)
		if !ok {
			return fmt.Errorf("transport: shard %d round %d: expected ShardUpload, got %T", assign.ShardID, m, msg)
		}
		// Window-form admission guard. Routed assignments always carry
		// Window == 0, so this degenerates to the strict up.Round == m
		// lockstep check; the window form keeps the guard shape shared
		// with the direct plane's sliding admission.
		if up.Round < m || up.Round > m+assign.Window {
			return fmt.Errorf("transport: shard %d: stale upload (round %d outside admission window [%d, %d])",
				assign.ShardID, up.Round, m, m+assign.Window)
		}
		if len(up.Off) != n+1 || up.Off[0] != 0 || up.Off[n] != len(up.Idx) ||
			len(up.Idx) != len(up.Val) || len(up.Idx) != len(up.Rank) {
			return fmt.Errorf("transport: shard %d round %d: inconsistent upload shape (%d offsets for %d clients, %d/%d/%d entries)",
				assign.ShardID, m, len(up.Off), n, len(up.Idx), len(up.Val), len(up.Rank))
		}
		for ci := 0; ci < n; ci++ {
			a, b := up.Off[ci], up.Off[ci+1]
			if a > b || b > len(up.Idx) {
				return fmt.Errorf("transport: shard %d round %d: bad offsets for client %d (%d, %d)",
					assign.ShardID, m, ci, a, b)
			}
			seenToken++
			// The shared slice validation of both shard topologies:
			// range, duplicates, rank order (gs.ValidateRangeSlice).
			if err := gs.ValidateRangeSlice(up.Idx[a:b], up.Val[a:b], up.Rank[a:b], lo, hi, seen, seenToken); err != nil {
				return fmt.Errorf("transport: shard %d round %d: client %d routed slice: %w",
					assign.ShardID, m, ci, err)
			}
			uploads[ci].Pairs = sparse.Vec{Idx: up.Idx[a:b], Val: up.Val[a:b]}
			ranks[ci] = up.Rank[a:b]
		}
		red := gs.RangeReduceInto(scratch, uploads, ranks, lo, hi)
		res := ShardResult{Round: m, ShardID: assign.ShardID, Idx: red.Idx, Sum: red.Sum, MinRank: red.MinRank}
		if err := conn.Send(res); err != nil {
			return fmt.Errorf("transport: shard %d round %d send: %w", assign.ShardID, m, err)
		}
	}
	return nil
}

// ShardGroup is the coordinator's handle on a set of shard connections:
// it assigns the partition at construction and then aggregates one round
// at a time by routing, gathering, and selecting. Single-goroutine state,
// like the scratches it wraps; returned Aggregates alias the selection
// scratch and stay valid until the next Aggregate call.
type ShardGroup struct {
	conns   []Conn
	dim     int
	weights []float64
	sel     *gs.AggScratch
	shardResults

	// Reusable routing buffers.
	offs [][]int
	idxs [][]int
	vals [][]float64
	rnks [][]int

	// FAB's fill candidates come from the uploads the coordinator holds:
	// the round's uploads, the hook over them (bound once), its buffer.
	uploads  []gs.ClientUpload
	fillHook func(kappa int) ([]gs.FillCand, error)
	cands    []gs.FillCand
}

// shardResults is the coordinator-side gather of one round's
// ShardResults, the same on the routed plane (ShardGroup) and the
// direct plane (DirectGroup): the partition geometry it validates
// against, the merged reduction, and the per-shard wait times.
type shardResults struct {
	links  peerLinks // how results arrive: plain conns, or a durable coordinator's healing side
	bounds []int     // nShards+1 chunk boundaries over [0, dim)

	mergedIdx  []int
	mergedSum  []float64
	mergedRank []int

	// reduceSecs[s] is the wall-clock wait for shard s's ShardResult in
	// the last gather — the per-shard reduce time the operational
	// surface reports. Overwritten every round; copied on emission.
	reduceSecs []float64
}

func newShardResults(conns []Conn, dim int) shardResults {
	r := shardResults{links: plainPeers{conns: conns, noun: "shard"},
		bounds: make([]int, len(conns)+1), reduceSecs: make([]float64, len(conns))}
	for s := range conns {
		r.bounds[s], r.bounds[s+1] = tensor.ChunkBounds(dim, len(conns), s)
	}
	return r
}

// gather collects and merges every shard's round reduction. Shard
// ranges are contiguous and ascending, so concatenating per-shard
// results in shard order keeps the merged index list globally ascending
// — no merge arithmetic at all. The coordinator trusts shards no more
// than shards trust the coordinator: indices must be ascending inside
// the shard's range, and min ranks must index a real upload position
// (maxLen is the round's longest upload) — a malformed result fails as
// a protocol error here rather than as an index panic inside the
// selection (whose rank histogram is sized by the longest upload).
func (r *shardResults) gather(round, maxLen int) (gs.RangeAgg, error) {
	r.mergedIdx = r.mergedIdx[:0]
	r.mergedSum = r.mergedSum[:0]
	r.mergedRank = r.mergedRank[:0]
	for s := range r.reduceSecs {
		t0 := time.Now()
		msg, err := r.links.recv(s, round)
		r.reduceSecs[s] = time.Since(t0).Seconds()
		if err != nil {
			return gs.RangeAgg{}, err
		}
		res, ok := msg.(ShardResult)
		if !ok {
			return gs.RangeAgg{}, fmt.Errorf("transport: round %d: shard %d sent %T, want ShardResult", round, s, msg)
		}
		if res.Round != round || res.ShardID != s {
			return gs.RangeAgg{}, fmt.Errorf("transport: round %d: stale result (round %d from shard %d)",
				round, res.Round, res.ShardID)
		}
		if len(res.Idx) != len(res.Sum) || len(res.Idx) != len(res.MinRank) {
			return gs.RangeAgg{}, fmt.Errorf("transport: round %d: shard %d result shape %d/%d/%d",
				round, s, len(res.Idx), len(res.Sum), len(res.MinRank))
		}
		for i, j := range res.Idx {
			if j < r.bounds[s] || j >= r.bounds[s+1] || (i > 0 && j <= res.Idx[i-1]) {
				return gs.RangeAgg{}, fmt.Errorf("transport: round %d: shard %d result index %d out of order or range",
					round, s, j)
			}
			if rk := res.MinRank[i]; rk < 0 || rk >= maxLen {
				return gs.RangeAgg{}, fmt.Errorf("transport: round %d: shard %d result rank %d for index %d outside [0, %d)",
					round, s, rk, j, maxLen)
			}
		}
		r.mergedIdx = append(r.mergedIdx, res.Idx...)
		r.mergedSum = append(r.mergedSum, res.Sum...)
		r.mergedRank = append(r.mergedRank, res.MinRank...)
	}
	return gs.RangeAgg{Idx: r.mergedIdx, Sum: r.mergedSum, MinRank: r.mergedRank}, nil
}

// NewShardGroup sends every shard its ShardAssign and returns the group.
// dim is the model dimension, rounds the run length, weights the
// aggregation weight C_i of each client in client-ID order — Aggregate
// validates its uploads against them.
func NewShardGroup(conns []Conn, dim, rounds int, weights []float64) (*ShardGroup, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("transport: shard group needs at least one shard")
	}
	if dim < 1 || len(weights) == 0 {
		return nil, fmt.Errorf("transport: bad shard group geometry (dim=%d clients=%d)", dim, len(weights))
	}
	g := &ShardGroup{
		conns:        conns,
		dim:          dim,
		weights:      append([]float64(nil), weights...),
		sel:          gs.NewAggScratch(0),
		shardResults: newShardResults(conns, dim),
		offs:         make([][]int, len(conns)),
		idxs:         make([][]int, len(conns)),
		vals:         make([][]float64, len(conns)),
		rnks:         make([][]int, len(conns)),
	}
	g.sel.Reserve(dim)
	g.fillHook = g.fill
	for s := range conns {
		g.offs[s] = make([]int, len(weights)+1)
	}
	assign := ShardAssign{NumShards: len(conns), Dim: dim, Rounds: rounds, Weights: g.weights}
	for s, conn := range conns {
		assign.ShardID = s
		if err := conn.Send(assign); err != nil {
			return nil, fmt.Errorf("transport: assign shard %d: %w", s, err)
		}
	}
	return g, nil
}

// shardOf returns the shard owning coordinate j.
func (g *ShardGroup) shardOf(j int) int {
	return sort.SearchInts(g.bounds, j+1) - 1
}

// fill serves FAB's rank-kappa candidates from the round's uploads.
func (g *ShardGroup) fill(kappa int) ([]gs.FillCand, error) {
	g.cands = gs.AppendFillCands(g.cands[:0], g.uploads, nil, kappa)
	return g.cands, nil
}

// Aggregate runs one round through the shard tier: route the uploads'
// pairs to their owning shards, gather every shard's range reduction, and
// select on the merged results — bit-identical to
// strat.AggregateInto(…, uploads, k, probeK) on a single scratch. The
// uploads must be in client-ID order with the weights the group was built
// with.
func (g *ShardGroup) Aggregate(strat gs.DirectSelector, uploads []gs.ClientUpload, round, k, probeK int) (main, probe gs.Aggregate, err error) {
	if len(uploads) != len(g.weights) {
		return main, probe, fmt.Errorf("transport: round %d: %d uploads for %d assigned clients", round, len(uploads), len(g.weights))
	}
	// Route. Every pair lands in exactly one shard; ranks are the pair's
	// position in the client's original upload.
	for s := range g.conns {
		g.idxs[s] = g.idxs[s][:0]
		g.vals[s] = g.vals[s][:0]
		g.rnks[s] = g.rnks[s][:0]
		g.offs[s][0] = 0
	}
	maxLen := 0
	for ci, u := range uploads {
		if u.Weight != g.weights[ci] {
			return main, probe, fmt.Errorf("transport: round %d: client %d weight %v != assigned %v",
				round, ci, u.Weight, g.weights[ci])
		}
		maxLen = max(maxLen, u.Pairs.Len())
		for pi, j := range u.Pairs.Idx {
			if j < 0 || j >= g.dim {
				return main, probe, fmt.Errorf("transport: round %d: client %d index %d out of range [0, %d)",
					round, ci, j, g.dim)
			}
			s := g.shardOf(j)
			g.idxs[s] = append(g.idxs[s], j)
			g.vals[s] = append(g.vals[s], u.Pairs.Val[pi])
			g.rnks[s] = append(g.rnks[s], pi)
		}
		for s := range g.conns {
			g.offs[s][ci+1] = len(g.idxs[s])
		}
	}
	for s, conn := range g.conns {
		up := ShardUpload{Round: round, Off: g.offs[s], Idx: g.idxs[s], Val: g.vals[s], Rank: g.rnks[s]}
		if err := conn.Send(up); err != nil {
			return main, probe, fmt.Errorf("transport: round %d send to shard %d: %w", round, s, err)
		}
	}

	merged, err := g.gather(round, maxLen)
	if err != nil {
		return main, probe, err
	}
	g.uploads = uploads
	meta := gs.DirectMeta{NumClients: len(uploads), MaxLen: maxLen, Fill: g.fillHook}
	if main, probe, err = strat.SelectDirect(g.sel, merged, meta, k, probeK); err != nil {
		return main, probe, err
	}
	g.sel.CountUsed(uploads, probeK > 0)
	return main, probe, nil
}

// Close closes every shard connection.
func (g *ShardGroup) Close() error {
	var first error
	for _, conn := range g.conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
