package transport

import (
	"fmt"
	"math"
	"slices"
	"time"

	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/tensor"
)

// This file is the client-direct data plane: the topology where the
// gradient payload flows between clients and shards in BOTH directions,
// demoting the coordinator to a control plane. Uplink: clients split
// each top-k upload by coordinate range and send every slice straight
// to the owning shard. Downlink: after selection the coordinator seals
// each shard with only its span of the selected member set (the shard
// reconstructs the values from its own merged sums), and clients pull
// their broadcast slices from every shard over the same data links,
// reassembling B locally. Per round:
//
//	clients ──SliceUpload──────────────▶ shards        (uplink data plane)
//	clients ◀─SliceBroadcast─(SliceFetch)─ shards      (downlink data plane)
//	clients ──RoundMeta───▶ coordinator ◀──ShardResult── shards
//	clients ◀─RoundRelease─ coordinator ──FillQuery?/RoundSeal──▶ shards
//
// The coordinator's per-round ingest shrinks from O(N·k) routed payload
// to O(N) scalar control messages plus the O(|J|)-sized merged shard
// reductions it needs for selection — it never receives a gradient
// upload — and its per-round egress shrinks from the O(N·|J|) broadcast
// to O(N) RoundRelease scalars plus the O(|J|) member indices of the
// shard seals (the zero-B-payload test pins both directions). Each
// shard runs a per-round client barrier: exactly one slice per client
// per round (empty slices included), so a complete range is a counted
// fact, and a dead client surfaces as a connection error on the barrier
// instead of a wedge. The downlink is ordered the same way: a shard
// serves round-m slices only after the coordinator's round-m seal, and
// clients fetch only after the coordinator's RoundRelease — which is
// sent after every shard was sealed — so no client can observe a
// partially sealed round. Selection stays exact: shards compute the
// range reductions from the slices' explicit local ranks, and the two
// pieces of per-upload metadata a reduction does not carry are served
// by the shards on demand (FAB's rank-κ fill candidates via FillQuery —
// each client's rank-κ pair lives in exactly one shard). The trajectory
// is bit-identical to the unsharded routed and single-process paths,
// over in-memory pairs and TCP alike.

// Direct data-plane message types.
type (
	// DataHello opens a participant's ingest connection to one shard:
	// the Hello's identity and roster on the data plane (a client's
	// roster is [ClientID]; a virtual host's names the members whose
	// MuxFrame slices will arrive on this connection). The geometry
	// fields echo the directory the participant is acting on, so a stale
	// directory (wrong shard count, dimension, or shard identity) fails
	// the handshake loudly instead of corrupting a barrier.
	DataHello struct {
		ClientID  int
		ShardID   int
		NumShards int
		Dim       int
		Members   []int
	}

	// SliceUpload is one client's range slice for one round: the subset
	// of its top-k pairs owned by the receiving shard, with each pair's
	// explicit rank in the client's full upload (range slicing destroys
	// positions, so the selection metadata rides along; ranks ascend).
	// Clients send one per shard per round, empty when no pair landed in
	// the range — the shard's barrier counts them. With quantization on,
	// Val lies on the b-bit grid of Bits and Scale (the client's global
	// per-upload scale, shared by all of its slices that round), which
	// the binary codec packs as b-bit integers on the wire.
	SliceUpload struct {
		ClientID int
		Round    int
		Idx      []int
		Val      []float64
		Rank     []int
		Bits     int
		Scale    float64
	}

	// RoundMeta is the client's per-round control message to the
	// coordinator: its minibatch loss (the global-loss input) and its
	// upload length (the κ-search bound) — scalars, never payload.
	RoundMeta struct {
		ClientID  int
		Round     int
		BatchLoss float64
		UploadLen int
	}

	// FillQuery asks every shard for its rank-Kappa fill candidates —
	// the per-upload metadata FAB's selection needs when the rank-κ
	// union leaves the downlink short.
	FillQuery struct {
		Round int
		Kappa int
	}

	// FillCandidates is one shard's reply: for each of its clients whose
	// round slice contains the pair ranked Kappa, the candidate tuple
	// (parallel slices, clients ascending).
	FillCandidates struct {
		Round   int
		ShardID int
		Client  []int
		Idx     []int
		AbsVal  []float64
	}

	// RoundSeal closes a round at a shard: the coordinator's selection is
	// final, and Members is the slice of the selected member set that
	// lies in the shard's coordinate range (ascending). The shard
	// reconstructs the members' values from its own merged sums — the
	// coordinator never re-transmits payload it only ever had as the
	// shard's reduction — then serves the round's SliceFetch requests
	// (right away, or after sealing W more rounds under a staleness
	// window). With quantization on,
	// Bits and Scale carry the aggregate's GLOBAL grid (scale = max
	// |value| over the whole selection, computed by the coordinator):
	// every shard snaps its reconstructed span onto that one grid, so
	// the reassembled B is bit-identical to the engine's quantized
	// aggregate.
	RoundSeal struct {
		Round   int
		Members []int
		Bits    int
		Scale   float64
	}

	// SliceFetch is a client's downlink pull for one round, sent on its
	// per-shard data link after the coordinator's RoundRelease: every
	// shard owes exactly one SliceBroadcast per client per round.
	SliceFetch struct {
		ClientID int
		Round    int
	}

	// SliceBroadcast is one shard's broadcast slice for one round: the
	// selected members of its coordinate range, ascending, with the
	// exact aggregated values from its own reduction (snapped onto the
	// seal's global quantization grid when the run quantizes — Bits and
	// Scale echo the seal's). Concatenating the slices in shard order
	// reassembles B — shard ranges are contiguous and ascending, so no
	// merge arithmetic happens at the client.
	SliceBroadcast struct {
		Round   int
		ShardID int
		Idx     []int
		Val     []float64
		Bits    int
		Scale   float64

		frame []byte // the sender's one encoding (encodeFrame, codec.go)
	}

	// RoundRelease is the coordinator's per-round control message to a
	// client in direct mode — two scalars, never payload: the sealed
	// round (the client's epoch guard: it must not fetch round-m slices
	// before every shard sealed round m, and the release is sent only
	// after the last seal) and the size of the selected member set (so a
	// truncated reassembly fails loudly at the client).
	RoundRelease struct {
		Round int
		Elems int
	}
)

// RunDirectShard executes one aggregation shard of the direct data
// plane over its coordinator control connection (runShard): receive the
// ShardAssign, obtain the client ingest connections through accept —
// called with the client count once the assignment names it — and run
// the round loop (shardRound.run, W = the assigned window rounds deep):
// per round the client barrier, the range reduction, the ShardResult
// and FillQuery round trips up to the coordinator's RoundSeal, and the
// downlink serve of one validated SliceFetch per client. An assignment
// with NumHosts > 0 accepts that many population hosts instead and runs
// the same loop over their links (populationIngest). Ingest connections
// are closed on return. Any malformed handshake, slice, fetch, or
// control message — a stale directory, an out-of-range or duplicated
// coordinate, non-ascending ranks, a forged identity, a stale or early
// round, a sealed member the shard never reduced — errors the run as a
// protocol failure; a client death surfaces as a connection error on
// the barrier or on the downlink serve.
func RunDirectShard(coord Conn, accept func(nClients int) ([]Peer, error)) error {
	var peers []Peer
	defer func() {
		for _, p := range peers {
			_ = p.Conn.Close()
		}
	}()
	return runShard(coord, coord.Recv, false, func(assign ShardAssign) (*shardLinks, error) {
		n, noun := ingestPeers(assign)
		var err error
		if peers, err = accept(n); err != nil {
			return nil, fmt.Errorf("transport: shard %d accepting %ss: %w", assign.ShardID, noun, err)
		}
		if assign.NumHosts > 0 {
			return populationIngest(coord, assign, peers)
		}
		conns, _, err := seatData(assign, peers)
		return &shardLinks{up: conns, down: conns, nDown: n, roster: fixedRoster(n)}, err
	})
}

// ingestPeers is how many participants a shard's ingest plane seats and
// what they are called: one per client, or the population tier's hosts.
func ingestPeers(assign ShardAssign) (int, string) {
	if assign.NumHosts > 0 {
		return assign.NumHosts, "host"
	}
	return len(assign.Weights), "client"
}

// checkDataHello is every shard tier's check of one ingest peer against
// its assignment: a DataHello, echoing the geometry, from an ID among
// the assignment's participants (clients, or NumHosts hosts), with a
// roster of exactly [ClientID] on the per-client planes.
func checkDataHello(p Peer, assign ShardAssign) error {
	id := assign.ShardID
	n, noun := ingestPeers(assign)
	h := p.Data
	if h == nil {
		return fmt.Errorf("transport: shard %d: non-data peer on the ingest plane", id)
	}
	if h.NumShards != assign.NumShards || h.Dim != assign.Dim || h.ShardID != id {
		return fmt.Errorf("transport: shard %d: %s %d presented a stale shard directory (%d shards over dim %d aimed at shard %d; this deployment is %d over %d)",
			id, noun, h.ClientID, h.NumShards, h.Dim, h.ShardID, assign.NumShards, assign.Dim)
	}
	if h.ClientID < 0 || h.ClientID >= n {
		return fmt.Errorf("transport: shard %d: %s id %d out of range [0, %d)", id, noun, h.ClientID, n)
	}
	if assign.NumHosts == 0 && (len(h.Members) != 1 || h.Members[0] != h.ClientID) {
		return fmt.Errorf("transport: shard %d: client %d roster %v, want [%d]", id, h.ClientID, h.Members, h.ClientID)
	}
	return nil
}

// seatData seats a shard's accepted ingest peers by ID — each DataHello
// checked (checkDataHello), every expected participant present once —
// and claims their rosters in the member directory it returns.
func seatData(assign ShardAssign, peers []Peer) (connPeers, []int, error) {
	id := assign.ShardID
	n, noun := ingestPeers(assign)
	conns := make(connPeers, n)
	memberHost := slices.Repeat([]int{-1}, len(assign.Weights)) // member → host, nobody claimed yet
	for _, p := range peers {
		if err := checkDataHello(p, assign); err != nil {
			return nil, nil, err
		}
		h := p.Data
		if conns[h.ClientID] != nil {
			return nil, nil, fmt.Errorf("transport: shard %d: duplicate %s id %d on the ingest plane", id, noun, h.ClientID)
		}
		if err := claimRoster(memberHost, h.ClientID, h.Members, fmt.Sprintf("transport: shard %d", id)); err != nil {
			return nil, nil, err
		}
		conns[h.ClientID] = p.Conn
	}
	for ci, conn := range conns {
		if conn == nil {
			return nil, nil, fmt.Errorf("transport: shard %d: no ingest connection from %s %d", id, noun, ci)
		}
	}
	return conns, memberHost, nil
}

// DirectGroup is the coordinator's plane on the direct shard tier: it
// assigns the partition and then, per round, gathers the shard
// reductions for the server step's selection (fl.Server.Select), serves
// FAB's fill through FillQuery round trips, and seals the round — each
// shard receives only its span of the selected member set and serves the
// values from its own sums, so the coordinator's egress per round is
// O(|J|) member indices, not O(N·|J|) broadcast payload.
// Single-goroutine state.
type DirectGroup struct {
	conns     []Conn
	links     peerLinks // how results arrive and seals leave: plain conns, or a durable coordinator's healing side
	bounds    []int     // nShards+1 chunk boundaries over [0, dim)
	nClients  int
	quantBits int

	mergedIdx  []int
	mergedSum  []float64
	mergedRank []int
	// reduceSecs[s] is the wall-clock wait for shard s's ShardResult in
	// the last gather — the per-shard reduce time the operational
	// surface reports. Overwritten every round; copied on emission.
	reduceSecs []float64

	round    int // the round being selected: what the fill hook queries for
	fillHook func(kappa int) ([]gs.FillCand, error)
	cands    []gs.FillCand
	candSeen []int // per-client dedupe slab for gathered candidates
	candGen  int

	spans [][]int // per-shard member spans of the round's seal
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
func (g *DirectGroup) gather(round, maxLen int) (gs.RangeAgg, error) {
	g.mergedIdx = g.mergedIdx[:0]
	g.mergedSum = g.mergedSum[:0]
	g.mergedRank = g.mergedRank[:0]
	for s := range g.reduceSecs {
		t0 := time.Now()
		msg, err := g.links.recv(s, round)
		g.reduceSecs[s] = time.Since(t0).Seconds()
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
			if j < g.bounds[s] || j >= g.bounds[s+1] || (i > 0 && j <= res.Idx[i-1]) {
				return gs.RangeAgg{}, fmt.Errorf("transport: round %d: shard %d result index %d out of order or range",
					round, s, j)
			}
			if rk := res.MinRank[i]; rk < 0 || rk >= maxLen {
				return gs.RangeAgg{}, fmt.Errorf("transport: round %d: shard %d result rank %d for index %d outside [0, %d)",
					round, s, rk, j, maxLen)
			}
		}
		g.mergedIdx = append(g.mergedIdx, res.Idx...)
		g.mergedSum = append(g.mergedSum, res.Sum...)
		g.mergedRank = append(g.mergedRank, res.MinRank...)
	}
	return gs.RangeAgg{Idx: g.mergedIdx, Sum: g.mergedSum, MinRank: g.mergedRank}, nil
}

// newDirectGroup builds a DirectGroup's partition state without sending
// any assignments (g.assign does; a resumed durable coordinator's shards
// are mid-run and already assigned, and their connections arrive later
// through rejoins). quantBits is the run's width, which ServerConfig.check
// bounds: the seals carry it with each round's scale.
func newDirectGroup(conns []Conn, dim int, weights []float64, quantBits int) (*DirectGroup, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("transport: direct group needs at least one shard")
	}
	if dim < 1 || len(weights) == 0 {
		return nil, fmt.Errorf("transport: bad direct group geometry (dim=%d clients=%d)", dim, len(weights))
	}
	g := &DirectGroup{conns: conns, links: plainPeers{conns: conns, noun: "shard"}, bounds: make([]int, len(conns)+1),
		nClients: len(weights), quantBits: quantBits, reduceSecs: make([]float64, len(conns)), candSeen: make([]int, len(weights))}
	for s := range conns {
		g.bounds[s], g.bounds[s+1] = tensor.ChunkBounds(dim, len(conns), s)
	}
	g.fillHook = g.fill
	return g, nil
}

// assign sends every shard the assignment, stamped with its identity.
func (g *DirectGroup) assign(assign ShardAssign) error {
	for s, conn := range g.conns {
		assign.ShardID = s
		if err := conn.Send(assign); err != nil {
			return fmt.Errorf("transport: assign direct shard %d: %w", s, err)
		}
	}
	return nil
}

// selectRound is the first half of a round: the decision. The server
// step selects over the shards' gathered reductions and snaps B onto its
// global b-bit grid; scale is the grid every shard is sealed with, and
// each reapplies the same snap to its span, bit for bit. Nothing has been
// sent to a shard when it returns (beyond fill queries), so a durable
// coordinator journals the decision between the halves.
func (g *DirectGroup) selectRound(srv *fl.Server, round, k, maxLen int) (main gs.Aggregate, scale float64, err error) {
	merged, err := g.gather(round, maxLen)
	if err != nil {
		return main, 0, err
	}
	g.round = round
	meta := gs.DirectMeta{NumClients: g.nClients, MaxLen: maxLen, Fill: g.fillHook}
	if main, _, scale, err = srv.Select(merged, meta, k, 0); err != nil {
		return main, 0, err
	}
	// The seal's spans alias the server's scratch, safe even over
	// by-reference in-memory conns: round m+1's selection first gathers
	// every shard's round-m+1 result, sent only after that shard's
	// round-m seal copied its span into the downlink slice.
	g.spans = gs.MemberSpans(main.Indices, g.bounds, g.spans)
	return main, scale, nil
}

// seal is the second half: send each shard its span of the selection —
// member indices only, the values already live in the shards — with the
// one (bits, scale) grid they all share.
func (g *DirectGroup) seal(round int, scale float64) error {
	for s := range g.conns {
		seal := RoundSeal{Round: round, Members: g.spans[s], Bits: g.quantBits, Scale: scale}
		if err := g.links.send(s, round, seal); err != nil {
			return err
		}
	}
	return nil
}

// fill runs one FillQuery round trip for the round being selected
// across every shard and merges the validated candidates: each client
// may contribute at most one (its rank-κ pair lives in exactly one
// shard), candidate coordinates must lie in the answering shard's
// range, and the magnitudes must be real and non-negative — a malformed
// reply fails as a protocol error, not a corrupted selection. It talks
// to the raw connections: a shard death inside the round trip errors
// the run on every tier.
func (g *DirectGroup) fill(kappa int) ([]gs.FillCand, error) {
	round := g.round
	var q any = FillQuery{Round: round, Kappa: kappa}
	for s, conn := range g.conns {
		if err := conn.Send(q); err != nil {
			return nil, fmt.Errorf("transport: round %d fill query to shard %d: %w", round, s, err)
		}
	}
	g.cands = g.cands[:0]
	g.candGen++
	for s, conn := range g.conns {
		msg, err := conn.Recv()
		if err != nil {
			return nil, fmt.Errorf("transport: round %d fill recv from shard %d: %w", round, s, err)
		}
		fc, ok := msg.(FillCandidates)
		if !ok {
			return nil, fmt.Errorf("transport: round %d: shard %d sent %T, want FillCandidates", round, s, msg)
		}
		if fc.Round != round || fc.ShardID != s {
			return nil, fmt.Errorf("transport: round %d: stale fill candidates (round %d from shard %d)",
				round, fc.Round, fc.ShardID)
		}
		if len(fc.Client) != len(fc.Idx) || len(fc.Client) != len(fc.AbsVal) {
			return nil, fmt.Errorf("transport: round %d: shard %d fill shape %d/%d/%d",
				round, s, len(fc.Client), len(fc.Idx), len(fc.AbsVal))
		}
		for i, ci := range fc.Client {
			if ci < 0 || ci >= g.nClients {
				return nil, fmt.Errorf("transport: round %d: shard %d fill client %d out of range [0, %d)",
					round, s, ci, g.nClients)
			}
			if g.candSeen[ci] == g.candGen {
				return nil, fmt.Errorf("transport: round %d: client %d has fill candidates from two shards", round, ci)
			}
			g.candSeen[ci] = g.candGen
			if j := fc.Idx[i]; j < g.bounds[s] || j >= g.bounds[s+1] {
				return nil, fmt.Errorf("transport: round %d: shard %d fill index %d outside its range", round, s, j)
			}
			if v := fc.AbsVal[i]; math.IsNaN(v) || v < 0 {
				return nil, fmt.Errorf("transport: round %d: shard %d fill magnitude %v is not a non-negative real", round, s, v)
			}
			g.cands = append(g.cands, gs.FillCand{Idx: fc.Idx[i], AbsVal: fc.AbsVal[i], Client: ci})
		}
	}
	return g.cands, nil
}
