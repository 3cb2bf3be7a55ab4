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
// each shard with FAB's cut — the rank cutoff κ and the shard's span of
// the fill — and the shard rebuilds its members and their values from
// its own reduction; clients pull their broadcast slices from every
// shard over the same data links, reassembling B locally. Per round:
//
//	clients ──SliceUpload──────────────▶ shards        (uplink data plane)
//	clients ◀─SliceBroadcast─(SliceFetch)─ shards      (downlink data plane)
//	clients ──RoundMeta───▶ coordinator ◀──ShardResult── shards
//	clients ◀─RoundRelease─ coordinator ──FillQuery?/RoundSeal──▶ shards
//
// The coordinator's per-round ingest shrinks from O(N·k) routed payload
// to O(N) scalar control messages plus O(S·MaxLen) counts — each shard's
// min-rank histogram, off which it reads κ and the rank-κ union's size —
// and, when the union leaves B short or the run quantizes, at most N
// rank-κ fill candidates and S union maxima: it never receives a gradient
// upload nor a shard's O(|J|) reduction. Its per-round egress shrinks from
// the O(N·|J|) broadcast to O(N) RoundRelease scalars plus the seals' κ
// and fill spans (the zero-B-payload test pins both directions). Each
// shard runs a per-round client barrier: exactly one slice per client
// per round (empty slices included), so a complete range is a counted
// fact, and a dead client surfaces as a connection error on the barrier
// instead of a wedge. The downlink is ordered the same way: a shard
// serves round-m slices only after the coordinator's round-m seal, and
// clients fetch only after the coordinator's RoundRelease — which is
// sent after every shard was sealed — so no client can observe a
// partially sealed round. Selection stays exact: shards compute the
// range reductions from the slices' explicit local ranks, and the
// per-upload metadata a histogram does not carry is served by the shards
// on demand (FAB's rank-κ fill candidates via FillQuery — each client's
// rank-κ pair lives in exactly one shard). The trajectory is
// bit-identical to the unsharded routed and single-process paths, over
// in-memory pairs and TCP alike.

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

	// FillQuery asks every shard for its rank-Kappa fill candidates and
	// its union's largest |b_j| — what FAB's selection needs from the
	// shards when the rank-κ union leaves the downlink short, or when the
	// run quantizes and B's scale is wanted.
	FillQuery struct {
		Round int
		Kappa int
	}

	// FillCandidates is one shard's reply (gs.ServeFill): for each of its
	// clients whose round slice holds a pair ranked Kappa on a coordinate
	// outside the shard's rank-κ union, the candidate tuple (parallel
	// slices, clients ascending) with the coordinate's exact b_j in Sum;
	// and Max, the largest |b_j| over that union. |J| is then the union
	// size plus the added fill, and B's q-bit scale the largest of every
	// shard's Max and the added fill's |b_j|.
	FillCandidates struct {
		Round   int
		ShardID int
		Client  []int
		Idx     []int
		AbsVal  []float64
		Sum     []float64
		Max     float64
	}

	// RoundSeal closes a round at a shard: the coordinator's selection is
	// final. The shard's members are its reduced coordinates with minimal
	// upload rank below Kappa (FAB's rank-κ union) plus Members, its span
	// of the fill (ascending); Kappa = 0 makes Members the whole span.
	// The shard reconstructs the members' values from its own merged
	// sums in one pass over its reduction (gs.SealSlice) — the
	// coordinator never holds B's payload — then serves the round's
	// SliceFetch requests (right away, or after sealing W more rounds
	// under a staleness window). With quantization on, Bits and Scale
	// carry the aggregate's GLOBAL grid (scale = max |value| over the
	// whole selection, from the shards' FillCandidates): every shard
	// snaps its reconstructed span onto that one grid, so the reassembled
	// B is bit-identical to the engine's quantized aggregate.
	RoundSeal struct {
		Round   int
		Kappa   int
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

// directGroup is the coordinator's plane on the direct shard tier: it
// assigns the partition and then, per round, gathers and merges the
// shards' min-rank histograms for the server step's selection
// (fl.Server.Select), serves FAB's fill through FillQuery round trips,
// and seals the round — each shard receives κ and its span of the fill
// and serves its members' values from its own sums, so the coordinator's
// egress per round is O(S) seals of at most N fill indices, not
// O(N·|J|) broadcast payload. Single-goroutine state.
type directGroup struct {
	conns     []Conn
	links     peerLinks // how results arrive and seals leave: plain conns, or a durable coordinator's healing side
	bounds    []int     // nShards+1 chunk boundaries over [0, dim)
	nClients  int
	quantBits int

	hist []int // the round's merged min-rank histogram
	// reduceSecs[s] is the wall-clock wait for shard s's ShardResult in
	// the last gather — the per-shard reduce time the operational
	// surface reports. Overwritten every round; copied on emission.
	reduceSecs []float64

	round    int // the round being selected: what the fill hook queries for
	fillHook gs.FillServer
	cands    []gs.FillCand
	candSeen []int // per-client dedupe slab for gathered candidates
	candGen  int

	kappa int     // the round's seal cutoff
	spans [][]int // per-shard fill spans of the round's seal
}

// gather collects every shard's round histogram and merges them into
// one of length maxLen, the round's longest upload. The coordinator
// trusts shards no more than shards trust the coordinator: a result must
// carry a histogram and no reduction, no longer than maxLen, of
// non-negative counts summing to at most the shard's range width; and
// no merged rank may count more coordinates than the round has
// uploaders (a rank holds one coordinate per upload) — a malformed
// result fails as a protocol error here rather than as a corrupted
// selection.
func (g *directGroup) gather(round, maxLen, uploaders int) ([]int, error) {
	g.hist = slices.Grow(g.hist[:0], maxLen)[:maxLen]
	clear(g.hist)
	for s := range g.reduceSecs {
		t0 := time.Now()
		msg, err := g.links.recv(s, round)
		g.reduceSecs[s] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		res, ok := msg.(ShardResult)
		if !ok {
			return nil, fmt.Errorf("transport: round %d: shard %d sent %T, want ShardResult", round, s, msg)
		}
		if res.Round != round || res.ShardID != s {
			return nil, fmt.Errorf("transport: round %d: stale result (round %d from shard %d)",
				round, res.Round, res.ShardID)
		}
		if len(res.Idx)+len(res.Sum)+len(res.MinRank) > 0 {
			return nil, fmt.Errorf("transport: round %d: shard %d sent a %d-coordinate reduction, want its rank histogram",
				round, s, max(len(res.Idx), len(res.Sum), len(res.MinRank)))
		}
		if len(res.Hist) > maxLen {
			return nil, fmt.Errorf("transport: round %d: shard %d histogram has %d ranks, the longest upload %d",
				round, s, len(res.Hist), maxLen)
		}
		width, total := g.bounds[s+1]-g.bounds[s], 0
		for r, n := range res.Hist {
			if n < 0 || n > width-total {
				return nil, fmt.Errorf("transport: round %d: shard %d histogram count %d at rank %d is negative or overflows its %d coordinates",
					round, s, n, r, width)
			}
			total += n
			g.hist[r] += n
		}
	}
	for r, n := range g.hist {
		if n > uploaders {
			return nil, fmt.Errorf("transport: round %d: %d coordinates first uploaded at rank %d by %d uploaders",
				round, n, r, uploaders)
		}
	}
	return g.hist, nil
}

// newDirectGroup builds a directGroup's partition state without sending
// any assignments (g.assign does; a resumed durable coordinator's shards
// are mid-run and already assigned, and their connections arrive later
// through rejoins). quantBits is the run's width, which ServerConfig.check
// bounds: the seals carry it with each round's scale.
func newDirectGroup(conns []Conn, dim int, weights []float64, quantBits int) (*directGroup, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("transport: direct group needs at least one shard")
	}
	if dim < 1 || len(weights) == 0 {
		return nil, fmt.Errorf("transport: bad direct group geometry (dim=%d clients=%d)", dim, len(weights))
	}
	g := &directGroup{conns: conns, links: plainPeers{conns: conns, noun: "shard"}, bounds: make([]int, len(conns)+1),
		nClients: len(weights), quantBits: quantBits, reduceSecs: make([]float64, len(conns)), candSeen: make([]int, len(weights))}
	for s := range conns {
		g.bounds[s], g.bounds[s+1] = tensor.ChunkBounds(dim, len(conns), s)
	}
	g.fillHook = g.fill
	return g, nil
}

// assign sends every shard the assignment, stamped with its identity.
func (g *directGroup) assign(assign ShardAssign) error {
	for s, conn := range g.conns {
		assign.ShardID = s
		if err := conn.Send(assign); err != nil {
			return fmt.Errorf("transport: assign direct shard %d: %w", s, err)
		}
	}
	return nil
}

// selectRound is the first half of a round: the decision. The server
// step selects B off the shards' merged histograms and finds its global
// b-bit grid; scale is the grid every shard is sealed with, and each
// snaps its rebuilt span onto it, bit for bit. Nothing has been sent to
// a shard when it returns (beyond fill queries), so a durable
// coordinator journals the decision between the halves.
func (g *directGroup) selectRound(srv *fl.Server, round, k, maxLen, uploaders int) (cut gs.Cut, scale float64, err error) {
	hist, err := g.gather(round, maxLen, uploaders)
	if err != nil {
		return cut, 0, err
	}
	g.round = round
	if cut, scale, err = srv.Select(hist, g.fillHook, k); err != nil {
		return cut, 0, err
	}
	// The seal's spans alias the server's scratch, safe even over
	// by-reference in-memory conns: round m+1's selection first gathers
	// every shard's round-m+1 result, sent only after that shard's
	// round-m seal built its downlink slice.
	g.kappa, g.spans = cut.Kappa, gs.MemberSpans(cut.Fill, g.bounds, g.spans)
	return cut, scale, nil
}

// seal is the second half: send each shard the cut — κ and its span of
// the fill, indices only, the values already live in the shards — with
// the one (bits, scale) grid they all share.
func (g *directGroup) seal(round int, scale float64) error {
	for s := range g.conns {
		seal := RoundSeal{Round: round, Kappa: g.kappa, Members: g.spans[s], Bits: g.quantBits, Scale: scale}
		if err := g.links.send(s, round, seal); err != nil {
			return err
		}
	}
	return nil
}

// fill runs one FillQuery round trip for the round being selected
// across every shard and merges the validated replies: each client may
// contribute at most one candidate (its rank-κ pair lives in exactly one
// shard), candidate coordinates must lie in the answering shard's range,
// the magnitudes must be real and non-negative, the sums finite, and the
// union maximum a finite non-negative real — a malformed reply fails as
// a protocol error, not a corrupted selection or grid. It talks to the
// raw connections: a shard death inside the round trip errors the run on
// every tier.
func (g *directGroup) fill(kappa int) ([]gs.FillCand, float64, error) {
	round := g.round
	var q any = FillQuery{Round: round, Kappa: kappa}
	for s, conn := range g.conns {
		if err := conn.Send(q); err != nil {
			return nil, 0, fmt.Errorf("transport: round %d fill query to shard %d: %w", round, s, err)
		}
	}
	g.cands = g.cands[:0]
	g.candGen++
	var unionMax float64
	for s, conn := range g.conns {
		msg, err := conn.Recv()
		if err != nil {
			return nil, 0, fmt.Errorf("transport: round %d fill recv from shard %d: %w", round, s, err)
		}
		fc, ok := msg.(FillCandidates)
		if !ok {
			return nil, 0, fmt.Errorf("transport: round %d: shard %d sent %T, want FillCandidates", round, s, msg)
		}
		if fc.Round != round || fc.ShardID != s {
			return nil, 0, fmt.Errorf("transport: round %d: stale fill candidates (round %d from shard %d)",
				round, fc.Round, fc.ShardID)
		}
		if len(fc.Client) != len(fc.Idx) || len(fc.Client) != len(fc.AbsVal) || len(fc.Client) != len(fc.Sum) {
			return nil, 0, fmt.Errorf("transport: round %d: shard %d fill shape %d/%d/%d/%d",
				round, s, len(fc.Client), len(fc.Idx), len(fc.AbsVal), len(fc.Sum))
		}
		if math.IsNaN(fc.Max) || math.IsInf(fc.Max, 0) || fc.Max < 0 {
			return nil, 0, fmt.Errorf("transport: round %d: shard %d union maximum %v is not a finite non-negative real", round, s, fc.Max)
		}
		unionMax = max(unionMax, fc.Max)
		for i, ci := range fc.Client {
			if ci < 0 || ci >= g.nClients {
				return nil, 0, fmt.Errorf("transport: round %d: shard %d fill client %d out of range [0, %d)",
					round, s, ci, g.nClients)
			}
			if g.candSeen[ci] == g.candGen {
				return nil, 0, fmt.Errorf("transport: round %d: client %d has fill candidates from two shards", round, ci)
			}
			g.candSeen[ci] = g.candGen
			if j := fc.Idx[i]; j < g.bounds[s] || j >= g.bounds[s+1] {
				return nil, 0, fmt.Errorf("transport: round %d: shard %d fill index %d outside its range", round, s, j)
			}
			if v := fc.AbsVal[i]; math.IsNaN(v) || v < 0 {
				return nil, 0, fmt.Errorf("transport: round %d: shard %d fill magnitude %v is not a non-negative real", round, s, v)
			}
			if v := fc.Sum[i]; math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("transport: round %d: shard %d fill sum %v at index %d is not finite", round, s, v, fc.Idx[i])
			}
			g.cands = append(g.cands, gs.FillCand{Idx: fc.Idx[i], AbsVal: fc.AbsVal[i], Client: ci, Sum: fc.Sum[i]})
		}
	}
	return g.cands, unionMax, nil
}
