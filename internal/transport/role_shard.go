package transport

import (
	"fmt"
	"math"

	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// This file is the direct-plane shard's body (runShard), its round and
// its one loop. Both entry points, RunDirectShard and
// RunDurableDirectShard, run runShard, and every tier — the ordered
// barrier at any staleness window (direct.go), the re-seating desk
// (durable_shard.go), the cohort over host links (population.go) —
// supplies only its shardLinks: where slices arrive and fetches are
// answered, who uploads each round, and whether payloads are copied.
// The control link is a plain Conn, or the durable healLink (rejoin.go).
//
//	admit       one validated SliceUpload into the round's barrier
//	seal        reduce → ShardResult{Hist} → FillQuery*/RoundSeal → downlink slice
//	checkFetch  one validated SliceFetch, answered from the sealed slice

// shardRound is one direct shard's per-run round state: the loop's
// bounds, the reduction scratch, the barrier's upload slots, and the
// dedupe slab. Slots are barrier positions (the client ID on the
// per-client planes, the cohort position on the population plane); who
// is the identity a slot is filled by, which indexes the weights and
// names the peer in errors.
type shardRound struct {
	shardID, quantBits    int
	lo, hi                int
	start, rounds, window int
	weights               []float64
	// peer names an uploader and fetcher a downlink reader in errors:
	// "client" for both, or "member" and "host" on the population plane.
	peer, fetcher string

	scratch *gs.AggScratch
	uploads []gs.ClientUpload
	ranks   [][]int
	// Duplicate-coordinate slab, one token per admitted slice.
	seen  []int
	token int

	hist                []int
	fill                []gs.FillCand
	fillClient, fillIdx []int
	fillAbs, fillSum    []float64
}

// shardLinks is what distinguishes one shard tier from another.
type shardLinks struct {
	// up yields uploader who's next message; down reads fetcher f's
	// fetch and sends it the reply, for fetchers 0..nDown-1. A healing
	// implementation re-seats a broken link and drops stale resends
	// inside the call. Errors come back for the round to name.
	up    interface{ recv(who, m int) (any, error) }
	down  peerLinks
	nDown int
	// roster returns round m's uploaders in barrier order: every client
	// by ID (fixedRoster), or the population's per-round CohortAssign.
	roster func(m int) ([]int, error)
	// copies is the population plane's: members share one link's decode
	// scratch, so each admitted slice is copied into its position's
	// slot; and a host with no drawn member sits outside the next
	// round's barrier, so it may still be reading a served slice when
	// the next seal rebuilds it — every served slice is a fresh copy.
	copies bool
	slots  []SliceUpload
}

// connPeers are a shard's links that never heal: one Conn per peer.
type connPeers []Conn

func (c connPeers) recv(id, _ int) (any, error)   { return c[id].Recv() }
func (c connPeers) send(id, _ int, msg any) error { return c[id].Send(msg) }

// downSlice is a sealed round's broadcast slice as a shard serves it:
// the selected members of its range, the values reconstructed from its
// own reduction, the seal's quantization grid, and the buffer its
// SliceBroadcast is encoded into.
type downSlice struct {
	idx   []int
	val   []float64
	bits  int
	scale float64
	frame []byte
}

// message is the slice as the round's SliceBroadcast, encoded once into
// the slot's frame buffer and boxed into any once, for every reader it
// is sent to. fresh serves copies of the index and value lists instead
// of the slot's own (shardLinks.copies).
func (d *downSlice) message(round, shardID int, fresh bool) any {
	sb := SliceBroadcast{Round: round, ShardID: shardID, Idx: d.idx, Val: d.val, Bits: d.bits, Scale: d.scale}
	if fresh {
		sb.Idx, sb.Val = append([]int(nil), d.idx...), append([]float64(nil), d.val...)
	}
	d.frame = sb.encodeFrame(d.frame)
	return sb
}

// fixedRoster is the per-client planes' roster: every one of n clients,
// by ID, every round.
func fixedRoster(n int) func(int) ([]int, error) {
	ids := make([]int, n)
	for id := range ids {
		ids[id] = id
	}
	return func(int) ([]int, error) { return ids, nil }
}

// newShardRound sizes the round state for a validated direct
// assignment: a barrier slot per client, or on the population plane a
// cohort's members uploading and their hosts fetching.
func newShardRound(assign ShardAssign) *shardRound {
	slots, peer, fetcher := len(assign.Weights), "client", "client"
	if assign.NumHosts > 0 {
		slots, peer, fetcher = 0, "member", "host"
	}
	lo, hi := tensor.ChunkBounds(assign.Dim, assign.NumShards, assign.ShardID)
	sr := &shardRound{
		shardID: assign.ShardID, quantBits: assign.QuantBits, lo: lo, hi: hi,
		start: max(assign.StartRound, 1), rounds: assign.Rounds, window: assign.Window,
		weights: assign.Weights, peer: peer, fetcher: fetcher,
		scratch: gs.NewAggScratch(0),
		uploads: make([]gs.ClientUpload, 0, slots), ranks: make([][]int, 0, slots),
		seen: make([]int, assign.Dim),
	}
	sr.scratch.Reserve(assign.Dim)
	return sr
}

// checkAssign is every shard entry point's validation of the
// coordinator's assignment. The durable shard's coordinator is lockstep
// and per-client, so it alone also refuses a window and population hosts.
func checkAssign(assign ShardAssign, durable bool) error {
	id := assign.ShardID
	if assign.NumShards < 1 || id < 0 || id >= assign.NumShards {
		return fmt.Errorf("transport: shard id %d out of range [0, %d)", id, assign.NumShards)
	}
	if assign.Dim < 1 || assign.Rounds < 0 || len(assign.Weights) == 0 {
		return fmt.Errorf("transport: bad shard assignment (dim=%d rounds=%d clients=%d)",
			assign.Dim, assign.Rounds, len(assign.Weights))
	}
	if assign.Window < 0 || assign.Window > fl.MaxStaleness {
		return fmt.Errorf("transport: shard %d assigned staleness window %d outside [0, %d]", id, assign.Window, fl.MaxStaleness)
	}
	if durable && assign.Window != 0 {
		return fmt.Errorf("transport: shard %d: the durable tier requires the synchronous protocol (window %d)", id, assign.Window)
	}
	if durable && assign.NumHosts > 0 {
		return fmt.Errorf("transport: shard %d: the durable tier is per-client, not %d population hosts", id, assign.NumHosts)
	}
	return nil
}

// runShard is every direct shard's body once its control link ctl is
// up: one assignment receipt through recv, checkAssign, the ingest
// plane seated by seat, and the round loop over both.
func runShard(ctl Conn, recv func() (any, error), durable bool, seat func(ShardAssign) (*shardLinks, error)) error {
	msg, err := recv()
	if err != nil {
		return fmt.Errorf("transport: direct shard assign recv: %w", err)
	}
	assign, ok := msg.(ShardAssign)
	if !ok {
		return fmt.Errorf("transport: direct shard expected ShardAssign, got %T", msg)
	}
	if err := checkAssign(assign, durable); err != nil {
		return err
	}
	in, err := seat(assign)
	if err != nil {
		return err
	}
	return newShardRound(assign).run(ctl, in)
}

// run is the shard's round loop on every tier, W = the assigned window
// rounds deep: step m admits round m's slices and seals them into a
// ring of W+1 downlink slices, then serves round m−W's fetches; steps
// past Rounds only drain. Each link's message order across rounds is
// therefore fixed — SliceUpload(m), SliceFetch(m−W), SliceUpload(m+1),
// … — so a duplicated or early upload or fetch surfaces as a type or
// round mismatch at the next read, never as a silent double-count, and
// no client gets more than W rounds ahead of the slowest: its fetch for
// round m−W is answered only after round m sealed. A dead uploader
// errors the barrier and a dead fetcher the serve, instead of wedging
// the peers that already got through.
//
// Reusing a ring slot and sharing one reply — one boxed message, one
// encoded frame — among all fetchers is safe: slot m is next rebuilt at
// the seal of round m+W+1, which needs every uploader's round-m+W+1
// slice — and a client sends that only after it applied round m's
// broadcast. The sends are in line, so the frame is copied out before
// the serve moves on.
func (sr *shardRound) run(ctl Conn, in *shardLinks) error {
	w := sr.window
	ring := make([]downSlice, w+1)
	for m := sr.start; m <= sr.rounds+w; m++ {
		if m <= sr.rounds {
			if err := sr.ingest(m, in); err != nil {
				return err
			}
			if err := sr.seal(m, ctl, &ring[m%(w+1)]); err != nil {
				return err
			}
		}
		r := m - w
		if r < sr.start {
			continue
		}
		reply := ring[r%(w+1)].message(r, sr.shardID, in.copies)
		for f := 0; f < in.nDown; f++ {
			msg, err := in.down.recv(f, r)
			if err != nil {
				return fmt.Errorf("transport: shard %d round %d downlink serve recv from %s %d: %w", sr.shardID, r, sr.fetcher, f, err)
			}
			if err := sr.checkFetch(r, f, msg); err != nil {
				return err
			}
			if err := in.down.send(f, r, reply); err != nil {
				return fmt.Errorf("transport: shard %d round %d slice broadcast to %s %d: %w", sr.shardID, r, sr.fetcher, f, err)
			}
		}
	}
	return nil
}

// ingest is round m's barrier: one validated SliceUpload from every
// uploader on the round's roster, read in roster order — the
// reduction's client order. A slice is admitted by reference to its
// link's decode scratch (nothing reads that link again before the
// seal), or through its slot when the links copy.
func (sr *shardRound) ingest(m int, in *shardLinks) error {
	ids, err := in.roster(m)
	if err != nil {
		return err
	}
	if cap(sr.uploads) < len(ids) {
		sr.uploads, sr.ranks = make([]gs.ClientUpload, len(ids)), make([][]int, len(ids))
	}
	sr.uploads, sr.ranks = sr.uploads[:len(ids)], sr.ranks[:len(ids)]
	for i, who := range ids {
		msg, err := in.up.recv(who, m)
		if err != nil {
			return fmt.Errorf("transport: shard %d round %d recv from %s %d: %w", sr.shardID, m, sr.peer, who, err)
		}
		up, ok := msg.(SliceUpload)
		if !ok {
			return sr.wrongType(m, sr.peer, who, msg, "SliceUpload")
		}
		if in.copies {
			for len(in.slots) <= i {
				in.slots = append(in.slots, SliceUpload{})
			}
			copySlice(&in.slots[i], &up)
			up = in.slots[i]
		}
		if err := sr.admit(m, i, who, &up); err != nil {
			return err
		}
	}
	return nil
}

// wrongType reports an ingest message of the wrong kind.
func (sr *shardRound) wrongType(m int, noun string, who int, msg any, want string) error {
	return fmt.Errorf("transport: shard %d round %d: %s %d sent %T, want %s", sr.shardID, m, noun, who, msg, want)
}

// admit validates who's round-m slice — round, identity, width, then
// range, duplicates, rank order and finiteness (gs.ValidateRangeSlice)
// — and binds it to barrier slot pos BY REFERENCE: the reduction reads
// up's own buffers.
func (sr *shardRound) admit(m, pos, who int, up *SliceUpload) error {
	if up.Round != m {
		return fmt.Errorf("transport: shard %d round %d: stale slice from %s %d (round %d) — duplicate or skipped upload",
			sr.shardID, m, sr.peer, who, up.Round)
	}
	if up.ClientID != who {
		return fmt.Errorf("transport: shard %d round %d: slice on %s %d's connection claims %s %d",
			sr.shardID, m, sr.peer, who, sr.peer, up.ClientID)
	}
	if up.Bits != sr.quantBits {
		return fmt.Errorf("transport: shard %d round %d: %s %d slice at %d-bit quantization, run uses %d",
			sr.shardID, m, sr.peer, who, up.Bits, sr.quantBits)
	}
	sr.token++
	if err := gs.ValidateRangeSlice(up.Idx, up.Val, up.Rank, sr.lo, sr.hi, sr.seen, sr.token); err != nil {
		return fmt.Errorf("transport: shard %d round %d: %s %d slice: %w", sr.shardID, m, sr.peer, who, err)
	}
	sr.uploads[pos] = gs.ClientUpload{Pairs: sparse.Vec{Idx: up.Idx, Val: up.Val}, Weight: sr.weights[who]}
	sr.ranks[pos] = up.Rank
	return nil
}

// copySlice deep-copies src into dst, reusing dst's buffers.
func copySlice(dst, src *SliceUpload) {
	idx, val, rank := dst.Idx[:0], dst.Val[:0], dst.Rank[:0]
	*dst = *src
	dst.Idx = append(idx, src.Idx...)
	dst.Val = append(val, src.Val...)
	dst.Rank = append(rank, src.Rank...)
}

// seal closes round m over the admitted barrier: reduce the range,
// report its min-rank histogram in the ShardResult on the control link,
// serve the coordinator's FillQuery round trips until its RoundSeal
// arrives, and build the round's downlink slice into ds from the shard's
// own reduction in one pass (gs.SealSlice: the seal carries the cutoff
// and the fill indices only, so a corrupted cut fails here, before any
// reader sees it) — snapped onto the seal's global grid when the run
// quantizes (every shard snaps against the same (bits, scale), so the
// reassembled B is the engine's quantized aggregate bit for bit).
func (sr *shardRound) seal(m int, ctl Conn, ds *downSlice) error {
	red := gs.RangeReduceInto(sr.scratch, sr.uploads, sr.ranks, sr.lo, sr.hi)
	sr.hist = gs.RankHist(sr.hist, red)
	var res any = ShardResult{Round: m, ShardID: sr.shardID, Hist: sr.hist}
	if err := ctl.Send(res); err != nil {
		return fmt.Errorf("transport: shard %d round %d send: %w", sr.shardID, m, err)
	}
	for {
		msg, err := ctl.Recv()
		if err != nil {
			return fmt.Errorf("transport: shard %d round %d control recv: %w", sr.shardID, m, err)
		}
		switch c := msg.(type) {
		case FillQuery:
			if c.Round != m {
				return fmt.Errorf("transport: shard %d round %d: stale fill query (round %d)", sr.shardID, m, c.Round)
			}
			if c.Kappa < 0 {
				return fmt.Errorf("transport: shard %d round %d: fill query cutoff %d is negative", sr.shardID, m, c.Kappa)
			}
			var unionMax float64
			sr.fill, unionMax = gs.ServeFill(sr.fill[:0], sr.uploads, sr.ranks, red, c.Kappa)
			sr.fillClient, sr.fillIdx, sr.fillAbs, sr.fillSum = sr.fillClient[:0], sr.fillIdx[:0], sr.fillAbs[:0], sr.fillSum[:0]
			for _, cand := range sr.fill {
				sr.fillClient = append(sr.fillClient, cand.Client)
				sr.fillIdx = append(sr.fillIdx, cand.Idx)
				sr.fillAbs = append(sr.fillAbs, cand.AbsVal)
				sr.fillSum = append(sr.fillSum, cand.Sum)
			}
			reply := FillCandidates{Round: m, ShardID: sr.shardID, Client: sr.fillClient, Idx: sr.fillIdx,
				AbsVal: sr.fillAbs, Sum: sr.fillSum, Max: unionMax}
			if err := ctl.Send(reply); err != nil {
				return fmt.Errorf("transport: shard %d round %d fill send: %w", sr.shardID, m, err)
			}
		case RoundSeal:
			if c.Round != m {
				return fmt.Errorf("transport: shard %d round %d: stale round seal (round %d)", sr.shardID, m, c.Round)
			}
			if c.Bits != sr.quantBits {
				return fmt.Errorf("transport: shard %d round %d: seal at %d-bit quantization, run uses %d",
					sr.shardID, m, c.Bits, sr.quantBits)
			}
			if math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) || c.Scale < 0 {
				return fmt.Errorf("transport: shard %d round %d: seal scale %v is not a finite non-negative real",
					sr.shardID, m, c.Scale)
			}
			ds.idx, ds.val, err = gs.SealSlice(ds.idx[:0], ds.val[:0], c.Kappa, c.Members, red, sr.lo, sr.hi)
			if err != nil {
				return fmt.Errorf("transport: shard %d round %d seal: %w", sr.shardID, m, err)
			}
			if c.Bits > 0 {
				sparse.QuantizeToScale(ds.val, c.Bits, c.Scale)
			}
			ds.bits, ds.scale = c.Bits, c.Scale
			return nil
		default:
			return fmt.Errorf("transport: shard %d round %d: expected FillQuery or RoundSeal, got %T", sr.shardID, m, msg)
		}
	}
}

// checkFetch validates one downlink request: msg must be who's SliceFetch
// for round m.
func (sr *shardRound) checkFetch(m, who int, msg any) error {
	f, ok := msg.(SliceFetch)
	if !ok {
		return sr.wrongType(m, sr.fetcher, who, msg, "SliceFetch")
	}
	if f.Round != m {
		return fmt.Errorf("transport: shard %d round %d: stale fetch from %s %d (round %d)", sr.shardID, m, sr.fetcher, who, f.Round)
	}
	if f.ClientID != who {
		return fmt.Errorf("transport: shard %d round %d: fetch on %s %d's connection claims %s %d",
			sr.shardID, m, sr.fetcher, who, sr.fetcher, f.ClientID)
	}
	return nil
}
