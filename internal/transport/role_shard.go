package transport

import (
	"fmt"
	"math"

	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// This file is the direct-plane shard's round, written once. Every tier
// — the ordered barrier at any staleness window (direct.go), the
// re-seating desk (durable_shard.go), the cohort over host muxes
// (population.go) — runs the same three steps on the same state and
// differs only in its ingest policy: which slices it hands to admit and
// when, over what control link it seals, and how it reads the fetches
// it answers.
//
//	admit       one validated SliceUpload into the round's barrier
//	seal        reduce → ShardResult → FillQuery*/RoundSeal → downlink slice
//	checkFetch  one validated SliceFetch, which the tier answers from
//	            the sealed slice

// shardRound is one direct shard's per-run round state: the reduction
// scratch, the barrier's upload slots, and the dedupe slab. Slots are
// barrier positions (the client ID on the per-client planes, the cohort
// position on the population plane); who is the identity a slot is
// filled by, which indexes the weights and names the peer in errors.
type shardRound struct {
	shardID, quantBits int
	lo, hi             int
	weights            []float64
	// peer names an uploader and fetcher a downlink reader in errors:
	// "client" for both, or "member" and "host" on the population plane.
	peer, fetcher string

	scratch *gs.AggScratch
	uploads []gs.ClientUpload
	ranks   [][]int
	// Duplicate-coordinate slab, one token per admitted slice.
	seen  []int
	token int

	fill                []gs.FillCand
	fillClient, fillIdx []int
	fillAbs             []float64
}

// downSlice is a sealed round's broadcast slice as a shard serves it:
// the selected members of its range, the values reconstructed from its
// own reduction, and the seal's quantization grid.
type downSlice struct {
	idx   []int
	val   []float64
	bits  int
	scale float64
}

// message boxes the slice as the round's SliceBroadcast — once, for
// every reader it is sent to.
func (d *downSlice) message(round, shardID int) any {
	return SliceBroadcast{Round: round, ShardID: shardID, Idx: d.idx, Val: d.val, Bits: d.bits, Scale: d.scale}
}

// newShardRound sizes the round state for a validated direct
// assignment with slots barrier positions.
func newShardRound(assign ShardAssign, slots int, peer, fetcher string) *shardRound {
	lo, hi := tensor.ChunkBounds(assign.Dim, assign.NumShards, assign.ShardID)
	sr := &shardRound{
		shardID: assign.ShardID, quantBits: assign.QuantBits, lo: lo, hi: hi,
		weights: assign.Weights, peer: peer, fetcher: fetcher,
		scratch: gs.NewAggScratch(0),
		seen:    make([]int, assign.Dim),
	}
	sr.scratch.Reserve(assign.Dim)
	sr.resize(slots)
	return sr
}

// resize sets the barrier's slot count (the population plane's cohort
// changes size every round).
func (sr *shardRound) resize(slots int) {
	if cap(sr.uploads) < slots {
		sr.uploads = make([]gs.ClientUpload, slots)
		sr.ranks = make([][]int, slots)
	}
	sr.uploads, sr.ranks = sr.uploads[:slots], sr.ranks[:slots]
}

// checkAssign is the shard runners' shared validation of the
// coordinator's assignment.
func checkAssign(assign ShardAssign) error {
	if assign.NumShards < 1 || assign.ShardID < 0 || assign.ShardID >= assign.NumShards {
		return fmt.Errorf("transport: shard id %d out of range [0, %d)", assign.ShardID, assign.NumShards)
	}
	if assign.Dim < 1 || assign.Rounds < 0 || len(assign.Weights) == 0 {
		return fmt.Errorf("transport: bad shard assignment (dim=%d rounds=%d clients=%d)",
			assign.Dim, assign.Rounds, len(assign.Weights))
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
// up's own buffers. The per-client tiers therefore pass the codec's
// decode scratch straight through (nothing reads the connection again
// before the seal); the population tier, whose members share one link,
// copies first (copySlice) and admits the copy.
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
// report the ShardResult on the control link, serve the coordinator's
// FillQuery round trips until its RoundSeal arrives, and build the
// round's downlink slice into ds from the shard's own reduction — the
// seal carries member indices only, so a corrupted member set fails
// here, before any reader sees it — snapped onto the seal's global
// grid when the run quantizes (every shard snaps against the same
// (bits, scale), so the reassembled B is the engine's quantized
// aggregate bit for bit). ctl is the coordinator link: a plain Conn, or
// the durable shardCtl, which heals itself and drops stale replays.
func (sr *shardRound) seal(m int, ctl Conn, ds *downSlice) error {
	red := gs.RangeReduceInto(sr.scratch, sr.uploads, sr.ranks, sr.lo, sr.hi)
	var res any = ShardResult{Round: m, ShardID: sr.shardID, Idx: red.Idx, Sum: red.Sum, MinRank: red.MinRank}
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
			sr.fill = gs.AppendFillCands(sr.fill[:0], sr.uploads, sr.ranks, c.Kappa)
			sr.fillClient, sr.fillIdx, sr.fillAbs = sr.fillClient[:0], sr.fillIdx[:0], sr.fillAbs[:0]
			for _, cand := range sr.fill {
				sr.fillClient = append(sr.fillClient, cand.Client)
				sr.fillIdx = append(sr.fillIdx, cand.Idx)
				sr.fillAbs = append(sr.fillAbs, cand.AbsVal)
			}
			reply := FillCandidates{Round: m, ShardID: sr.shardID, Client: sr.fillClient, Idx: sr.fillIdx, AbsVal: sr.fillAbs}
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
			ds.idx, ds.val, err = gs.BuildDownlinkSlice(ds.idx[:0], ds.val[:0], c.Members, red, sr.lo, sr.hi)
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
// for round m. The tier answers it with the sealed slice's message.
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
