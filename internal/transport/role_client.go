package transport

import (
	"fmt"

	"fedsparse/internal/fl"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// This file holds the participant round's links, run by the participant's
// one round loop (protocol.go: runClientRounds) at any staleness window.
// The computation is not here: a member's local step and its residual
// settle are fl's Step and Settle, the code the engine runs. Every client
// tier goes through that loop and differs only in its roster and links:
// the client (its own ID, every round), the durable client
// (durable_client.go: the same roster over self-healing links) and the
// virtual host (population.go: a drawn cohort of its members over one
// model and enveloped member streams).
//
//	shardFan   the direct plane: split by range, upload, release, fetch
//	appliedSet the downlink: validate B, apply it, stamp J

// appliedSet is the downlink half of every participant's round and its
// trust boundary on B: it validates the aggregated B against the model,
// applies it, and stamps its index set as the J that fl.Settle folds the
// consumed upload mass out of the residuals by.
type appliedSet struct {
	who string
	id  int
	fl.JSet
}

// apply performs w ← w − η·B and makes B's index set the current J. B
// comes off the wire: a ragged pair list or a coordinate outside the
// model fails round m by name instead of panicking the process (value
// finiteness is the senders' boundary — validateUpload and
// gs.ValidateRangeSlice).
func (a *appliedSet) apply(m int, params []float64, lr float64, bIdx []int, bVal []float64) error {
	if len(bIdx) != len(bVal) {
		return fmt.Errorf("transport: %s %d round %d: broadcast carries %d indices with %d values",
			a.who, a.id, m, len(bIdx), len(bVal))
	}
	for vi, j := range bIdx {
		if j < 0 || j >= len(params) {
			return fmt.Errorf("transport: %s %d round %d: broadcast index %d outside [0, %d)",
				a.who, a.id, m, j, len(params))
		}
		params[j] -= lr * bVal[vi]
	}
	a.Stamp(bIdx)
	return nil
}

// recvBroadcast is the routed plane's downlink: the round-m Broadcast
// from the coordinator link.
func recvBroadcast(coord Conn, who string, id, m int) (Broadcast, error) {
	msg, err := coord.Recv()
	if err != nil {
		return Broadcast{}, fmt.Errorf("transport: %s %d round %d recv: %w", who, id, m, err)
	}
	bc, ok := msg.(Broadcast)
	if !ok {
		return Broadcast{}, fmt.Errorf("transport: %s %d round %d: expected Broadcast, got %T", who, id, m, msg)
	}
	if bc.Round != m {
		return Broadcast{}, fmt.Errorf("transport: %s %d round %d: stale broadcast (round %d)", who, id, m, bc.Round)
	}
	return bc, nil
}

// sliceBufs holds one upload's per-shard range slices. The caller owns
// it: a slice must stay untouched after it is sent until its round's
// broadcast is applied, W rounds later (a ring slot of runClientRounds).
type sliceBufs struct {
	idx  [][]int
	val  [][]float64
	rank [][]int
}

// shardFan is a participant's fan-out over the direct data plane: one
// data link per shard, dialed from the Init directory. who and id name
// the owner (a client, or a host whose members' slices travel enveloped).
type shardFan struct {
	who    string
	id     int
	hello  DataHello // the participant's data-plane hello; connect aims it at a shard
	conns  []Conn
	host   bool     // a host's fan: each slice goes on its member's stream (sendMember)
	addrs  []string // mutable: a durable coordinator's Redo re-points a shard
	bounds []int    // len(conns)+1 chunk boundaries over [0, dim)
	dial   func(addr string) (Conn, error)

	// Durable fans: a ring of the last rounds' sent slices per link. nil
	// rings = links that are never re-seated.
	rings []ring
}

// dialShards opens participant p's fan: chunk bounds, one dial and one
// DataHello naming p's roster per shard.
func dialShards(p participant, addrs []string, dim int) (*shardFan, error) {
	dial := p.dial
	if dial == nil {
		dial = Dial
	}
	n := len(addrs)
	f := &shardFan{who: p.who, id: p.id, hello: DataHello{ClientID: p.id, NumShards: n, Dim: dim, Members: p.roster},
		conns: make([]Conn, n), host: p.host, addrs: append([]string(nil), addrs...), bounds: make([]int, n+1), dial: dial}
	for s := 0; s < n; s++ {
		lo, hi := tensor.ChunkBounds(dim, n, s)
		f.bounds[s], f.bounds[s+1] = lo, hi
		if err := f.connect(s); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// connect dials shard s and sends the data-plane hello.
func (f *shardFan) connect(s int) error {
	conn, err := f.dial(f.addrs[s])
	if err != nil {
		return fmt.Errorf("transport: %s %d dial shard %d (%s): %w", f.who, f.id, s, f.addrs[s], err)
	}
	hello := f.hello
	hello.ShardID = s
	if err := conn.Send(hello); err != nil {
		conn.Close()
		return fmt.Errorf("transport: %s %d data hello to shard %d: %w", f.who, f.id, s, err)
	}
	f.conns[s] = conn
	return nil
}

func (f *shardFan) close() { closeConns(f.conns) }

// shardOf returns the shard owning coordinate j.
func (f *shardFan) shardOf(j int) int { return tensor.ChunkOf(f.hello.Dim, len(f.conns), j) }

// split partitions an upload's pairs by owning shard into b, each pair
// with its explicit rank in the full upload. The first split into b
// sizes each shard's buffers to that shard's count in one step, not to
// k (a shard's slice is about k/S pairs); later splits reuse them.
func (f *shardFan) split(pairs sparse.Vec, b *sliceBufs) {
	n := len(f.conns)
	if b.idx == nil {
		b.idx, b.val, b.rank = make([][]int, n), make([][]float64, n), make([][]int, n)
		count := make([]int, n)
		for _, j := range pairs.Idx {
			count[f.shardOf(j)]++
		}
		for s, c := range count {
			b.idx[s], b.val[s], b.rank[s] = make([]int, 0, c), make([]float64, 0, c), make([]int, 0, c)
		}
	}
	for s := 0; s < n; s++ {
		b.idx[s], b.val[s], b.rank[s] = b.idx[s][:0], b.val[s][:0], b.rank[s][:0]
	}
	for pi, j := range pairs.Idx {
		s := f.shardOf(j)
		b.idx[s] = append(b.idx[s], j)
		b.val[s] = append(b.val[s], pairs.Val[pi])
		b.rank[s] = append(b.rank[s], pi)
	}
}

// upload sends sender's round-m slices, one per shard (empty included:
// the shard's barrier counts them). Every slice carries the upload's
// global quantization grid — the values were quantized once, before the
// split. A host fan envelopes each slice on the sender's member stream;
// a durable fan sends through its rings and never fails the round (see
// sendHealing).
func (f *shardFan) upload(m, sender int, b *sliceBufs, bits int, scale float64) error {
	for s, conn := range f.conns {
		up := SliceUpload{ClientID: sender, Round: m, Idx: b.idx[s], Val: b.val[s], Rank: b.rank[s], Bits: bits, Scale: scale}
		var err error
		switch {
		case f.rings != nil:
			f.sendHealing(s, m, up)
		case f.host:
			err = sendMember(conn, sender, up)
		default:
			err = conn.Send(up)
		}
		if err != nil {
			return fmt.Errorf("transport: %s %d round %d slice to shard %d (upload of %d): %w", f.who, f.id, m, s, sender, err)
		}
	}
	return nil
}

// download is the direct plane's downlink: wait on the coordinator link
// for round m's RoundRelease — the epoch guard: it is sent only after
// every shard sealed round m — then fetch and reassemble B.
func (f *shardFan) download(coord Conn, m int, dstIdx []int, dstVal []float64) ([]int, []float64, error) {
	msg, err := coord.Recv()
	if err != nil {
		return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d release recv: %w", f.who, f.id, m, err)
	}
	rel, ok := msg.(RoundRelease)
	if !ok {
		return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: expected RoundRelease, got %T", f.who, f.id, m, msg)
	}
	if rel.Round != m {
		return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: stale release (round %d)", f.who, f.id, m, rel.Round)
	}
	return f.fetch(m, rel.Elems, dstIdx, dstVal)
}

// fetch is the shard-served downlink: send every shard the round's
// SliceFetch, then gather one validated SliceBroadcast from each in
// shard order, reassembling B into dstIdx/dstVal by concatenation
// (shard ranges are contiguous and ascending, so the result is the
// coordinator's sorted member list). Each slice must carry the fetched
// round (a stale slice is a protocol error, not a silently applied old
// broadcast), the serving shard's identity, parallel index/value lists,
// and strictly ascending coordinates inside the shard's range; the
// reassembled total must match the coordinator's elems, so a truncated
// slice fails loudly instead of silently dropping coordinates.
func (f *shardFan) fetch(round, elems int, dstIdx []int, dstVal []float64) ([]int, []float64, error) {
	var fetch any = SliceFetch{ClientID: f.id, Round: round}
	for s := range f.conns {
		if f.conns[s] == nil {
			// Only a durable fan leaves a link broken (sendHealing).
			if err := f.reconnect(s, round); err != nil {
				return dstIdx, dstVal, err
			}
		}
		if err := f.conns[s].Send(fetch); err != nil {
			return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d fetch to shard %d: %w", f.who, f.id, round, s, err)
		}
	}
	for s, conn := range f.conns {
		msg, err := conn.Recv()
		if err != nil {
			return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d slice recv from shard %d: %w", f.who, f.id, round, s, err)
		}
		sb, ok := msg.(SliceBroadcast)
		if !ok {
			return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: shard %d sent %T, want SliceBroadcast", f.who, f.id, round, s, msg)
		}
		if sb.Round != round {
			return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: stale broadcast slice from shard %d (round %d)",
				f.who, f.id, round, s, sb.Round)
		}
		if sb.ShardID != s {
			return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: broadcast slice on shard %d's link claims shard %d",
				f.who, f.id, round, s, sb.ShardID)
		}
		if len(sb.Idx) != len(sb.Val) {
			return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: shard %d broadcast slice shape %d/%d",
				f.who, f.id, round, s, len(sb.Idx), len(sb.Val))
		}
		for i, j := range sb.Idx {
			if j < f.bounds[s] || j >= f.bounds[s+1] || (i > 0 && j <= sb.Idx[i-1]) {
				return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: shard %d broadcast index %d out of order or range",
					f.who, f.id, round, s, j)
			}
		}
		dstIdx = append(dstIdx, sb.Idx...)
		dstVal = append(dstVal, sb.Val...)
	}
	if len(dstIdx) != elems {
		return dstIdx, dstVal, fmt.Errorf("transport: %s %d round %d: reassembled %d broadcast elements, coordinator sealed %d — truncated or padded shard slice",
			f.who, f.id, round, len(dstIdx), elems)
	}
	return dstIdx, dstVal, nil
}
