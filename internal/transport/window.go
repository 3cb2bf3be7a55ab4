package transport

// This file is the bounded-staleness (windowed) variant of the direct
// data plane: the wire form of fl.Config.Staleness. With window W > 0
// the per-round client barrier of direct.go relaxes to a sliding
// admission window so a straggler cannot stall the fleet:
//
//   - A shard with seal cutoff `cut` admits SliceUploads tagged for
//     rounds in [cut+1, cut+1+W]. A slice tagged at or below the cut
//     missed its seal — the shard replies with a SliceNack and the
//     client folds the unsent slice back into its error-feedback
//     residual (the wire form of gs.FoldStale: the slice is simply
//     never aggregated and the client skips its residual subtraction).
//   - A round's reduction front is forced as soon as window pressure
//     appears — some client uploaded round cut+1+W, which by the
//     window's own arithmetic requires the cut to advance — or
//     completes normally when every live client delivered. Missing
//     clients contribute counted-but-empty uploads, exactly like the
//     engine's masked stale uploads.
//   - Clients pipeline W rounds deep: upload round m, then fetch and
//     apply the broadcast of round m−W. A client that falls more than W
//     rounds behind on its fetches finds its broadcast evicted from the
//     shard's ring and is evicted itself (SliceNack with Evicted set,
//     connection closed, ErrStaleClient at the client) — bounded
//     staleness, not unbounded asynchrony.
//
// Unlike the synchronous path, a shard serves each client from its own
// goroutine (admission and downlink serving interleave across clients
// by construction), with one mutex + condvar per shard guarding the
// pending and broadcast rings. Everything is copied at admission — the
// binary codec decodes into per-connection scratch that the next Recv
// overwrites, so retaining references across the concurrent reduction
// would be a use-after-reuse.
//
// The W = 0 wire path is untouched by construction: RunDirectShard,
// runServerDirect, and runClientDirect branch here only when the
// assignment/Init carries Window > 0, so the synchronous differential
// guarantees (bit-identical to the engine) cannot move.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// ErrStaleClient is returned (wrapped) by RunClient when a windowed
// shard evicts the client for falling more than the staleness window
// behind the reduction front. The client's connection is closed by the
// shard; the training state is abandoned mid-run.
var ErrStaleClient = errors.New("transport: client evicted from the staleness window")

// winPending is one in-flight round of a windowed shard's admission
// ring: which clients delivered, and their copied slice payloads.
type winPending struct {
	round int // the round this slot currently holds; 0 = unused
	any   bool
	got   []bool
	idx   [][]int
	val   [][]float64
	rank  [][]int
}

// winBroadcast is one sealed round of a windowed shard's downlink ring.
type winBroadcast struct {
	round int
	idx   []int
	val   []float64
	bits  int
	scale float64
}

// winShard is the shared state of one windowed direct shard. The
// pending ring has depth W+2 so the front being reduced (outside the
// lock) can never collide with a slot being admitted into — admissible
// tags are [cut+1, cut+1+W], all distinct from cut modulo W+2. The
// broadcast ring has depth W+2 for the mirrored reason: the slot being
// built at seal time holds a round already below every reader's
// eviction horizon.
type winShard struct {
	mu   sync.Mutex
	cond *sync.Cond

	window  int
	nRounds int
	cut     int // highest round cut for reduction; admission floor
	sealed  int // highest round whose broadcast is servable

	pending []winPending
	bcast   []winBroadcast

	dead   []bool
	live   int
	served []int // per client: highest round successfully served

	err error
}

func newWinShard(window, nClients, nRounds int) *winShard {
	st := &winShard{
		window:  window,
		nRounds: nRounds,
		pending: make([]winPending, window+2),
		bcast:   make([]winBroadcast, window+2),
		dead:    make([]bool, nClients),
		live:    nClients,
		served:  make([]int, nClients),
	}
	st.cond = sync.NewCond(&st.mu)
	for i := range st.pending {
		st.pending[i].got = make([]bool, nClients)
		st.pending[i].idx = make([][]int, nClients)
		st.pending[i].val = make([][]float64, nClients)
		st.pending[i].rank = make([][]int, nClients)
	}
	return st
}

// failLocked latches the first error and wakes every waiter.
func (st *winShard) failLocked(err error) {
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
}

func (st *winShard) fail(err error) {
	st.mu.Lock()
	st.failLocked(err)
	st.mu.Unlock()
}

func (st *winShard) markDead(ci int) {
	st.mu.Lock()
	if !st.dead[ci] {
		st.dead[ci] = true
		st.live--
		st.cond.Broadcast()
	}
	st.mu.Unlock()
}

// slotForLocked returns round t's pending slot, lazily recycling it
// from its previous tenant (a round below the cut, fully reduced).
func (st *winShard) slotForLocked(t int) *winPending {
	slot := &st.pending[t%len(st.pending)]
	if slot.round != t {
		slot.round = t
		slot.any = false
		for ci := range slot.got {
			slot.got[ci] = false
		}
	}
	return slot
}

// frontReadyLocked reports whether round f can be cut for reduction:
// every live client delivered it, or window pressure forces it (a
// round-f+W slice arrived — its sender needs the cut to advance before
// its next upload fits the window), or nobody is left alive.
func (st *winShard) frontReadyLocked(f int) bool {
	if st.err != nil || st.live == 0 {
		return true
	}
	slot := &st.pending[f%len(st.pending)]
	all := slot.round == f
	for ci := range st.dead {
		if !all {
			break
		}
		if !st.dead[ci] && !slot.got[ci] {
			all = false
		}
	}
	if all {
		return true
	}
	if trig := f + st.window; trig <= st.nRounds {
		ts := &st.pending[trig%len(st.pending)]
		if ts.round == trig && ts.any {
			return true
		}
	}
	return false
}

// drainedLocked reports whether every live client has been served the
// final round's broadcast — the windowed substitute for the lockstep
// path's "last loop iteration served everyone", needed because the
// caller closes every client connection on return.
func (st *winShard) drainedLocked() bool {
	if st.err != nil {
		return true
	}
	for ci := range st.dead {
		if !st.dead[ci] && st.served[ci] < st.nRounds {
			return false
		}
	}
	return true
}

// serveClient is one client's reader loop on a windowed shard: admit
// its SliceUploads into the pending ring (copying the payloads — the
// codec's decode scratch is reused by the next Recv) and serve its
// SliceFetches from the broadcast ring. Uploads and fetches arrive
// interleaved on one ordered connection, and the client sends nothing
// after a fetch until the reply arrives, so handling both sequentially
// here is deadlock-free — and it guarantees the NACK for a missed
// round-t upload is enqueued before the round-t broadcast reply on the
// same connection, which is what lets the client absorb NACKs during
// its fetches.
func (st *winShard) serveClient(assign ShardAssign, ci int, conn Conn) {
	var replyIdx []int
	var replyVal []float64
	for {
		msg, err := conn.Recv()
		if err != nil {
			st.markDead(ci)
			return
		}
		switch v := msg.(type) {
		case SliceUpload:
			if v.ClientID != ci {
				st.fail(fmt.Errorf("transport: shard %d: slice on client %d's connection claims client %d",
					assign.ShardID, ci, v.ClientID))
				return
			}
			if v.Bits != assign.QuantBits {
				st.fail(fmt.Errorf("transport: shard %d: client %d slice at %d-bit quantization, run uses %d",
					assign.ShardID, ci, v.Bits, assign.QuantBits))
				return
			}
			st.mu.Lock()
			if st.err != nil {
				st.mu.Unlock()
				return
			}
			t := v.Round
			switch {
			case t < 1 || t > assign.Rounds || t > st.cut+1+st.window:
				st.failLocked(fmt.Errorf("transport: shard %d: client %d slice for round %d outside admission window [%d, %d]",
					assign.ShardID, ci, t, st.cut+1, st.cut+1+st.window))
				st.mu.Unlock()
				return
			case t <= st.cut:
				// Missed the seal: refuse, the client keeps the residual.
				cut := st.cut
				st.mu.Unlock()
				if err := conn.Send(SliceNack{ClientID: ci, Round: t, Sealed: cut}); err != nil {
					st.markDead(ci)
					return
				}
			default:
				slot := st.slotForLocked(t)
				if slot.got[ci] {
					st.failLocked(fmt.Errorf("transport: shard %d: client %d sent two slices for round %d",
						assign.ShardID, ci, t))
					st.mu.Unlock()
					return
				}
				slot.idx[ci] = append(slot.idx[ci][:0], v.Idx...)
				slot.val[ci] = append(slot.val[ci][:0], v.Val...)
				slot.rank[ci] = append(slot.rank[ci][:0], v.Rank...)
				slot.got[ci] = true
				slot.any = true
				st.cond.Broadcast()
				st.mu.Unlock()
			}
		case SliceFetch:
			if v.ClientID != ci {
				st.fail(fmt.Errorf("transport: shard %d: fetch on client %d's connection claims client %d",
					assign.ShardID, ci, v.ClientID))
				return
			}
			r := v.Round
			if r < 1 || r > assign.Rounds {
				st.fail(fmt.Errorf("transport: shard %d: client %d fetched round %d outside [1, %d]",
					assign.ShardID, ci, r, assign.Rounds))
				return
			}
			st.mu.Lock()
			for st.sealed < r && st.err == nil {
				st.cond.Wait()
			}
			if st.err != nil {
				st.mu.Unlock()
				return
			}
			if r < st.sealed-st.window {
				// The broadcast this client needs left the ring: it fell
				// more than the window behind the front. Evict it.
				sealed := st.sealed
				st.mu.Unlock()
				_ = conn.Send(SliceNack{ClientID: ci, Round: r, Sealed: sealed, Evicted: true})
				_ = conn.Close()
				st.markDead(ci)
				return
			}
			bs := &st.bcast[r%len(st.bcast)]
			if bs.round != r {
				st.failLocked(fmt.Errorf("transport: shard %d: broadcast ring slot holds round %d, client %d fetched %d",
					assign.ShardID, bs.round, ci, r))
				st.mu.Unlock()
				return
			}
			// Copy under the lock: the slot is recycled at seal f+W+2,
			// and replies to other clients share nothing.
			replyIdx = append(replyIdx[:0], bs.idx...)
			replyVal = append(replyVal[:0], bs.val...)
			sb := SliceBroadcast{Round: r, ShardID: assign.ShardID, Idx: replyIdx, Val: replyVal, Bits: bs.bits, Scale: bs.scale}
			st.mu.Unlock()
			if err := conn.Send(sb); err != nil {
				st.markDead(ci)
				return
			}
			st.mu.Lock()
			st.served[ci] = r
			st.cond.Broadcast()
			st.mu.Unlock()
		default:
			st.fail(fmt.Errorf("transport: shard %d: client %d sent %T, want SliceUpload or SliceFetch",
				assign.ShardID, ci, msg))
			return
		}
	}
}

// runDirectShardWindowed is RunDirectShard's round body for Window > 0:
// per-client reader goroutines feed the admission ring while this
// goroutine advances the reduction front round by round — cutting each
// front when it completes or when window pressure forces it — and runs
// the unchanged coordinator control exchange (ShardResult, FillQuery,
// RoundSeal) per front. Client payloads are validated at reduce time
// (single-goroutine, shared dedupe slab), admission only checks
// identity, width, and the window.
func runDirectShardWindowed(coord Conn, assign ShardAssign, conns []Conn, lo, hi int) (err error) {
	defer func() {
		if err != nil {
			// Unlike the lockstep path, a windowed coordinator has no
			// per-round client barrier that would surface this shard's
			// death: its round loop blocks on the next ShardResult.
			// Closing the control conn turns that wait into an error
			// instead of a wedge.
			_ = coord.Close()
		}
	}()
	n := len(conns)
	st := newWinShard(assign.Window, n, assign.Rounds)
	for ci, conn := range conns {
		go st.serveClient(assign, ci, conn)
	}

	scratch := gs.NewAggScratch(0)
	scratch.Reserve(assign.Dim)
	uploads := make([]gs.ClientUpload, n)
	ranks := make([][]int, n)
	for ci := range uploads {
		uploads[ci].Weight = assign.Weights[ci]
	}
	seen := make([]int, assign.Dim)
	seenToken := 0
	gotNow := make([]bool, n)
	var fill []gs.FillCand
	var fillClient, fillIdx []int
	var fillAbs []float64

	for f := 1; f <= assign.Rounds; f++ {
		st.mu.Lock()
		for !st.frontReadyLocked(f) {
			st.cond.Wait()
		}
		if st.err != nil {
			err := st.err
			st.mu.Unlock()
			return err
		}
		st.cut = f
		slot := &st.pending[f%len(st.pending)]
		for ci := range gotNow {
			gotNow[ci] = slot.round == f && slot.got[ci]
		}
		st.mu.Unlock()

		// The slot is frozen outside the lock: round-f tags are at or
		// below the cut now (NACKed at admission), and its ring position
		// is not reused before the cut advances past f+1.
		for ci := range conns {
			if !gotNow[ci] {
				// Missed the window (or dead): counted but empty — the
				// wire form of the engine's FoldStale masking. The
				// residual mass stays in the client's error feedback.
				uploads[ci].Pairs = sparse.Vec{}
				ranks[ci] = nil
				continue
			}
			seenToken++
			if err := gs.ValidateRangeSlice(slot.idx[ci], slot.val[ci], slot.rank[ci], lo, hi, seen, seenToken); err != nil {
				err = fmt.Errorf("transport: shard %d round %d: client %d slice: %w", assign.ShardID, f, ci, err)
				st.fail(err)
				return err
			}
			uploads[ci].Pairs = sparse.Vec{Idx: slot.idx[ci], Val: slot.val[ci]}
			ranks[ci] = slot.rank[ci]
		}
		red := gs.RangeReduceInto(scratch, uploads, ranks, lo, hi)
		res := ShardResult{Round: f, ShardID: assign.ShardID, Idx: red.Idx, Sum: red.Sum, MinRank: red.MinRank}
		if err := coord.Send(res); err != nil {
			err = fmt.Errorf("transport: shard %d round %d send: %w", assign.ShardID, f, err)
			st.fail(err)
			return err
		}
		// Control exchange with the coordinator, unchanged from the
		// synchronous path: serve fill queries until the round's seal.
		var sealBits int
		var sealScale float64
		bs := &st.bcast[f%len(st.bcast)]
	control:
		for {
			msg, err := coord.Recv()
			if err != nil {
				err = fmt.Errorf("transport: shard %d round %d control recv: %w", assign.ShardID, f, err)
				st.fail(err)
				return err
			}
			switch c := msg.(type) {
			case FillQuery:
				if c.Round != f {
					err := fmt.Errorf("transport: shard %d round %d: stale fill query (round %d)", assign.ShardID, f, c.Round)
					st.fail(err)
					return err
				}
				fill = gs.AppendFillCands(fill[:0], uploads, ranks, c.Kappa)
				fillClient, fillIdx, fillAbs = fillClient[:0], fillIdx[:0], fillAbs[:0]
				for _, cand := range fill {
					fillClient = append(fillClient, cand.Client)
					fillIdx = append(fillIdx, cand.Idx)
					fillAbs = append(fillAbs, cand.AbsVal)
				}
				reply := FillCandidates{Round: f, ShardID: assign.ShardID, Client: fillClient, Idx: fillIdx, AbsVal: fillAbs}
				if err := coord.Send(reply); err != nil {
					err = fmt.Errorf("transport: shard %d round %d fill send: %w", assign.ShardID, f, err)
					st.fail(err)
					return err
				}
			case RoundSeal:
				if c.Round != f {
					err := fmt.Errorf("transport: shard %d round %d: stale round seal (round %d)", assign.ShardID, f, c.Round)
					st.fail(err)
					return err
				}
				if c.Bits != assign.QuantBits {
					err := fmt.Errorf("transport: shard %d round %d: seal at %d-bit quantization, run uses %d",
						assign.ShardID, f, c.Bits, assign.QuantBits)
					st.fail(err)
					return err
				}
				if math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) || c.Scale < 0 {
					err := fmt.Errorf("transport: shard %d round %d: seal scale %v is not a finite non-negative real",
						assign.ShardID, f, c.Scale)
					st.fail(err)
					return err
				}
				// Build the broadcast slice into the ring slot outside
				// the lock: its previous tenant (round f−W−2) is below
				// every reader's eviction horizon, so no fetch can be
				// copying it.
				var err error
				bs.idx, bs.val, err = gs.BuildDownlinkSlice(bs.idx[:0], bs.val[:0], c.Members, red, lo, hi)
				if err != nil {
					err = fmt.Errorf("transport: shard %d round %d seal: %w", assign.ShardID, f, err)
					st.fail(err)
					return err
				}
				if c.Bits > 0 {
					sparse.QuantizeToScale(bs.val, c.Bits, c.Scale)
				}
				sealBits, sealScale = c.Bits, c.Scale
				break control
			default:
				err := fmt.Errorf("transport: shard %d round %d: expected FillQuery or RoundSeal, got %T", assign.ShardID, f, msg)
				st.fail(err)
				return err
			}
		}
		st.mu.Lock()
		bs.round = f
		bs.bits, bs.scale = sealBits, sealScale
		st.sealed = f
		st.cond.Broadcast()
		st.mu.Unlock()
	}
	// Drain: clients are still W rounds behind the front — hold the
	// connections open until every live client fetched the final
	// broadcast (the caller closes them on return).
	st.mu.Lock()
	for !st.drainedLocked() {
		st.cond.Wait()
	}
	err = st.err
	st.mu.Unlock()
	return err
}

// runServerDirectWindowed is runServerDirect's round loop for
// Staleness > 0. The coordinator's round loop is driven by the shard
// fronts (group.Aggregate blocks on the shards' ShardResults); client
// control traffic decouples from it — per-client reader goroutines fold
// RoundMetas into the per-round loss as they arrive, and per-client
// sender goroutines deliver RoundReleases from buffered queues sized
// for the whole run, so a straggler that stops reading can never block
// the front. Consequences, by design: a round's logged loss covers the
// metas that arrived before its release (a straggler's late meta is
// dropped), selection uses K as the rank bound instead of the round's
// exact max upload length (every rank is < its upload's length ≤ K),
// and the W > 0 wire trajectory is its own — the bit-identity contract
// binds only W = 0, which never takes this path.
func runServerDirectWindowed(ordered []Conn, weights []float64, totalWeight float64, cfg ServerConfig, group *DirectGroup) ([]RoundRecord, error) {
	n := len(ordered)
	var mu sync.Mutex
	lossBy := make([]float64, cfg.Rounds+1)
	for id, conn := range ordered {
		go func(id int, conn Conn) {
			for {
				msg, err := conn.Recv()
				if err != nil {
					return
				}
				meta, ok := msg.(RoundMeta)
				if !ok || meta.ClientID != id {
					// A misbehaving peer stops being read — the windowed
					// loop has no barrier to error at, so it degrades to
					// a silent (counted-but-empty) client.
					return
				}
				if meta.Round >= 1 && meta.Round <= cfg.Rounds {
					mu.Lock()
					lossBy[meta.Round] += weights[id] / totalWeight * meta.BatchLoss
					mu.Unlock()
				}
			}
		}(id, conn)
	}
	relq := make([]chan RoundRelease, n)
	var relWG sync.WaitGroup
	for id, conn := range ordered {
		relq[id] = make(chan RoundRelease, cfg.Rounds)
		relWG.Add(1)
		go func(conn Conn, q chan RoundRelease) {
			defer relWG.Done()
			for rel := range q {
				if conn.Send(rel) != nil {
					return
				}
			}
		}(conn, relq[id])
	}
	relqClosed := false
	closeRelq := func() {
		if !relqClosed {
			relqClosed = true
			for _, q := range relq {
				close(q)
			}
		}
	}
	defer closeRelq()

	strategy := &gs.FABTopK{}
	var bm *byteMeter
	if cfg.Observer != nil {
		bm = newByteMeter(ordered, cfg.ShardConns)
		bm.delta()
	}
	records := make([]RoundRecord, 0, cfg.Rounds)
	for m := 1; m <= cfg.Rounds; m++ {
		if cfg.Observer != nil {
			cfg.Observer.OnRoundStart(m)
		}
		agg, err := group.Aggregate(strategy, m, cfg.K, cfg.K)
		if err != nil {
			return records, err
		}
		rel := RoundRelease{Round: m, Elems: len(agg.Indices)}
		for id := range ordered {
			relq[id] <- rel // buffered for the whole run: never blocks
		}
		mu.Lock()
		loss := lossBy[m]
		mu.Unlock()
		rec := RoundRecord{Round: m, Loss: loss, DownlinkElems: len(agg.Indices)}
		records = append(records, rec)
		if cfg.Observer != nil {
			ev := roundEvent(rec, cfg.K, n, bm, group.reduceSecs)
			// The realized overlap; stale-slice counts live at the
			// shards' admission windows, which the coordinator cannot
			// observe, so StaleSlices stays 0 here (the in-process
			// engine reports the real count).
			ev.WindowDepth = cfg.Staleness
			cfg.Observer.OnRoundEnd(ev)
		}
	}
	// Drain the release queues before returning: the caller closes the
	// client conns on return, and the tail releases (the last W rounds'
	// worth, which clients are still pipelined behind) must reach the
	// wire first. This waits only on clients that are still reading —
	// a dead client's sender already exited on its send error — and adds
	// no stall the shards' own drain loop (every live client fetches the
	// final broadcast) doesn't already impose.
	closeRelq()
	relWG.Wait()
	return records, nil
}

// runClientDirectWindowed is runClientDirect's round body for
// Window > 0: the same training computation and rng consumption order
// as runClientRounds, but pipelined — round m's upload goes out before
// round m−W's broadcast is fetched and applied, overlapping W rounds of
// local compute with the shards' reduction and downlink. A ring of W+1
// upload slots keeps each in-flight round's pairs for the deferred
// residual update; SliceNacks absorbed during fetches mark the refused
// (round, shard) slices so their residual mass stays in acc, exactly
// like the engine's fold-back.
func runClientDirectWindowed(coord Conn, cfg ClientConfig, init Init, shardConns []Conn, bounds []int, shardOf func(int) int) error {
	if init.QuantBits != 0 && (init.QuantBits < 2 || init.QuantBits > 64) {
		return fmt.Errorf("transport: client %d: init quantization width %d outside 0 or [2, 64]", cfg.ID, init.QuantBits)
	}
	if init.Window < 0 || init.Window > MaxStaleness {
		return fmt.Errorf("transport: client %d: init staleness window %d outside [0, %d]", cfg.ID, init.Window, MaxStaleness)
	}
	w := init.Window
	nShards := len(shardConns)
	net := cfg.Model()
	net.SetParams(init.Params)
	acc := make([]float64, net.D())
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		topk  sparse.TopKScratch
		pairs sparse.Vec
		xs    [][]float64
		ys    []int
	)
	applied := newAppliedSet(net.D())
	// In-flight upload ring: slot m%(w+1) holds round m's quantized
	// pairs (for the deferred residual update) and the per-shard split
	// buffers its SliceUploads alias. Unlike the synchronous client,
	// the split buffers cannot be shared across rounds: over in-memory
	// conns a W-deep pipeline can overwrite a buffer while the message
	// referencing it is still queued unread at the shard. The ring
	// gives each in-flight round its own: slot m is recycled at round
	// m+w+1, and by then round m's fetch reply has been received —
	// which orders after the shard copied round m's upload out of the
	// buffer (one ordered connection, messages handled in sequence).
	type winSlot struct {
		round   int
		idx     []int
		val     []float64
		dropped []bool // per shard: slice NACKed, keep its residual
		sIdx    [][]int
		sVal    [][]float64
		sRank   [][]int
	}
	ring := make([]winSlot, w+1)
	for i := range ring {
		ring[i].dropped = make([]bool, nShards)
		ring[i].sIdx = make([][]int, nShards)
		ring[i].sVal = make([][]float64, nShards)
		ring[i].sRank = make([][]int, nShards)
	}
	var bIdx []int
	var bVal []float64

	// fetchApply pulls and applies round r's broadcast: wait for the
	// coordinator's release, fetch every shard's slice — absorbing
	// SliceNacks for missed uploads along the way (the shard enqueues a
	// round-t NACK before the round-t broadcast reply on the same
	// connection, and t ≥ r for every NACK read here, so the tagged ring
	// slot is always live) — and run the deferred weight/residual
	// update for round r's pairs.
	fetchApply := func(r int) error {
		msg, err := coord.Recv()
		if err != nil {
			return fmt.Errorf("transport: client %d round %d release recv: %w", cfg.ID, r, err)
		}
		rel, ok := msg.(RoundRelease)
		if !ok {
			return fmt.Errorf("transport: client %d round %d: expected RoundRelease, got %T", cfg.ID, r, msg)
		}
		if rel.Round != r {
			return fmt.Errorf("transport: client %d round %d: stale release (round %d)", cfg.ID, r, rel.Round)
		}
		fetch := SliceFetch{ClientID: cfg.ID, Round: r}
		for s, conn := range shardConns {
			if err := conn.Send(fetch); err != nil {
				return fmt.Errorf("transport: client %d round %d fetch to shard %d: %w", cfg.ID, r, s, err)
			}
		}
		bIdx, bVal = bIdx[:0], bVal[:0]
		for s, conn := range shardConns {
		shard:
			for {
				msg, err := conn.Recv()
				if err != nil {
					return fmt.Errorf("transport: client %d round %d slice recv from shard %d: %w", cfg.ID, r, s, err)
				}
				switch sb := msg.(type) {
				case SliceNack:
					if sb.Evicted {
						return fmt.Errorf("transport: client %d fell %d rounds behind shard %d's front (sealed %d): %w",
							cfg.ID, sb.Sealed-sb.Round, s, sb.Sealed, ErrStaleClient)
					}
					t := sb.Round
					ns := &ring[t%(w+1)]
					if ns.round != t {
						return fmt.Errorf("transport: client %d: shard %d refused round %d, which is not in flight", cfg.ID, s, t)
					}
					ns.dropped[s] = true
				case SliceBroadcast:
					if sb.Round != r {
						return fmt.Errorf("transport: client %d round %d: stale broadcast slice from shard %d (round %d)",
							cfg.ID, r, s, sb.Round)
					}
					if sb.ShardID != s {
						return fmt.Errorf("transport: client %d round %d: broadcast slice on shard %d's link claims shard %d",
							cfg.ID, r, s, sb.ShardID)
					}
					if len(sb.Idx) != len(sb.Val) {
						return fmt.Errorf("transport: client %d round %d: shard %d broadcast slice shape %d/%d",
							cfg.ID, r, s, len(sb.Idx), len(sb.Val))
					}
					for i, j := range sb.Idx {
						if j < bounds[s] || j >= bounds[s+1] || (i > 0 && j <= sb.Idx[i-1]) {
							return fmt.Errorf("transport: client %d round %d: shard %d broadcast index %d out of order or range",
								cfg.ID, r, s, j)
						}
					}
					bIdx = append(bIdx, sb.Idx...)
					bVal = append(bVal, sb.Val...)
					break shard
				default:
					return fmt.Errorf("transport: client %d round %d: shard %d sent %T, want SliceBroadcast or SliceNack",
						cfg.ID, r, s, msg)
				}
			}
		}
		if len(bIdx) != rel.Elems {
			return fmt.Errorf("transport: client %d round %d: reassembled %d broadcast elements, coordinator sealed %d — truncated or padded shard slice",
				cfg.ID, r, len(bIdx), rel.Elems)
		}
		slot := &ring[r%(w+1)]
		applied.apply(net.Params(), cfg.LearningRate, bIdx, bVal)
		for vi, j := range slot.idx {
			if slot.dropped[shardOf(j)] {
				continue // never aggregated: the full value stays in acc
			}
			if applied.has(j) {
				acc[j] -= slot.val[vi]
			}
		}
		return nil
	}

	for m := 1; m <= init.Rounds; m++ {
		xs, ys = cfg.Data.BatchInto(xs, ys, rng, cfg.BatchSize)
		batchLoss := net.MeanLossGrad(xs, ys)
		tensor.AXPY(1, net.Grads(), acc)
		// Mirror the reference engine's probe-sample draw (see
		// runClientRounds).
		_ = rng.Intn(len(xs))
		pairs = sparse.TopKInto(pairs, &topk, acc, init.K)
		var scale float64
		if init.QuantBits > 0 {
			scale = sparse.QuantizeInPlace(pairs.Val, init.QuantBits)
		}
		slot := &ring[m%(w+1)]
		slot.round = m
		slot.idx = append(slot.idx[:0], pairs.Idx...)
		slot.val = append(slot.val[:0], pairs.Val...)
		for s := range slot.dropped {
			slot.dropped[s] = false
		}
		for s := 0; s < nShards; s++ {
			slot.sIdx[s] = slot.sIdx[s][:0]
			slot.sVal[s] = slot.sVal[s][:0]
			slot.sRank[s] = slot.sRank[s][:0]
		}
		for pi, j := range pairs.Idx {
			s := shardOf(j)
			slot.sIdx[s] = append(slot.sIdx[s], j)
			slot.sVal[s] = append(slot.sVal[s], pairs.Val[pi])
			slot.sRank[s] = append(slot.sRank[s], pi)
		}
		for s, conn := range shardConns {
			up := SliceUpload{ClientID: cfg.ID, Round: m, Idx: slot.sIdx[s], Val: slot.sVal[s], Rank: slot.sRank[s],
				Bits: init.QuantBits, Scale: scale}
			if err := conn.Send(up); err != nil {
				return fmt.Errorf("transport: client %d round %d slice to shard %d: %w", cfg.ID, m, s, err)
			}
		}
		meta := RoundMeta{ClientID: cfg.ID, Round: m, BatchLoss: batchLoss, UploadLen: pairs.Len()}
		if err := coord.Send(meta); err != nil {
			return fmt.Errorf("transport: client %d round %d metadata: %w", cfg.ID, m, err)
		}
		if m > w {
			if err := fetchApply(m - w); err != nil {
				return err
			}
		}
	}
	// Drain the tail of the pipeline: the last W broadcasts.
	for r := max(1, init.Rounds-w+1); r <= init.Rounds; r++ {
		if err := fetchApply(r); err != nil {
			return err
		}
	}
	return nil
}
