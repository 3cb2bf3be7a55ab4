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
// pending and broadcast rings. Slices are copied at arrival — the
// binary codec decodes into per-connection scratch that the next Recv
// overwrites, so retaining references across the concurrent reduction
// would be a use-after-reuse.
//
// What this file holds is the windowed tier's POLICY — the admission
// ring and its fronts (shard), the async meta readers and release
// queues (coordinator), the W-deep upload pipeline (client). The round
// each policy drives is the shared one (role_shard.go, role_coord.go,
// role_client.go), so W = 0 and W > 0 run the same reduction, seal,
// selection, local step and fetch code; what keeps the W = 0 wire
// byte-identical to the lockstep plane is that RunDirectShard,
// RunServerPeers and runClient enter this file only when the
// assignment/Init carries Window > 0, and the differential suites pin
// it.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"fedsparse/internal/sparse"
)

// ErrStaleClient is returned (wrapped) by RunClient when a windowed
// shard evicts the client for falling more than the staleness window
// behind the reduction front. The client's connection is closed by the
// shard; the training state is abandoned mid-run.
var ErrStaleClient = errors.New("transport: client evicted from the staleness window")

// winPending is one in-flight round of a windowed shard's admission
// ring: which clients delivered, and their slices with the payloads
// copied out of the connections' decode scratch.
type winPending struct {
	round int // the round this slot currently holds; 0 = unused
	any   bool
	got   []bool
	up    []SliceUpload
}

// winBroadcast is one sealed round of a windowed shard's downlink ring.
type winBroadcast struct {
	round int
	downSlice
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
		st.pending[i].up = make([]SliceUpload, nClients)
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
// its fetches. Arrival checks the header (shardRound.checkSender) and
// the window; the payload is validated when its front is cut, on the
// reducing goroutine, which owns the dedupe slab.
func (st *winShard) serveClient(sr *shardRound, ci int, conn Conn) {
	var reply downSlice
	for {
		msg, err := conn.Recv()
		if err != nil {
			st.markDead(ci)
			return
		}
		switch v := msg.(type) {
		case SliceUpload:
			t := v.Round
			if err := sr.checkSender(t, ci, &v); err != nil {
				st.fail(err)
				return
			}
			st.mu.Lock()
			if st.err != nil {
				st.mu.Unlock()
				return
			}
			switch {
			case t < 1 || t > st.nRounds || t > st.cut+1+st.window:
				st.failLocked(fmt.Errorf("transport: shard %d: client %d slice for round %d outside admission window [%d, %d]",
					sr.shardID, ci, t, st.cut+1, st.cut+1+st.window))
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
						sr.shardID, ci, t))
					st.mu.Unlock()
					return
				}
				copySlice(&slot.up[ci], &v)
				slot.got[ci] = true
				slot.any = true
				st.cond.Broadcast()
				st.mu.Unlock()
			}
		case SliceFetch:
			r := v.Round
			if r < 1 || r > st.nRounds {
				st.fail(fmt.Errorf("transport: shard %d: client %d fetched round %d outside [1, %d]",
					sr.shardID, ci, r, st.nRounds))
				return
			}
			if err := sr.checkFetch(r, ci, msg); err != nil {
				st.fail(err)
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
					sr.shardID, bs.round, ci, r))
				st.mu.Unlock()
				return
			}
			// Copy under the lock: the slot is recycled at seal f+W+2,
			// and replies to other clients share nothing.
			reply.idx = append(reply.idx[:0], bs.idx...)
			reply.val = append(reply.val[:0], bs.val...)
			reply.bits, reply.scale = bs.bits, bs.scale
			st.mu.Unlock()
			if err := conn.Send(reply.message(r, sr.shardID)); err != nil {
				st.markDead(ci)
				return
			}
			st.mu.Lock()
			st.served[ci] = r
			st.cond.Broadcast()
			st.mu.Unlock()
		default:
			st.fail(fmt.Errorf("transport: shard %d: client %d sent %T, want SliceUpload or SliceFetch",
				sr.shardID, ci, msg))
			return
		}
	}
}

// runDirectShardWindowed is RunDirectShard's ingest policy for
// Window > 0: per-client reader goroutines feed the admission ring
// while this goroutine advances the reduction front round by round —
// cutting each front when it completes or when window pressure forces
// it — and runs the shared round (shardRound.admit over the front's
// copied slices, then seal) per front, building each broadcast slice
// into its ring slot.
func runDirectShardWindowed(coord Conn, sr *shardRound, window, rounds int, conns []Conn) (err error) {
	n := len(conns)
	st := newWinShard(window, n, rounds)
	defer func() {
		if err != nil {
			// Latch the failure for the readers, and — unlike the
			// lockstep path, where the coordinator's per-round client
			// barrier would surface this shard's death — close the
			// control conn: a windowed coordinator's round loop blocks
			// on the next ShardResult, and this turns that wait into an
			// error instead of a wedge.
			st.fail(err)
			_ = coord.Close()
		}
	}()
	for ci, conn := range conns {
		go st.serveClient(sr, ci, conn)
	}
	gotNow := make([]bool, n)

	for f := 1; f <= rounds; f++ {
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
				sr.absent(ci, ci)
				continue
			}
			if err := sr.admit(f, ci, ci, &slot.up[ci]); err != nil {
				return err
			}
		}
		// The broadcast slice is built into the ring slot outside the
		// lock: its previous tenant (round f−W−2) is below every
		// reader's eviction horizon, so no fetch can be copying it.
		bs := &st.bcast[f%len(st.bcast)]
		if err := sr.seal(f, coord, &bs.downSlice); err != nil {
			return err
		}
		st.mu.Lock()
		bs.round = f
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

// runWindowed is the direct coordinator's round loop for
// Staleness > 0. It is driven by the shard fronts (the DirectGroup's
// gather blocks on the shards' ShardResults); client control traffic
// decouples from it — per-client reader goroutines fold RoundMetas into
// the per-round loss as they arrive, and per-client sender goroutines
// deliver RoundReleases from buffered queues sized for the whole run,
// so a straggler that stops reading can never block the front.
// Consequences, by design: a round's logged loss covers the metas that
// arrived before its release (a straggler's late meta is dropped),
// selection uses K as the rank bound instead of the round's exact max
// upload length (every rank is < its upload's length ≤ K), and the
// W > 0 wire trajectory is its own — the bit-identity contract binds
// only W = 0, which never takes this path.
func (c *coordRun) runWindowed(ordered []Conn) ([]RoundRecord, error) {
	cfg := c.cfg
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
					lossBy[meta.Round] += c.weights[id] / c.total * meta.BatchLoss
					mu.Unlock()
				}
			}
		}(id, conn)
	}
	relq := make([]chan any, n)
	var relWG sync.WaitGroup
	for id, conn := range ordered {
		relq[id] = make(chan any, cfg.Rounds)
		relWG.Add(1)
		go func(conn Conn, q chan any) {
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

	for m := 1; m <= cfg.Rounds; m++ {
		c.startRound(m)
		agg, err := c.group.Aggregate(c.strategy, m, cfg.K, cfg.K)
		if err != nil {
			return c.records, err
		}
		var rel any = RoundRelease{Round: m, Elems: len(agg.Indices)}
		for id := range ordered {
			relq[id] <- rel // buffered for the whole run: never blocks
		}
		mu.Lock()
		loss := lossBy[m]
		mu.Unlock()
		c.finish(RoundRecord{Round: m, Loss: loss, DownlinkElems: len(agg.Indices)}, n, nil)
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
	return c.records, nil
}

// runClientDirectWindowed is the direct client's round loop for
// Window > 0: the same local step, split and upload as the lockstep
// loop (runClientRounds), but pipelined — round m's upload goes out
// before round m−W's broadcast is fetched and applied, overlapping W
// rounds of local compute with the shards' reduction and downlink. A
// ring of W+1 upload slots keeps each in-flight round's pairs for the
// deferred residual update; SliceNacks absorbed during fetches mark the
// refused (round, shard) slices so their residual mass stays in acc,
// exactly like the engine's fold-back.
func runClientDirectWindowed(coord Conn, cfg ClientConfig, init Init, fan *shardFan) error {
	if init.Window < 0 || init.Window > MaxStaleness {
		return fmt.Errorf("transport: client %d: init staleness window %d outside [0, %d]", cfg.ID, init.Window, MaxStaleness)
	}
	step, err := newLocalStep("client", cfg.ID, cfg.Model, init, cfg.BatchSize)
	if err != nil {
		return err
	}
	w := init.Window
	net := step.net
	acc := make([]float64, net.D())
	rng := rand.New(rand.NewSource(cfg.Seed))
	applied := newAppliedSet("client", cfg.ID, net.D())
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
		pairs   sparse.Vec
		dropped []bool // per shard: slice NACKed, keep its residual
		bufs    sliceBufs
	}
	ring := make([]winSlot, w+1)
	for i := range ring {
		ring[i].dropped = make([]bool, len(fan.conns))
	}
	// A round-t NACK is enqueued before the round-t broadcast reply on
	// the same connection, and t ≥ r for every NACK read while fetching
	// round r, so the tagged ring slot is always live.
	nack := func(s int, n SliceNack) error {
		if n.Evicted {
			return fmt.Errorf("transport: client %d fell %d rounds behind shard %d's front (sealed %d): %w",
				cfg.ID, n.Sealed-n.Round, s, n.Sealed, ErrStaleClient)
		}
		ns := &ring[n.Round%(w+1)]
		if ns.round != n.Round {
			return fmt.Errorf("transport: client %d: shard %d refused round %d, which is not in flight", cfg.ID, s, n.Round)
		}
		ns.dropped[s] = true
		return nil
	}
	var pairs sparse.Vec
	var bIdx []int
	var bVal []float64

	// fetchApply pulls and applies round r's broadcast — absorbing
	// SliceNacks for missed uploads along the way — and runs the
	// deferred weight/residual update for round r's pairs.
	fetchApply := func(r int) error {
		var err error
		if bIdx, bVal, err = fan.download(coord, r, bIdx[:0], bVal[:0], nack); err != nil {
			return err
		}
		if err := applied.apply(r, net.Params(), cfg.LearningRate, bIdx, bVal); err != nil {
			return err
		}
		slot := &ring[r%(w+1)]
		for vi, j := range slot.pairs.Idx {
			if slot.dropped[fan.shardOf(j)] {
				continue // never aggregated: the full value stays in acc
			}
			if applied.has(j) {
				acc[j] -= slot.pairs.Val[vi]
			}
		}
		return nil
	}

	for m := 1; m <= init.Rounds; m++ {
		var batchLoss, scale float64
		pairs, batchLoss, scale = step.run(cfg.Data, rng, acc, pairs)
		slot := &ring[m%(w+1)]
		slot.round = m
		slot.pairs.Idx = append(slot.pairs.Idx[:0], pairs.Idx...)
		slot.pairs.Val = append(slot.pairs.Val[:0], pairs.Val...)
		for s := range slot.dropped {
			slot.dropped[s] = false
		}
		fan.split(pairs, &slot.bufs)
		if err := fan.upload(m, cfg.ID, &slot.bufs, init.QuantBits, scale); err != nil {
			return err
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
