// The GS round pipeline: Algorithm 1 plus the Fig. 3 adaptive-k schedule
// as one phase A (the server's decision, the roster, local gradients,
// top-k into the round's slot) and one seal (the server's selection, its
// sums beside the residual settles, broadcast, probe losses, the
// server's observe), driven by a single
// step loop over a ring of W+1 in-flight rounds, W = Config.Staleness.
// Step m runs round m's phase A at the weights of round m−W−1 — W
// broadcasts are still in flight — and then seals round m−W. At
// W = 0 that is "phase A of m, then seal of m": the lockstep engine is the
// window at zero, not a second loop, and every knob (population,
// quantization, durability) meets the window in this one body. The
// participant's share of a round is step.go's and the server's is
// server.go's — the same code every wire client and coordinator runs;
// what stays here is the pipeline, the replicas and the ③–⑤ time charge.
//
// Where the measurements sit: the probe sample h is drawn in phase A (it
// is a client rng draw) but its three one-sample losses f(w(r−1)),
// f(w′(r)), f(w(r)) are all measured at the seal, so they bracket the
// update being applied and not a W-rounds-stale snapshot; at W = 0 the
// seal's weights are the ones phase A saw. The minibatch loss (the
// controller's global-loss input) stays a phase-A quantity: at W > 0 it
// is measured at the lagged weights, which is what an overlapped
// deployment reports.
package fl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fedsparse/internal/core"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
	"fedsparse/internal/simtime"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// roundArena holds the per-run buffers the rounds share, allocated once
// and reused. Participant-indexed slots are re-sliced to the round's
// participant count. The coordinator grows the per-worker buffers between
// fan-outs; workers only use them.
type roundArena struct {
	// Participant-indexed slots (length = this round's participant count).
	fPrev, fCur, fProbe []float64
	lossShare           []float64

	saved [][]float64 // per-replica probe save/restore buffers
	steps []*Step     // per-worker participant steps (step.go)
}

func newRoundArena(nClients, pool, batch, bits int) *roundArena {
	return &roundArena{
		fPrev:     make([]float64, nClients),
		fCur:      make([]float64, nClients),
		fProbe:    make([]float64, nClients),
		lossShare: make([]float64, nClients),
		saved:     make([][]float64, pool),
		steps:     newSteps(pool, batch, bits),
	}
}

// newSteps returns one participant step per worker.
func newSteps(pool, batch, bits int) []*Step {
	steps := make([]*Step, pool)
	for w := range steps {
		steps[w] = NewStep(batch, bits)
	}
	return steps
}

// roundSlot is one in-flight round: everything phase A produces that the
// seal, W steps later, consumes. The slot owns the upload buffers — the
// step writes straight into bufs, indexed by participant position — so
// nothing is copied between the client and the server side, and a slot's
// storage is reused once its round has sealed. The probe sample is kept
// as the view dataset.BatchInto hands out: samples are immutable.
type roundSlot struct {
	// dec is the server's decision; its mandated set (nil on a top-k
	// round) is copied into mandBuf once and aliased by every
	// participant's upload.
	dec          Decision
	weightedLoss float64

	population, cohortSize, churnEvents int

	participants []int
	mandBuf      []int
	bufs         []sparse.Vec
	uploads      []gs.ClientUpload
	hx           [][]float64 // the probe samples h, as the seal's batched losses take them
	hy           []int
}

func newRoundSlot(nClients int) roundSlot {
	return roundSlot{
		participants: make([]int, 0, nClients),
		mandBuf:      []int{}, // non-nil: an empty mandated set is not a top-k round
		bufs:         make([]sparse.Vec, nClients),
		uploads:      make([]gs.ClientUpload, nClients),
		hx:           make([][]float64, nClients),
		hy:           make([]int, nClients),
	}
}

// gsEngine is one GS run: the state the rounds thread through, and what
// the fan-outs read. The fan-out bodies are bound to the engine once
// (localFn, settleFn, sealFn) rather than closed over each round's
// locals, so a round allocates no closure; the coordinator sets cur,
// partWeight and inB between fan-outs and workers only read them, and
// sel/probeSel are written by the settle fan-out's iteration 0 alone and
// read only after it.
type gsEngine struct {
	cfg     *Config
	clients []*client
	// replicas hold the synchronized weights w, one network per worker.
	replicas    []*nn.Network
	totalWeight float64
	cost        simtime.CostModel
	srv         *Server    // the server step (server.go)
	rng         *rand.Rand // the engine stream, shared with srv: its decisions, then the roster
	d           int
	dur         *engineWAL // nil unless Config.WALDir
	sink        Observer
	clock       simtime.Clock
	// elemUnits is the per-scalar wire cost of a sparse element: index +
	// (possibly quantized) value.
	elemUnits float64

	ar   *roundArena
	pop  *popState
	ring []roundSlot

	cur                       *roundSlot // the slot the running fan-out fills or drains
	partWeight                float64
	inB                       []byte // B's membership map (Server.SelectB)
	sel, probeSel             gs.Aggregate
	localFn, settleFn, sealFn func(i, worker int)
}

// runGS drives the pipeline: phase A of round m while sealing round m−W.
// Steps beyond cfg.Rounds run no phase A — they drain the last W rounds.
func runGS(cfg Config, clients []*client, replicas []*nn.Network, totalWeight float64, cost simtime.CostModel,
	ctrl core.Controller, engineRng *rand.Rand, d int, dur *engineWAL) (*Result, error) {

	// The run's event stream: a built-in Collector rebuilds Result.Stats
	// from it and the caller's observer (if any) rides along, so both see
	// the same events in the same order.
	coll := &Collector{}
	nClients := len(clients)
	e := &gsEngine{
		cfg: &cfg, clients: clients, replicas: replicas, totalWeight: totalWeight, cost: cost,
		srv: NewServer(cfg.Strategy, ctrl, engineRng, d, cfg.QuantBits), rng: engineRng, d: d, dur: dur,
		sink:      MultiObserver(coll, cfg.Observer),
		elemUnits: 2,
		ar:        newRoundArena(nClients, len(replicas), cfg.BatchSize, cfg.QuantBits),
		pop:       newPopState(&cfg, nClients),
		ring:      make([]roundSlot, cfg.Staleness+1),
	}
	if cfg.QuantBits > 0 && cfg.QuantBits < 64 {
		e.elemUnits = 1 + float64(cfg.QuantBits)/64
	}
	for i := range e.ring {
		e.ring[i] = newRoundSlot(nClients)
	}
	e.localFn, e.settleFn, e.sealFn = e.participate, e.sumOrSettle, e.sealReplica

	// A resumed run reports the rounds before the restored snapshot from
	// the log (the state to recompute them is gone by design — that is
	// what the snapshot bounds) and recomputes everything after it, each
	// round verified bit-exactly against its logged record in commit. The
	// prefix flows through the event stream too — WAL counters zero — so
	// a resumed run's stream and Stats cover every round exactly once.
	start := 1
	if dur != nil {
		for _, ev := range dur.logged[:dur.snapRound] {
			e.sink.OnRoundStart(ev.Round)
			e.sink.OnRoundEnd(ev)
		}
		e.clock.Advance(dur.clock0)
		start = dur.snapRound + 1
	}
	for step := start; step <= cfg.Rounds+cfg.Staleness; step++ {
		if step <= cfg.Rounds {
			if err := e.phaseA(step); err != nil {
				return nil, err
			}
		}
		if r := step - cfg.Staleness; r >= 1 {
			stop, err := e.seal(r)
			if err != nil {
				return nil, err
			}
			if stop {
				break
			}
		}
	}
	return &Result{Stats: coll.Events, Final: replicas[0]}, nil
}

// phaseA opens round m: the server's decision (k, k′ and the mandated
// set), the roster, and every participant's local step (see
// participate), at whatever weights the replicas hold — those of round
// m−W−1.
func (e *gsEngine) phaseA(m int) error {
	cfg, ar := e.cfg, e.ar
	e.sink.OnRoundStart(m)
	slot := &e.ring[m%len(e.ring)]
	dec, err := e.srv.Decide(m)
	if err != nil {
		return err
	}
	if dec.Mandated != nil {
		slot.mandBuf = append(slot.mandBuf[:0], dec.Mandated...)
		dec.Mandated = slot.mandBuf
	} else {
		// Grown here, where k is known, and not by whichever worker first
		// meets it: the run's allocation count is then a function of the
		// k trajectory alone, not of goroutine scheduling.
		for _, s := range ar.steps {
			s.topk.Reserve(e.d, dec.K)
		}
	}
	slot.dec = dec

	// The roster: churn, then the draw from the active population, then
	// deadline dropouts — the one participant draw at every W.
	cohort, drawn, churnEvents, err := e.pop.draw(slot.participants[:0], m, e.rng)
	if err != nil {
		return err
	}
	slot.participants, slot.cohortSize, slot.churnEvents = cohort, drawn, churnEvents
	slot.population = len(e.pop.active)
	nPart := len(cohort)

	// (A) Local gradient computation and accumulation at every
	// participant, fanned out over the worker pool: every write lands in
	// a slot indexed by participant position pi and the weighted-loss
	// reduction runs in pi order — bit-identical at any worker count.
	e.partWeight = 0
	for _, ci := range slot.participants {
		e.partWeight += e.clients[ci].weight
	}
	e.cur = slot
	parallelFor(cfg.Workers, nPart, e.localFn)
	slot.weightedLoss = sum(ar.lossShare[:nPart])
	return nil
}

// participate is participant pi's phase A on worker w's replica: the
// participant step (step.go) on the client's state, its upload written
// into the round's slot.
func (e *gsEngine) participate(pi, w int) {
	slot := e.cur
	c := e.clients[slot.participants[pi]]
	out := e.ar.steps[w].Run(e.replicas[w], &c.Member, slot.dec.Mandated, slot.dec.K, &slot.bufs[pi])
	slot.hx[pi], slot.hy[pi] = out.H.X, out.H.Y
	e.ar.lossShare[pi] = c.weight / e.partWeight * out.BatchLoss
	slot.uploads[pi] = gs.ClientUpload{Pairs: out.Pairs, Weight: c.weight}
}

// seal closes round r: select once — every client receives the
// identical B, which is what keeps weights synchronized — then sum B and
// B′ beside the participants' settles (see sumOrSettle), broadcast (see
// sealReplica), account the round's time, feed the controller and
// publish the round. stop reports that the run's MaxTime or HaltAfter
// was reached.
func (e *gsEngine) seal(r int) (stop bool, err error) {
	cfg, ar := e.cfg, e.ar
	slot := &e.ring[r%len(e.ring)]
	participants := slot.participants
	nPart := len(participants)
	dec := slot.dec

	e.inB = e.srv.SelectB(slot.uploads[:nPart], dec.K, dec.ProbeK)
	e.cur = slot
	parallelFor(cfg.Workers, 1+len(e.replicas)+nPart, e.settleFn)
	// Like the top-k slabs: sized here, not by whichever worker is first.
	for w := range ar.saved {
		ar.saved[w] = slices.Grow(ar.saved[w][:0], len(e.probeSel.Indices))
	}
	parallelFor(cfg.Workers, len(e.replicas), e.sealFn)

	if cfg.CheckSync {
		if err := checkSync(e.replicas); err != nil {
			return false, fmt.Errorf("round %d: %w", r, err)
		}
	}

	// Normalized-time accounting.
	uplink, downlink := payloadUnits(cfg.Strategy, e.d, dec.K, len(e.sel.Indices), e.elemUnits)
	if dec.ProbeK > 0 {
		// Step ③: difference between k- and k′-element GS results.
		downlink += float64(max(len(e.sel.Indices)-len(e.probeSel.Indices), 0)) * e.elemUnits
		// Step ④: three one-sample losses up; ⑤: k_{m+1} down.
		uplink += 3
		downlink += 1
	}
	roundTime := e.cost.RoundTime(uplink, downlink)
	e.clock.Advance(roundTime)
	probeUnits := float64(dec.ProbeK) * e.elemUnits
	e.srv.Observe(dec, slot.weightedLoss, roundTime, e.cost.RoundTime(probeUnits, probeUnits),
		ar.fPrev[:nPart], ar.fCur[:nPart], ar.fProbe[:nPart])

	stats := RoundEvent{
		Round:         r,
		K:             dec.K,
		KCont:         dec.KCont,
		RoundTime:     roundTime,
		Time:          e.clock.Now(),
		Loss:          slot.weightedLoss,
		DownlinkElems: len(e.sel.Indices),
		Participants:  nPart,
		Population:    slot.population,
		CohortSize:    slot.cohortSize,
		ChurnEvents:   slot.churnEvents,
		TestAcc:       math.NaN(),
		TestLoss:      math.NaN(),
		TrainLoss:     math.NaN(),
		WindowDepth:   min(r+cfg.Staleness, cfg.Rounds) - r,
	}
	if cfg.RecordPerClient {
		// Remap participant-indexed counts onto the full client list
		// (non-participants contribute 0 this round). It escapes into the
		// returned stats: the one allocation the recording knob keeps.
		used := make([]int, len(e.clients))
		for pi, ci := range participants {
			used[ci] = e.sel.PerClientUsed[pi]
		}
		stats.PerClientUsed = used
	}
	maybeEval(cfg, &stats, e.replicas[0], e.clients, e.totalWeight, r)
	if e.dur != nil {
		if err := e.dur.commit(&stats, e.replicas[0].Params(), e.clients); err != nil {
			return false, err
		}
		stats.WALAppends, stats.WALSnapshots = e.dur.appends, e.dur.snaps
	}
	e.sink.OnRoundEnd(stats)
	return cfg.MaxTime > 0 && e.clock.Now() >= cfg.MaxTime || r == cfg.HaltAfter, nil
}

// sumOrSettle is the seal's first fan-out, run once B's membership map is
// known: 1 + P + nPart iterations, claimed in index order. Iteration 0
// sums B and B′ (Algorithm 1 line 10: values, emission, quantization),
// the longest. Beside it, iterations 1..P take replica i's f(w(r−1))
// losses over its static participant block ChunkBounds(nPart, P, i), one
// batched nn.Network.Losses call into pi-indexed slots, and the last
// nPart each settle one participant's residual (lines 16–17), reading
// only the map, so whichever worker finishes first takes the rest.
func (e *gsEngine) sumOrSettle(i, _ int) {
	slot, ar := e.cur, e.ar
	nPart, p := len(slot.participants), len(e.replicas)
	switch {
	case i == 0:
		e.sel, e.probeSel, _ = e.srv.Sum(slot.uploads[:nPart])
	case i <= p:
		lo, hi := tensor.ChunkBounds(nPart, p, i-1)
		e.replicas[i-1].Losses(ar.fPrev[lo:hi], slot.hx[lo:hi], slot.hy[lo:hi]) // f_{i,h}(w(r−1))
	default:
		pi := i - 1 - p
		Settle(e.clients[slot.participants[pi]].Acc, slot.uploads[pi].Pairs, e.inB)
	}
}

// sealReplica is replica i's share of the broadcast, (B)–(D) + line 15,
// over the same participant block as sumOrSettle's: the k′ probe applied
// to the replica, the block's f(w′(r)) losses, the exact restore, B
// applied once — even to an empty block — then the f(w(r)) losses, each
// one batched nn.Network.Losses call into pi-indexed slots.
func (e *gsEngine) sealReplica(i, _ int) {
	slot, ar := e.cur, e.ar
	net := e.replicas[i]
	params := net.Params()
	eta := e.cfg.LearningRate
	lo, hi := tensor.ChunkBounds(len(slot.participants), len(e.replicas), i)
	hx, hy := slot.hx[lo:hi], slot.hy[lo:hi]
	if slot.dec.ProbeK > 0 && lo < hi {
		// w′(r) = w(r−1) − η·∇′: apply, measure, restore exactly.
		indices, values := e.probeSel.Indices, e.probeSel.Values
		saved := ar.saved[i][:len(indices)]
		for vi, j := range indices {
			saved[vi] = params[j]
			params[j] -= eta * values[vi]
		}
		net.Losses(ar.fProbe[lo:hi], hx, hy)
		for vi, j := range indices {
			params[j] = saved[vi]
		}
	}
	// Line 15: w(r) = w(r−1) − η·∇s.
	values := e.sel.Values
	for vi, j := range e.sel.Indices {
		params[j] -= eta * values[vi]
	}
	net.Losses(ar.fCur[lo:hi], hx, hy)
}
