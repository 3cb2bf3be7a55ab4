package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/metrics"
	"fedsparse/internal/nn"
	"fedsparse/internal/par"
	"fedsparse/internal/simtime"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
	"fedsparse/internal/transport"
)

// The layer walk re-enacts the first walkRounds rounds of a workload on
// one goroutine, calling the public kernels in protocol order with one
// span per call. It is bench-owned code, not the program under test, so
// its numbers mean something only because its trajectory must equal the
// real run's bit for bit: that equality is the proof that the spans time
// the same work. The reference for call and rng order is
// transport.RunClient's round body (and fl's runGS for the engine).
const walkRounds = 20

// walkResult is the outcome of one layer walk.
type walkResult struct {
	rounds int
	traj   []roundKey
	spans  []span
	total  map[string]*walkAcc

	clientRounds int // Σ over rounds of participating clients
	shardRounds  int // shards × rounds
	// reduced counts the coordinates the shards reduced, selected the
	// coordinates that made it into J: their ratio is the shard tier's
	// wasted work.
	reduced, selected int
	muxFrames         int
	err               error
}

type walkAcc struct {
	ns    int64
	calls int
}

type walker struct {
	res   *walkResult
	round int
}

// time runs one kernel call under a span.
func (w *walker) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	w.res.spans = append(w.res.spans, span{Name: name, Actor: "walk", Round: w.round, Parent: -1,
		Start: t0.UnixNano(), End: t1.UnixNano()})
	a := w.res.total[name]
	if a == nil {
		a = &walkAcc{}
		w.res.total[name] = a
	}
	a.ns += t1.Sub(t0).Nanoseconds()
	a.calls++
}

// codec sends msg through a looped-back binary-codec connection and
// returns what the receiving end decodes, timing the two halves apart.
func (w *walker) codec(kind string, c transport.Conn, msg any) any {
	var out any
	var err error
	w.time("transport.codec.encode_"+kind, func() { err = c.Send(msg) })
	if err == nil {
		w.time("transport.codec.decode_"+kind, func() { out, err = c.Recv() })
	}
	if err != nil && w.res.err == nil {
		w.res.err = fmt.Errorf("walk codec %s: %w", kind, err)
	}
	return out
}

func runWalk(sh shape, seed int64) *walkResult {
	res := &walkResult{rounds: min(walkRounds, sh.Rounds), total: map[string]*walkAcc{}}
	w := &walker{res: res}
	in := generate(sh, seed)
	switch sh.Plane {
	case planeEngine:
		w.engine(sh, in, seed)
	case planeRouted:
		w.routed(sh, in, seed)
	case planeDirect:
		w.direct(sh, in, seed)
	case planePop:
		w.population(sh, in, seed)
	}
	w.round = 0
	for i := 0; i < 200; i++ {
		w.time("par.for_overhead", func() { par.For(pinnedProcs, sh.Clients, func(int, int) {}) })
	}
	return res
}

// walkClient is one client's (or population member's) private state.
type walkClient struct {
	acc    []float64
	rng    *rand.Rand
	data   *dataset.Dataset
	weight float64
	pairs  sparse.Vec
}

func newWalkClient(d int, data *dataset.Dataset, seed int64) *walkClient {
	return &walkClient{acc: make([]float64, d), rng: rand.New(rand.NewSource(seed)),
		data: data, weight: float64(data.Len())}
}

// walkScratch is the compute scratch one goroutine of the real program
// would own: shared between members of a host, private per client.
type walkScratch struct {
	topk sparse.TopKScratch
	xs   [][]float64
	ys   []int
	inJ  map[int]bool
}

// localStep is the client half of a fixed-k round up to the upload:
// minibatch, gradient, residual add, the engine's probe-sample draw (kept
// so the rng streams stay aligned), top-k and quantisation.
func (w *walker) localStep(c *walkClient, net *nn.Network, sc *walkScratch, k, quantBits int) (batchLoss, scale float64) {
	w.time("dataset.batch", func() { sc.xs, sc.ys = c.data.BatchInto(sc.xs, sc.ys, c.rng, batchSize) })
	w.time("nn.grad", func() { batchLoss = net.MeanLossGrad(sc.xs, sc.ys) })
	w.time("tensor.residual_add", func() { tensor.AXPY(1, net.Grads(), c.acc) })
	_ = c.rng.Intn(len(sc.xs))
	w.time("sparse.topk", func() { c.pairs = sparse.TopKInto(c.pairs, &sc.topk, c.acc, k) })
	if quantBits > 0 {
		w.time("sparse.quantize", func() { scale = sparse.QuantizeInPlace(c.pairs.Val, quantBits) })
	}
	return batchLoss, scale
}

// applyStep applies the round's aggregate to one model and subtracts
// what the server consumed from the residual of every client that shares
// the model (one client on the classic planes, a host's drawn members on
// the population plane).
func (w *walker) applyStep(net *nn.Network, sc *walkScratch, members []*walkClient, bIdx []int, bVal []float64) {
	w.time("sparse.apply", func() {
		sparse.Vec{Idx: bIdx, Val: bVal}.AddTo(net.Params(), -learningRate)
		if sc.inJ == nil {
			sc.inJ = make(map[int]bool, len(bIdx))
		}
		clear(sc.inJ)
		for _, j := range bIdx {
			sc.inJ[j] = true
		}
		for _, c := range members {
			for vi, j := range c.pairs.Idx {
				if sc.inJ[j] {
					c.acc[j] -= c.pairs.Val[vi]
				}
			}
		}
	})
}

func (w *walker) record(k int, loss float64, down int) {
	w.res.traj = append(w.res.traj, roundKey{K: k, Loss: loss, Down: down})
}

// classicClients builds the per-client state of the routed and direct
// walks: every client owns a model, as a RunClient process does.
func classicClients(sh shape, in inputs, seed int64) ([]*walkClient, []*nn.Network, []*walkScratch, float64) {
	clients := make([]*walkClient, sh.Clients)
	nets := make([]*nn.Network, sh.Clients)
	scs := make([]*walkScratch, sh.Clients)
	var total float64
	for i := range clients {
		clients[i] = newWalkClient(sh.dim(), &in.fed.Clients[i], clientSeed(seed, i))
		nets[i] = sh.model()
		nets[i].SetParams(in.init)
		scs[i] = &walkScratch{}
		total += clients[i].weight
	}
	return clients, nets, scs, total
}

// routed walks RunServerPeers + RunClient on the routed plane.
func (w *walker) routed(sh shape, in inputs, seed int64) {
	clients, nets, scs, totalWeight := classicClients(sh, in, seed)
	k := sh.k()
	up := make([]transport.Conn, len(clients))
	down := make([]transport.Conn, len(clients))
	for i := range clients {
		up[i], down[i] = newCodecLoop(), newCodecLoop()
	}
	strategy := &gs.FABTopK{}
	scratch := gs.NewAggScratch(0)
	scratch.Reserve(sh.dim())
	uploads := make([]gs.ClientUpload, len(clients))

	for m := 1; m <= w.res.rounds && w.res.err == nil; m++ {
		w.round = m
		w.res.clientRounds += len(clients)
		var weightedLoss float64
		for i, c := range clients {
			batchLoss, scale := w.localStep(c, nets[i], scs[i], k, sh.QuantBits)
			msg := w.codec("upload", up[i], transport.Upload{ClientID: i, Round: m, Idx: c.pairs.Idx, Val: c.pairs.Val,
				BatchLoss: batchLoss, Bits: sh.QuantBits, Scale: scale})
			got, ok := msg.(transport.Upload)
			if !ok {
				return
			}
			uploads[i] = gs.ClientUpload{Pairs: sparse.Vec{Idx: got.Idx, Val: got.Val}, Weight: c.weight}
			weightedLoss += c.weight / totalWeight * got.BatchLoss
		}
		var agg gs.Aggregate
		w.time("gs.aggregate", func() { agg, _ = strategy.AggregateInto(scratch, uploads, k, 0) })
		bc := transport.Broadcast{Round: m, Idx: append([]int(nil), agg.Indices...), Val: append([]float64(nil), agg.Values...)}
		if sh.QuantBits > 0 {
			bc.Bits = sh.QuantBits
			w.time("sparse.quantize", func() { bc.Scale = sparse.QuantizeInPlace(bc.Val, sh.QuantBits) })
		}
		for i, c := range clients {
			got, ok := w.codec("broadcast", down[i], bc).(transport.Broadcast)
			if !ok {
				return
			}
			w.applyStep(nets[i], scs[i], []*walkClient{c}, got.Idx, got.Val)
		}
		w.record(k, weightedLoss, len(agg.Indices))
	}
}

// direct walks runServerDirect + DirectGroup + RunDirectShard +
// runClientDirect: range-split uploads with explicit ranks, per-shard
// range reduction, selection over the merged reductions with shard-served
// fill candidates, seal, and the shard-served downlink.
func (w *walker) direct(sh shape, in inputs, seed int64) {
	clients, nets, scs, totalWeight := classicClients(sh, in, seed)
	k, dim, nShards, n := sh.k(), sh.dim(), sh.Shards, len(clients)
	bounds := make([]int, nShards+1)
	for s := 0; s < nShards; s++ {
		bounds[s], bounds[s+1] = tensor.ChunkBounds(dim, nShards, s)
	}
	shardOf := func(j int) int { return sort.SearchInts(bounds, j+1) - 1 }

	// One codec loop per (client, shard) link and direction, so every
	// decoded slice keeps its own scratch for as long as a real shard
	// holds it.
	up := make([][]transport.Conn, n)
	down := make([][]transport.Conn, n)
	for i := range up {
		up[i] = make([]transport.Conn, nShards)
		down[i] = make([]transport.Conn, nShards)
		for s := range up[i] {
			up[i][s], down[i][s] = newCodecLoop(), newCodecLoop()
		}
	}
	ctrl := make([]transport.Conn, nShards)
	scratch := make([]*gs.AggScratch, nShards)
	slices := make([][]gs.ClientUpload, nShards)
	ranks := make([][][]int, nShards)
	red := make([]gs.RangeAgg, nShards)
	sealIdx := make([][]int, nShards)
	sealVal := make([][]float64, nShards)
	for s := 0; s < nShards; s++ {
		ctrl[s] = newCodecLoop()
		scratch[s] = gs.NewAggScratch(0)
		scratch[s].Reserve(dim)
		slices[s] = make([]gs.ClientUpload, n)
		ranks[s] = make([][]int, n)
		for i, c := range clients {
			slices[s][i].Weight = c.weight
		}
	}
	strategy := &gs.FABTopK{}
	sel := gs.NewAggScratch(0)
	sel.Reserve(dim)
	var merged gs.RangeAgg
	var spans [][]int
	var fill []gs.FillCand
	sIdx := make([][]int, nShards)
	sVal := make([][]float64, nShards)
	sRank := make([][]int, nShards)
	var bIdx []int
	var bVal []float64

	for m := 1; m <= w.res.rounds && w.res.err == nil; m++ {
		w.round = m
		w.res.clientRounds += n
		w.res.shardRounds += nShards
		var weightedLoss float64
		maxLen := 0
		for i, c := range clients {
			batchLoss, _ := w.localStep(c, nets[i], scs[i], k, 0)
			for s := range sIdx {
				sIdx[s], sVal[s], sRank[s] = sIdx[s][:0], sVal[s][:0], sRank[s][:0]
			}
			for pi, j := range c.pairs.Idx {
				s := shardOf(j)
				sIdx[s] = append(sIdx[s], j)
				sVal[s] = append(sVal[s], c.pairs.Val[pi])
				sRank[s] = append(sRank[s], pi)
			}
			for s := 0; s < nShards; s++ {
				got, ok := w.codec("upload", up[i][s], transport.SliceUpload{ClientID: i, Round: m,
					Idx: sIdx[s], Val: sVal[s], Rank: sRank[s]}).(transport.SliceUpload)
				if !ok {
					return
				}
				slices[s][i].Pairs = sparse.Vec{Idx: got.Idx, Val: got.Val}
				ranks[s][i] = got.Rank
				w.res.reduced += len(got.Idx)
			}
			weightedLoss += c.weight / totalWeight * batchLoss
			maxLen = max(maxLen, c.pairs.Len())
		}
		merged.Idx, merged.Sum, merged.MinRank = merged.Idx[:0], merged.Sum[:0], merged.MinRank[:0]
		for s := 0; s < nShards; s++ {
			w.time("gs.range_reduce", func() {
				red[s] = gs.RangeReduceInto(scratch[s], slices[s], ranks[s], bounds[s], bounds[s+1])
			})
			got, ok := w.codec("ctrl", ctrl[s], transport.ShardResult{Round: m, ShardID: s,
				Idx: red[s].Idx, Sum: red[s].Sum, MinRank: red[s].MinRank}).(transport.ShardResult)
			if !ok {
				return
			}
			merged.Idx = append(merged.Idx, got.Idx...)
			merged.Sum = append(merged.Sum, got.Sum...)
			merged.MinRank = append(merged.MinRank, got.MinRank...)
		}
		meta := gs.DirectMeta{NumClients: n, MaxLen: maxLen, Fill: func(kappa int) ([]gs.FillCand, error) {
			fill = fill[:0]
			for s := 0; s < nShards; s++ {
				fill = gs.AppendFillCands(fill, slices[s], ranks[s], kappa)
			}
			return fill, nil
		}}
		var agg gs.Aggregate
		var err error
		w.time("gs.select", func() { agg, _, err = strategy.SelectDirect(sel, merged, meta, k, 0) })
		if err != nil {
			w.res.err = err
			return
		}
		w.res.selected += len(agg.Indices)
		spans = gs.MemberSpans(agg.Indices, bounds, spans)
		for s := 0; s < nShards; s++ {
			seal, ok := w.codec("ctrl", ctrl[s], transport.RoundSeal{Round: m, Members: spans[s]}).(transport.RoundSeal)
			if !ok {
				return
			}
			w.time("gs.downlink_slice", func() {
				sealIdx[s], sealVal[s], err = gs.BuildDownlinkSlice(sealIdx[s][:0], sealVal[s][:0], seal.Members,
					red[s], bounds[s], bounds[s+1])
			})
			if err != nil {
				w.res.err = err
				return
			}
		}
		for i, c := range clients {
			bIdx, bVal = bIdx[:0], bVal[:0]
			for s := 0; s < nShards; s++ {
				got, ok := w.codec("broadcast", down[i][s], transport.SliceBroadcast{Round: m, ShardID: s,
					Idx: sealIdx[s], Val: sealVal[s]}).(transport.SliceBroadcast)
				if !ok {
					return
				}
				bIdx = append(bIdx, got.Idx...)
				bVal = append(bVal, got.Val...)
			}
			w.applyStep(nets[i], scs[i], []*walkClient{c}, bIdx, bVal)
		}
		w.record(k, weightedLoss, len(agg.Indices))
	}
}

// population walks RunPopulationServer + RunVirtualHost on the routed
// plane: one model per host, member state materialised at first draw,
// uploads enveloped in MuxFrames on the host's one link, one broadcast
// per host.
func (w *walker) population(sh shape, in inputs, seed int64) {
	k, dim := sh.k(), sh.dim()
	sampler, err := fl.NewCohortSampler(sh.Population, sh.Cohort, nil, nil)
	if err != nil {
		w.res.err = err
		return
	}
	nets := make([]*nn.Network, sh.Hosts)
	scs := make([]*walkScratch, sh.Hosts)
	up := make([]transport.Conn, sh.Hosts)
	down := make([]transport.Conn, sh.Hosts)
	drawn := make([][]*walkClient, sh.Hosts)
	for h := range nets {
		nets[h] = sh.model()
		nets[h].SetParams(in.init)
		scs[h] = &walkScratch{}
		up[h], down[h] = newCodecLoop(), newCodecLoop()
	}
	members := map[int]*walkClient{}
	strategy := &gs.FABTopK{}
	scratch := gs.NewAggScratch(0)
	scratch.Reserve(dim)
	var uploads []gs.ClientUpload
	// Members share a host link and so one decode scratch: the
	// coordinator copies each upload out before the next arrives.
	var slotIdx [][]int
	var slotVal [][]float64

	for m := 1; m <= w.res.rounds && w.res.err == nil; m++ {
		w.round = m
		var cohort []int
		w.time("fl.cohort_draw", func() { cohort, _, _, _, err = sampler.Draw(m, in.drawRng) })
		if err != nil {
			w.res.err = err
			return
		}
		w.res.clientRounds += len(cohort)
		hostDrawn := make([][]int, sh.Hosts)
		for _, member := range cohort {
			hostDrawn[member%sh.Hosts] = append(hostDrawn[member%sh.Hosts], member)
		}
		for h := range nets {
			drawn[h] = drawn[h][:0]
			if _, ok := w.codec("ctrl", down[h], transport.CohortAssign{Round: m, Members: hostDrawn[h]}).(transport.CohortAssign); !ok {
				return
			}
		}
		for len(slotIdx) < len(cohort) {
			slotIdx, slotVal = append(slotIdx, nil), append(slotVal, nil)
			uploads = append(uploads, gs.ClientUpload{})
		}
		var partWeight float64
		for _, member := range cohort {
			partWeight += float64(in.fed.Clients[member%sh.Clients].Len())
		}
		var weightedLoss float64
		for i, member := range cohort {
			h := member % sh.Hosts
			c := members[member]
			if c == nil {
				c = newWalkClient(dim, &in.fed.Clients[member%sh.Clients], clientSeed(seed, member))
				members[member] = c
			}
			drawn[h] = append(drawn[h], c)
			batchLoss, _ := w.localStep(c, nets[h], scs[h], k, 0)
			frame, ok := w.codec("upload", up[h], transport.MuxFrame{VID: member, Msg: transport.Upload{ClientID: member,
				Round: m, Idx: c.pairs.Idx, Val: c.pairs.Val, BatchLoss: batchLoss}}).(transport.MuxFrame)
			if !ok {
				return
			}
			w.res.muxFrames++
			got := frame.Msg.(transport.Upload)
			slotIdx[i] = append(slotIdx[i][:0], got.Idx...)
			slotVal[i] = append(slotVal[i][:0], got.Val...)
			uploads[i] = gs.ClientUpload{Pairs: sparse.Vec{Idx: slotIdx[i], Val: slotVal[i]}, Weight: c.weight}
			weightedLoss += c.weight / partWeight * got.BatchLoss
		}
		var agg gs.Aggregate
		w.time("gs.aggregate", func() { agg, _ = strategy.AggregateInto(scratch, uploads[:len(cohort)], k, 0) })
		bc := transport.Broadcast{Round: m, Idx: append([]int(nil), agg.Indices...), Val: append([]float64(nil), agg.Values...)}
		for h := range nets {
			got, ok := w.codec("broadcast", down[h], bc).(transport.Broadcast)
			if !ok {
				return
			}
			w.applyStep(nets[h], scs[h], drawn[h], got.Idx, got.Val)
		}
		w.record(k, weightedLoss, len(agg.Indices))
	}
}

// engine walks fl's runGS for FAB-top-k with the adaptive controller:
// Fig. 3's schedule including the k′ probe and the three one-sample
// losses the controller's sign estimate needs.
func (w *walker) engine(sh shape, in inputs, seed int64) {
	clients, nets, scs, totalWeight := classicClients(sh, in, seed)
	n, d := len(clients), sh.dim()
	cfg := engineConfig(sh, in, seed, 0, nil)
	ctrl, strategy := cfg.Controller, cfg.Strategy.(*gs.FABTopK)
	engineRng := in.drawRng
	cost := simtime.NewCostModel(d, beta)
	scratch := gs.NewAggScratch(0)
	scratch.Reserve(d)
	uploads := make([]gs.ClientUpload, n)
	fPrev, fCur, fProbe := make([]float64, n), make([]float64, n), make([]float64, n)
	hx, hy := make([][]float64, n), make([]int, n)
	inJ := make([]bool, d)
	var saved []float64

	for m := 1; m <= w.res.rounds; m++ {
		w.round = m
		w.res.clientRounds += n
		var dec core.Decision
		w.time("core.controller", func() { dec = ctrl.Decide(m) })
		kCont := core.Project(dec.K, 1, float64(d))
		kInt := min(max(sparse.StochasticRound(kCont, engineRng), 1), d)
		probeInt := 0
		if dec.ProbeK > 0 {
			if p := min(sparse.StochasticRound(dec.ProbeK, engineRng), kInt-1); p >= 1 {
				probeInt = p
			}
		}

		var weightedLoss float64
		for i, c := range clients {
			net, sc := nets[i], scs[i]
			var batchLoss float64
			w.time("dataset.batch", func() { sc.xs, sc.ys = c.data.BatchInto(sc.xs, sc.ys, c.rng, batchSize) })
			w.time("nn.grad", func() { batchLoss = net.MeanLossGrad(sc.xs, sc.ys) })
			w.time("tensor.residual_add", func() { tensor.AXPY(1, net.Grads(), c.acc) })
			weightedLoss += c.weight / totalWeight * batchLoss
			h := c.rng.Intn(len(sc.xs))
			hx[i], hy[i] = sc.xs[h], sc.ys[h]
			w.time("nn.probe_loss", func() { fPrev[i] = net.Loss(hx[i], hy[i]) })
			w.time("sparse.topk", func() { c.pairs = sparse.TopKInto(c.pairs, &sc.topk, c.acc, kInt) })
			uploads[i] = gs.ClientUpload{Pairs: c.pairs, Weight: c.weight}
		}
		var agg, probeAgg gs.Aggregate
		w.time("gs.aggregate", func() { agg, probeAgg = strategy.AggregateInto(scratch, uploads, kInt, probeInt) })

		for _, j := range agg.Indices {
			inJ[j] = true
		}
		for i, c := range clients {
			net := nets[i]
			params := net.Params()
			if probeInt > 0 {
				// w′(m) = w(m−1) − η·∇′: apply, measure, restore exactly.
				w.time("nn.probe_loss", func() {
					if cap(saved) < len(probeAgg.Indices) {
						saved = make([]float64, len(probeAgg.Indices))
					}
					for vi, j := range probeAgg.Indices {
						saved[vi] = params[j]
						params[j] -= learningRate * probeAgg.Values[vi]
					}
					fProbe[i] = net.Loss(hx[i], hy[i])
					for vi, j := range probeAgg.Indices {
						params[j] = saved[vi]
					}
				})
			}
			w.time("sparse.apply", func() {
				sparse.Vec{Idx: agg.Indices, Val: agg.Values}.AddTo(params, -learningRate)
			})
			w.time("nn.probe_loss", func() { fCur[i] = net.Loss(hx[i], hy[i]) })
			w.time("sparse.apply", func() {
				for vi, j := range c.pairs.Idx {
					if inJ[j] {
						c.acc[j] -= c.pairs.Val[vi]
					}
				}
			})
		}
		for _, j := range agg.Indices {
			inJ[j] = false
		}

		uplink, downlink := float64(kInt)*2, float64(len(agg.Indices))*2
		obs := core.Observation{Round: m, K: kCont, GlobalLoss: weightedLoss,
			LossPrev: metrics.Mean(fPrev), LossCur: metrics.Mean(fCur), LossProbe: math.NaN()}
		if probeInt > 0 {
			downlink += float64(max(len(agg.Indices)-len(probeAgg.Indices), 0)) * 2
			uplink += 3
			downlink++
			obs.ProbeK = float64(probeInt)
			obs.ProbeRoundTime = cost.RoundTime(float64(probeInt)*2, float64(probeInt)*2)
			obs.LossProbe = metrics.Mean(fProbe)
		}
		obs.RoundTime = cost.RoundTime(uplink, downlink)
		w.time("core.controller", func() { ctrl.Observe(obs) })
		w.record(kInt, weightedLoss, len(agg.Indices))
	}
}
