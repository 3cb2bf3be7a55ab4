package main

import (
	"math"
	"strings"

	"fedsparse/internal/metrics"
)

// walkMetrics maps a walk span name to its per-layer metric: the total
// time of the spans divided by the unit count named in the metric.
var walkMetrics = []struct {
	spans []string
	name  string
	per   func(w *walkResult) int
}{
	{[]string{"dataset.batch"}, "dataset.batch_us_per_client", perClient},
	{[]string{"nn.grad"}, "nn.grad_us_per_client", perClient},
	{[]string{"nn.probe_loss"}, "nn.probe_loss_us_per_client", perClient},
	{[]string{"tensor.residual_add"}, "tensor.residual_add_us_per_client", perClient},
	{[]string{"sparse.topk"}, "sparse.topk_us_per_client", perClient},
	{[]string{"sparse.quantize"}, "sparse.quantize_us_per_client", perClient},
	{[]string{"sparse.apply"}, "sparse.apply_us_per_client", perClient},
	{[]string{"transport.codec.encode_upload"}, "transport.codec.encode_us_per_upload", nil},
	{[]string{"transport.codec.decode_upload"}, "transport.codec.decode_us_per_upload", nil},
	{[]string{"transport.codec.encode_broadcast"}, "transport.codec.encode_us_per_broadcast", nil},
	{[]string{"transport.codec.decode_broadcast"}, "transport.codec.decode_us_per_broadcast", nil},
	{[]string{"transport.codec.encode_ctrl", "transport.codec.decode_ctrl"}, "transport.codec.ctrl_us_per_round", perRound},
	{[]string{"gs.aggregate"}, "gs.aggregate_us_per_round", perRound},
	{[]string{"gs.range_reduce"}, "gs.range_reduce_us_per_shard_round", perShardRound},
	{[]string{"gs.select"}, "gs.select_us_per_round", perRound},
	{[]string{"gs.downlink_slice"}, "gs.downlink_slice_us_per_shard_round", perShardRound},
	{[]string{"core.controller"}, "core.controller_us_per_round", perRound},
	{[]string{"fl.cohort_draw"}, "fl.cohort_draw_us_per_round", perRound},
	{[]string{"par.for_overhead"}, "par.for_overhead_us", nil},
}

func perClient(w *walkResult) int     { return w.clientRounds }
func perRound(w *walkResult) int      { return w.rounds }
func perShardRound(w *walkResult) int { return w.shardRounds }

// checkWalk holds the walk to its contract: the same first rounds, bit
// for bit, as the real run.
func (m *measurement) checkWalk() {
	w := m.walk
	if w.err != nil {
		m.fault("layer walk: %v", w.err)
		return
	}
	if len(w.traj) != w.rounds || len(m.ref) < w.rounds {
		m.fault("layer walk: %d rounds walked, %d wanted, reference has %d", len(w.traj), w.rounds, len(m.ref))
		return
	}
	for i, got := range w.traj {
		if got != m.ref[i] {
			m.fault("layer walk: round %d is %+v, the real run's is %+v", i+1, got, m.ref[i])
			return
		}
	}
}

// roleTimes is where one role's rounds went, summed over its actors.
type roleTimes struct {
	actors               map[string]bool
	self, send, recvWait int64
	recvUp               int64 // the part of recvWait spent waiting for uploads
}

// roleBreakdown splits every role's round spans of one assembled trace
// into self time, time in Send and time blocked in Recv.
func roleBreakdown(spans []span) [numRoles]roleTimes {
	var out [numRoles]roleTimes
	for r := range out {
		out[r].actors = map[string]bool{}
	}
	self := selfTimes(spans)
	for i, s := range spans {
		role, op, _ := strings.Cut(s.Name, ".")
		r := -1
		for ri, name := range roleNames {
			if name == role {
				r = ri
			}
		}
		if r < 0 {
			continue
		}
		rt := &out[r]
		rt.actors[s.Actor] = true
		switch {
		case op == "round":
			rt.self += self[i]
		case strings.HasPrefix(op, "send."):
			rt.send += s.dur()
		case strings.HasPrefix(op, "recv."):
			rt.recvWait += s.dur()
			if op == "recv.up" {
				rt.recvUp += s.dur()
			}
		}
	}
	return out
}

// perLayer derives the --trace 1 result: role timings and counts from the
// traced repetitions, kernel timings from the layer walk, and the
// trajectory's own numbers (k, loss, normalised time).
func (m *measurement) perLayer() result {
	sh := m.sh
	e2e := m.endToEnd()
	res := result{Correct: m.correct && e2e.Correct, Attempted: e2e.Attempted, Failed: e2e.Failed,
		Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// Round-time median and tail, pooled over the untraced repetitions.
	// The tail is the highest percentile that still has ten samples beyond
	// it (p95 when the repetitions gave enough rounds).
	var pooled, tracedPooled []float64
	for _, rep := range m.timed {
		pooled = append(pooled, rep.roundMs...)
	}
	tailP := 95.0
	if n := len(pooled); n > 0 && float64(n)*0.05 < 11 {
		tailP = math.Floor(100 * float64(n-11) / float64(n))
	}
	tail, err := percentile(pooled, tailP)
	if err != nil {
		tailP, tail = 50, median(pooled)
	}
	set("fl.round_ms_p50", "ms", median(pooled))
	set("fl.round_ms_tail", "ms", tail)
	set("fl.round_tail_percentile", "%", tailP)

	// Role breakdown and traffic counts over the traced repetitions.
	var roles [numRoles]roleTimes
	var bytes, msgs, elems, indexInts [numTrafficClasses]uint64
	var muxFrames uint64
	var reduceWait float64
	members := map[int]struct{}{}
	rounds := 0
	var enrolS, enrolAllocs []float64
	for _, rep := range m.traced {
		if rep.err != nil || rep.rounds() != sh.Rounds {
			continue
		}
		rounds += sh.Rounds
		tracedPooled = append(tracedPooled, rep.roundMs...)
		enrolS = append(enrolS, rep.enrol.Seconds())
		enrolAllocs = append(enrolAllocs, float64(rep.enrolAllocs))
		for r, rt := range roleBreakdown(assembleTrace(rep.obs, rep.conns)) {
			roles[r].self += rt.self
			roles[r].send += rt.send
			roles[r].recvWait += rt.recvWait
			roles[r].recvUp += rt.recvUp
			roles[r].actors = rt.actors
		}
		for _, c := range rep.conns {
			for cl := range bytes {
				bytes[cl] += c.bytes[cl]
				msgs[cl] += c.msgs[cl]
				elems[cl] += c.elems[cl]
				indexInts[cl] += c.indexInts[cl]
			}
			muxFrames += c.muxFrames
			for vid := range c.members {
				members[vid] = struct{}{}
			}
		}
		for _, ev := range rep.events {
			for _, s := range ev.ShardReduceSeconds {
				reduceWait += s
			}
		}
	}
	perRoundMs := func(ns int64, actors int) float64 {
		if rounds == 0 || actors == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(rounds) / float64(actors)
	}
	perRoundCount := func(n uint64) float64 {
		if rounds == 0 {
			return 0
		}
		return float64(n) / float64(rounds)
	}
	co, cl, shd := roles[roleCoordinator], roles[roleClient], roles[roleShard]
	set("transport.coordinator.recv_wait_ms_per_round", "ms", perRoundMs(co.recvWait, 1))
	set("transport.coordinator.send_ms_per_round", "ms", perRoundMs(co.send, 1))
	set("transport.coordinator.busy_ms_per_round", "ms", perRoundMs(co.self, 1))
	set("transport.client.compute_ms_per_round", "ms", perRoundMs(cl.self, len(cl.actors)))
	set("transport.client.send_ms_per_round", "ms", perRoundMs(cl.send, len(cl.actors)))
	set("transport.client.recv_wait_ms_per_round", "ms", perRoundMs(cl.recvWait, len(cl.actors)))
	set("transport.shard.busy_ms_per_round", "ms", perRoundMs(shd.self, len(shd.actors)))
	set("transport.shard.ingest_recv_wait_ms_per_round", "ms", perRoundMs(shd.recvUp, len(shd.actors)))
	if rounds > 0 {
		reduceWait = reduceWait * 1e3 / float64(rounds)
	}
	set("transport.shard.reduce_wait_ms_per_round", "ms", reduceWait)

	set("transport.msgs_per_round", "count", perRoundCount(msgs[classUp]+msgs[classDown]+msgs[classCtrl]))
	set("transport.wire_bytes_up_per_round", "B", perRoundCount(bytes[classUp]))
	set("transport.wire_bytes_down_per_round", "B", perRoundCount(bytes[classDown]))
	set("transport.wire_bytes_ctrl_per_round", "B", perRoundCount(bytes[classCtrl]))
	var indexShare, bytesPerElem float64
	if payload := bytes[classUp] + bytes[classDown]; payload > 0 {
		indexShare = 4 * float64(indexInts[classUp]+indexInts[classDown]) / float64(payload)
	}
	if elems[classUp] > 0 {
		bytesPerElem = float64(bytes[classUp]) / float64(elems[classUp])
	}
	set("transport.codec.index_bytes_share", "ratio", indexShare)
	set("transport.codec.bytes_per_elem_up", "B", bytesPerElem)
	set("transport.mux.frames_per_round", "count", perRoundCount(muxFrames))
	// Every repetition draws the same members (same seed), so the union
	// over repetitions is one repetition's count.
	set("transport.population.materialised_members", "count", float64(len(members)))
	if sh.Plane == planePop {
		set("transport.population.enrol_s", "s", median(enrolS))
		set("transport.population.enrol_allocs", "count", median(enrolAllocs))
	} else {
		set("transport.population.enrol_s", "s", 0)
		set("transport.population.enrol_allocs", "count", 0)
	}

	// The trajectory's own numbers, exact functions of the seed.
	final, timeToPsi, _ := m.lossStats()
	set("fl.final_loss", "nats", final)
	set("fl.norm_time_to_loss", "norm-time", timeToPsi)
	var kMean, kStd, commShare float64
	if len(m.timed) > 0 && len(m.timed[0].events) > 0 {
		events := m.timed[0].events
		times := normTimes(sh, events)
		ks := make([]float64, len(events))
		prev := 0.0
		for i, ev := range events {
			ks[i] = float64(ev.K)
			rt := times[i] - prev
			prev = times[i]
			commShare += (rt - 1) / rt
		}
		commShare /= float64(len(events))
		kMean, kStd = metrics.Mean(ks), metrics.StdDev(ks[len(ks)/2:])
	}
	set("core.k_mean", "count", kMean)
	set("core.k_std_second_half", "count", kStd)
	set("simtime.comm_share", "ratio", commShare)

	var overhead float64
	if u := median(pooled); u > 0 && len(tracedPooled) > 0 {
		overhead = 100 * (median(tracedPooled)/u - 1)
	}
	set("trace.overhead_pct", "%", overhead)

	// Kernel timings from the layer walk.
	w := m.walk
	var walkNs int64
	for _, a := range w.total {
		walkNs += a.ns
	}
	walkNs -= nsOf(w, "par.for_overhead") // a probe, not part of any round
	for _, wm := range walkMetrics {
		var ns int64
		units := 0
		for _, name := range wm.spans {
			ns += nsOf(w, name)
			if a := w.total[name]; a != nil && wm.per == nil {
				units = a.calls
			}
		}
		if wm.per != nil {
			units = wm.per(w)
		}
		var v float64
		if units > 0 {
			v = float64(ns) / 1e3 / float64(units)
		}
		set(wm.name, "us", v)
	}
	var waste float64
	if w.selected > 0 {
		waste = float64(w.reduced) / float64(w.selected)
	}
	set("gs.reduced_coords_per_selected", "ratio", waste)
	cpuMs := e2eValue(e2e, "cpu_s_per_round") * 1e3
	walkMs := 0.0
	if w.rounds > 0 {
		walkMs = float64(walkNs) / 1e6 / float64(w.rounds)
	}
	var coverage float64
	if cpuMs > 0 {
		coverage = walkMs / cpuMs
	}
	set("trace.walk_coverage", "ratio", coverage)
	set("trace.unattributed_ms_per_round", "ms", cpuMs-walkMs)
	return res
}

func nsOf(w *walkResult, name string) int64 {
	if a := w.total[name]; a != nil {
		return a.ns
	}
	return 0
}

func e2eValue(res result, name string) float64 { return res.Metrics[name].Value }
