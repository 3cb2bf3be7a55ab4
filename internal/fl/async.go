// The bounded-staleness round pipeline: runGSAsync overlaps phase-A
// client compute with round sealing. With window W, step m runs round
// m's phase A (minibatch, gradient accumulation, top-k extraction) at
// the weights of round m−W−1 — W rounds of broadcasts are still in
// flight — and then seals round m−W: admit or fold each upload,
// aggregate, broadcast, measure, observe. The in-flight state lives in
// a ring of W+1 slots; every buffer in a slot is reused once the slot's
// round seals, so the steady-state loop stays allocation-free like the
// synchronous engine's.
//
// The invariant that makes the machinery safe to ship: at W=0 the step
// loop degenerates to "phase A of m, then seal of m" — the synchronous
// loop's exact order, with the same engine and client rng draws at the
// same points — so a W=0 async run is bit-identical to runGS across
// the whole topology grid (shards × strategies × workers × direct).
// The differential tests force this path with an all-zero Delays
// schedule and compare trajectories bit for bit.
//
// Two measurement points move, value-preservingly, relative to runGS:
// the probe sample h is still DRAWN in phase A (keeping client rng
// streams aligned with the synchronous engine), but its one-sample
// losses f(w(r−1)), f(w′(r)), f(w(r)) are all measured at seal time —
// at W=0 the weights are the same ones phase A saw, and at W>0 the
// seal's weights are the semantically right ones (the loss trajectory
// brackets the update being applied, not a W-rounds-stale snapshot).
// The minibatch loss (the controller's global-loss input) stays a
// phase-A quantity: at W>0 it is measured at the lagged weights, which
// is exactly what a real overlapped deployment reports.
package fl

import (
	"fmt"
	"math"
	"math/rand"

	"fedsparse/internal/core"
	"fedsparse/internal/gs"
	"fedsparse/internal/simtime"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// asyncSlot is one in-flight round of the pipeline: everything phase A
// produces that the seal, W steps later, consumes. Pair and sample
// data is copied in — the clients' own buffers (c.pairs, c.xs) are
// overwritten by the next phase A, which at W>0 happens before this
// round seals. All backing storage is grown once and reused across
// ring generations.
type asyncSlot struct {
	round        int
	kInt         int
	kCont        float64
	probeInt     int
	weightedLoss float64

	participants []int
	admitted     []bool
	uploads      []gs.ClientUpload
	pairIdx      [][]int
	pairVal      [][]float64
	hx           [][]float64
	hy           []int
}

func newAsyncSlot(nClients int) *asyncSlot {
	return &asyncSlot{
		participants: make([]int, 0, nClients),
		admitted:     make([]bool, nClients),
		uploads:      make([]gs.ClientUpload, nClients),
		pairIdx:      make([][]int, nClients),
		pairVal:      make([][]float64, nClients),
		hx:           make([][]float64, nClients),
		hy:           make([]int, nClients),
	}
}

// runGSAsync is Algorithm 1 under the bounded-staleness window
// cfg.Staleness with the admission schedule cfg.Delays. Selected by
// run() whenever Staleness > 0 or Delays is non-nil; validate already
// ruled out FedAvg and WALDir.
func runGSAsync(cfg Config, clients []*client, totalWeight float64, cost simtime.CostModel,
	ctrl core.Controller, engineRng *rand.Rand, d int) (*Result, error) {

	res := &Result{}
	coll := &Collector{}
	sink := MultiObserver(coll, cfg.Observer)
	var clock simtime.Clock
	nClients := len(clients)
	W := cfg.Staleness
	elemUnits := 2.0
	if cfg.QuantBits > 0 && cfg.QuantBits < 64 {
		elemUnits = 1 + float64(cfg.QuantBits)/64
	}

	ar := newRoundArena(d, nClients, poolSize(cfg.Workers, nClients))
	ring := make([]*asyncSlot, W+1)
	for i := range ring {
		ring[i] = newAsyncSlot(nClients)
	}

	// The same aggregation dispatch as runGS — the async engine reuses
	// every selection path (direct, sharded, scratch, fallback), which
	// is what lets the W=0 differential grid cover all of them.
	scratchAgg, _ := cfg.Strategy.(gs.ScratchAggregator)
	var aggScratch *gs.AggScratch
	var shardedAgg *gs.ShardedScratch
	var shardSel gs.ShardSelector
	var directAgg *gs.DirectScratch
	var directSel gs.DirectSelector
	if cfg.Direct {
		directSel = cfg.Strategy.(gs.DirectSelector)
		directAgg = gs.NewDirectScratch(cfg.Shards, cfg.Workers, d)
	} else if cfg.Shards > 0 {
		shardSel = cfg.Strategy.(gs.ShardSelector)
		shardedAgg = gs.NewShardedScratch(cfg.Shards, cfg.Workers, d)
	} else if scratchAgg != nil {
		aggScratch = gs.NewAggScratch(0)
		aggScratch.Reserve(d)
	}
	mandInto, _ := cfg.Strategy.(gs.MandatedIntoStrategy)

	// Step loop: phase A of round m while sealing round m−W. Steps
	// beyond cfg.Rounds run no phase A — they drain the last W rounds.
steps:
	for step := 1; step <= cfg.Rounds+W; step++ {
		if m := step; m <= cfg.Rounds {
			// ---- Phase A of round m, at weights w(m−1−W). ----
			sink.OnRoundStart(m)
			slot := ring[m%(W+1)]
			slot.round = m
			dec := ctrl.Decide(m)
			slot.kCont = core.Project(dec.K, 1, float64(d))
			kInt := sparse.StochasticRound(slot.kCont, engineRng)
			if kInt < 1 {
				kInt = 1
			}
			if kInt > d {
				kInt = d
			}
			slot.kInt = kInt
			slot.probeInt = resolveProbe(dec.ProbeK, kInt, engineRng)

			var mandated []int
			if mandInto != nil {
				mandated = mandInto.MandatedIndicesInto(&ar.mand, m, d, kInt, engineRng)
			} else {
				mandated = cfg.Strategy.MandatedIndices(m, d, kInt, engineRng)
			}
			ar.participants, ar.permBuf = pickParticipantsInto(ar.participants, ar.permBuf, cfg.Participation, nClients, engineRng)
			slot.participants = append(slot.participants[:0], ar.participants...)
			participants := slot.participants
			nPart := len(participants)
			lossShare := ar.lossShare[:nPart]

			var partWeight float64
			for _, ci := range participants {
				partWeight += clients[ci].weight
			}
			parallelFor(cfg.Workers, nPart, func(pi, w int) {
				c := clients[participants[pi]]
				c.xs, c.ys = c.data.BatchInto(c.xs, c.ys, c.rng, cfg.BatchSize)
				xs, ys := c.xs, c.ys
				batchLoss := c.net.MeanLossGrad(xs, ys)
				tensor.AXPY(1, c.net.Grads(), c.acc)
				lossShare[pi] = c.weight / partWeight * batchLoss

				// Draw the probe sample here — same client rng stream as
				// the synchronous engine — but copy it out: c.xs is
				// overwritten by this client's next phase A, which at W>0
				// precedes this round's seal-time loss measurements.
				h := c.rng.Intn(len(xs))
				slot.hx[pi] = append(slot.hx[pi][:0], xs[h]...)
				slot.hy[pi] = ys[h]

				// Extract the upload and copy it into the slot (the
				// client's pair buffer is next round's scratch). The
				// quantization snap runs on the copy — bit-identical to
				// snapping before copying.
				var pairs sparse.Vec
				if mandated != nil {
					slot.pairIdx[pi] = append(slot.pairIdx[pi][:0], mandated...)
					vals := slot.pairVal[pi][:0]
					for _, j := range mandated {
						vals = append(vals, c.acc[j])
					}
					slot.pairVal[pi] = vals
				} else {
					c.pairs = sparse.TopKInto(c.pairs, &ar.topk[w], c.acc, kInt)
					pairs = c.pairs
					slot.pairIdx[pi] = append(slot.pairIdx[pi][:0], pairs.Idx...)
					slot.pairVal[pi] = append(slot.pairVal[pi][:0], pairs.Val...)
				}
				if cfg.QuantBits > 0 {
					sparse.QuantizeInPlace(slot.pairVal[pi], cfg.QuantBits)
				}
				slot.uploads[pi] = gs.ClientUpload{
					Pairs:  sparse.Vec{Idx: slot.pairIdx[pi], Val: slot.pairVal[pi]},
					Weight: c.weight,
				}
			})
			var weightedLoss float64
			for _, share := range lossShare {
				weightedLoss += share
			}
			slot.weightedLoss = weightedLoss
		}

		r := step - W
		if r < 1 {
			continue
		}
		// ---- Seal of round r: admit, aggregate, broadcast, measure. ----
		slot := ring[r%(W+1)]
		if slot.round != r {
			return nil, fmt.Errorf("fl: staleness ring corrupted at round %d (slot holds %d)", r, slot.round)
		}
		participants := slot.participants
		nPart := len(participants)
		uploads := slot.uploads[:nPart]
		admitted := slot.admitted[:nPart]
		for pi, ci := range participants {
			admitted[pi] = cfg.Delays == nil || cfg.Delays(ci, r) <= W
		}
		staleSlices, residualNorm := gs.FoldStale(uploads, admitted)

		kInt, probeInt := slot.kInt, slot.probeInt
		var agg, probeAgg gs.Aggregate
		if directAgg != nil {
			var err error
			agg, probeAgg, err = directAgg.Aggregate(directSel, uploads, kInt, probeInt)
			if err != nil {
				return nil, fmt.Errorf("fl: round %d direct aggregation: %w", r, err)
			}
		} else if shardedAgg != nil {
			agg, probeAgg = shardedAgg.Aggregate(shardSel, uploads, kInt, probeInt)
		} else if scratchAgg != nil {
			agg, probeAgg = scratchAgg.AggregateInto(aggScratch, uploads, kInt, probeInt)
		} else {
			agg = cfg.Strategy.Aggregate(uploads, kInt)
			if probeInt > 0 {
				probeAgg = cfg.Strategy.Aggregate(uploads, probeInt)
			}
		}
		if cfg.QuantBits > 0 {
			sparse.QuantizeInPlace(agg.Values, cfg.QuantBits)
			if probeInt > 0 {
				sparse.QuantizeInPlace(probeAgg.Values, cfg.QuantBits)
			}
		}

		fPrev := ar.fPrev[:nPart]
		fCur := ar.fCur[:nPart]
		fProbe := ar.fProbe[:nPart]
		ar.stampInJ(agg.Indices)
		ar.stampParticipants(participants)
		eta := cfg.LearningRate
		parallelFor(cfg.Workers, nClients, func(ci, w int) {
			c := clients[ci]
			params := c.net.Params()
			pi := ar.participantPos(ci)
			isPart := pi >= 0
			if isPart {
				// f_{i,h}(w(r−1)): measured here, at the weights the
				// update is about to move — see the package comment.
				fPrev[pi] = c.net.Loss(slot.hx[pi], slot.hy[pi])
			}
			if probeInt > 0 && isPart {
				if cap(ar.saved[w]) < len(probeAgg.Indices) {
					ar.saved[w] = make([]float64, len(probeAgg.Indices))
				}
				saved := ar.saved[w][:len(probeAgg.Indices)]
				for vi, j := range probeAgg.Indices {
					saved[vi] = params[j]
					params[j] -= eta * probeAgg.Values[vi]
				}
				fProbe[pi] = c.net.Loss(slot.hx[pi], slot.hy[pi])
				for vi, j := range probeAgg.Indices {
					params[j] = saved[vi]
				}
			}
			for vi, j := range agg.Indices {
				params[j] -= eta * agg.Values[vi]
			}
			if !isPart {
				return
			}
			fCur[pi] = c.net.Loss(slot.hx[pi], slot.hy[pi])
			// Residual subtraction for admitted uploads only: a folded
			// upload was masked to empty above, so its mass stays in the
			// accumulator and the next top-k re-extracts it — the
			// error-feedback fold-in.
			pairs := uploads[pi].Pairs
			for vi, j := range pairs.Idx {
				if ar.inJ[j] == ar.inJGen {
					c.acc[j] -= pairs.Val[vi]
				}
			}
		})

		if cfg.CheckSync {
			if err := checkSync(clients); err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
		}

		uplink, downlink := payloadUnits(cfg.Strategy, d, kInt, len(agg.Indices), elemUnits)
		if probeInt > 0 {
			diff := len(agg.Indices) - len(probeAgg.Indices)
			if diff < 0 {
				diff = 0
			}
			downlink += float64(diff) * elemUnits
			uplink += 3
			downlink += 1
		}
		roundTime := cost.RoundTime(uplink, downlink)
		clock.Advance(roundTime)

		obs := core.Observation{
			Round:      r,
			K:          slot.kCont,
			RoundTime:  roundTime,
			GlobalLoss: slot.weightedLoss,
			LossPrev:   mean(fPrev),
			LossCur:    mean(fCur),
			LossProbe:  math.NaN(),
		}
		if probeInt > 0 {
			obs.ProbeK = float64(probeInt)
			obs.ProbeRoundTime = cost.RoundTime(float64(probeInt)*elemUnits, float64(probeInt)*elemUnits)
			obs.LossProbe = mean(fProbe)
		}
		ctrl.Observe(obs)

		stats := RoundStats{
			Round:         r,
			K:             kInt,
			KCont:         slot.kCont,
			RoundTime:     roundTime,
			Time:          clock.Now(),
			Loss:          slot.weightedLoss,
			DownlinkElems: len(agg.Indices),
			Participants:  nPart,
			Population:    nClients,
			CohortSize:    nPart,
			TestAcc:       math.NaN(),
			TestLoss:      math.NaN(),
			TrainLoss:     math.NaN(),
			StaleSlices:   staleSlices,
			ResidualNorm:  residualNorm,
			WindowDepth:   min(r+W, cfg.Rounds) - r,
		}
		if cfg.RecordPerClient {
			used := make([]int, nClients)
			for pi, ci := range participants {
				used[ci] = agg.PerClientUsed[pi]
			}
			stats.PerClientUsed = used
		}
		maybeEval(&cfg, &stats, clients[0].net, clients, totalWeight, r)
		sink.OnRoundEnd(stats)

		if cfg.MaxTime > 0 && clock.Now() >= cfg.MaxTime {
			break steps
		}
	}
	res.Stats = coll.Events
	res.Final = clients[0].net
	return res, nil
}
