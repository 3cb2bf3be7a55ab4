package fl

import "fedsparse/internal/par"

// This file documents the worker pool behind Config.Workers (the pool
// primitive itself lives in internal/par, shared with the gs sharded
// tiers). The per-client phases of a round (local gradient +
// residual accumulation + top-k extraction, and broadcast application +
// probe losses) are independent across clients, so they fan out over a
// fixed pool of goroutines while the engine stays bit-deterministic at any
// worker count.
//
// Shared-state audit (what makes the fan-out safe):
//
//   - Each client owns its *nn.Network — layers cache forward activations
//     per instance, so a network is single-goroutine scratch — plus its
//     residual accumulator a_i, its *rand.Rand, and its reusable upload /
//     minibatch buffers. Every random draw a client makes
//     (minibatch, probe sample) comes from its own stream and happens in a
//     fixed per-client order, so the streams advance identically
//     regardless of how iterations are scheduled.
//   - tensor kernels are stateless, and the batch-blocked dense path keeps
//     its only state — each Dense layer's staged (dL/dy, x) samples —
//     inside the network's own arena, written by Backward and drained by
//     the flush at the end of the same MeanLossGrad call: nothing staged
//     survives the call, nothing is shared between networks. Per gradient
//     element the flush runs the per-sample path's addition chain (sample
//     order from +0, exact-zero terms skipped), so blocking moves no bit
//     at any worker count.
//   - sparse.TopKInto touches only the
//     caller-owned scratch, and its output is a function of (vector, k)
//     alone — the scratch carries nothing between calls. So the round
//     arena keeps one scratch per worker, indexed by par.For's stable
//     worker id next to the probe save buffers: at most Workers
//     selections ever run at once, whichever clients they serve.
//     sparse.Quantize clones.
//   - dataset.BatchInto fills caller-owned buffers with read-only views of
//     the client's samples.
//   - The engine rng (stochastic k rounding, participant selection,
//     mandated indices), the gs.Strategy aggregation, and the controller
//     run only on the coordinating goroutine, between the fan-outs. The
//     round arena's epoch-stamped slabs (inJ membership, participant
//     positions) are likewise stamped by the coordinator and only read
//     inside the fan-outs.
//
// Determinism then reduces to the merge: workers write every result into
// a slot indexed by participant (or client) position, and the coordinator
// reduces the slots in index order, so each float64 summation performs
// the exact same operations in the exact same order as the sequential
// legacy path. FedAvg's weight average fans out over coordinate chunks
// instead: each coordinate's addition chain still runs in ascending client
// order inside exactly one chunk, so the result is bit-identical to the
// sequential reduction too (see reduceWeighted). The gs sparse aggregation
// has no fan-out to audit: gs.AggScratch reduces on the coordinating
// goroutine, and the sharded tiers fan out over whole shards, each with a
// scratch of its own.

// poolSize returns how many goroutines parallelFor(workers, n, ·) uses:
// min(workers, n), and at least 1 (workers <= 1 means sequential).
func poolSize(workers, n int) int { return par.PoolSize(workers, n) }

// parallelFor runs fn(i, worker) for every i in [0, n); see par.For for
// the scheduling and determinism contract.
func parallelFor(workers, n int, fn func(i, worker int)) { par.For(workers, n, fn) }
