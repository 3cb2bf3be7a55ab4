package fl

import "fedsparse/internal/par"

// This file documents the worker pool behind Config.Workers (the pool
// primitive itself lives in internal/par, shared with the gs sharded
// tiers). A GS round fans out three times — phase A's participate over
// the participants (the participant Step of step.go: gradient, residual
// add, top-k into the round's slot); the seal's sumOrSettle, whose
// iteration 0 sums B and B′ (Server.Sum) while iterations 1..P take the
// P participant blocks' f(w(r−1)) losses and Settle; then sealReplica
// over the P weight replicas (the probe, its losses, the update, the
// f(w(r)) losses) — and each iteration is independent, so the engine
// stays bit-deterministic at any worker count.
//
// Shared-state audit (what makes the fan-outs safe):
//
//   - Worker w owns replica w of the synchronized weights, an
//     *nn.Network (layers cache activations, so a network is
//     single-goroutine scratch). Phase A's pool never exceeds P, and it
//     only reads a replica's weights. In each of the seal's fan-outs one
//     iteration alone uses replica i (sumOrSettle's i+1, sealReplica's
//     i), serving the fixed participant block ChunkBounds(nPart, P, i),
//     and only sealReplica writes it. A loss depends on (weights, sample)
//     only, so which replica measures it moves no bit.
//   - Each client owns its Member: the residual a_i (touched in the seal
//     only by the iteration whose block holds it) and its *rand.Rand. Every
//     draw a client makes (minibatch, probe sample) comes from its own
//     stream in a fixed per-client order, so the streams advance
//     identically however iterations are scheduled.
//   - A round's slot is written by phase A at participant position pi
//     only (upload pairs, probe sample) and only read by the seal; the
//     mandated index set every upload aliases is read-only once copied.
//     With a window, phase A of round m and the seal of round m−W run
//     one after the other on different slots of the ring.
//   - tensor kernels are stateless, and the batch-blocked dense path keeps
//     its only state — each Dense layer's staged (dL/dy, x) samples —
//     inside the network's own arena, written by Backward and drained by
//     the flush at the end of the same MeanLossGrad call: nothing staged
//     survives the call, nothing is shared between networks. Per gradient
//     element the flush runs the per-sample path's addition chain, so
//     blocking moves no bit at any worker count.
//   - A Step's scratch — batch views that dataset.BatchInto fills with
//     read-only views of a client's immutable samples, and the
//     sparse.TopKInto working memory, whose output is a function of
//     (vector, k) alone — is dead once Run returns. So the round arena
//     keeps one Step per worker, indexed by par.For's stable worker id,
//     and one probe save buffer per replica, and the coordinator grows
//     them before the fan-out: which worker meets which client decides
//     nothing, not even the allocation count.
//   - The engine rng (stochastic k rounding, mandated indices, the roster
//     draw), the selection, and the controller run only on the
//     coordinating goroutine, between the fan-outs. The engine fields the
//     fan-outs read (cur, partWeight, inB) are likewise set by the
//     coordinator and only read inside them.
//   - The summing pass is one iteration of sumOrSettle, on whichever
//     worker claims it. It writes only the server's sums and output
//     buffers and the engine's sel/probeSel, which no other iteration of
//     that fan-out touches; the selection's membership map (inB, the J
//     every Settle reads) is read-only from the selection to the next
//     round's, so the settles share it with the sum.
//
// Determinism then reduces to the merge: workers write every result into
// a slot indexed by participant (or client) position, and the coordinator
// reduces the slots in index order, so each float64 summation performs
// the same operations in the same order as the sequential path. FedAvg's
// weight average fans out over coordinate chunks instead (see
// reduceWeighted). The gs sparse aggregation has no fan-out of its own to
// audit: gs.AggScratch sums on one goroutine, in one iteration.

// poolSize returns how many goroutines parallelFor(workers, n, ·) uses:
// min(workers, n), and at least 1 (workers <= 1 means sequential).
func poolSize(workers, n int) int { return par.PoolSize(workers, n) }

// parallelFor runs fn(i, worker) for every i in [0, n); see par.For for
// the scheduling and determinism contract.
func parallelFor(workers, n int, fn func(i, worker int)) { par.For(workers, n, fn) }
