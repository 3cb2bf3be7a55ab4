// Package fl is the federated-learning engine implementing
// Algorithm 1 (FL with sparse gradient aggregation) and the surrounding
// machinery of Fig. 3: per-round gradient accumulation, top-k uplink,
// server-side selection, synchronized sparse updates, residual reset, the
// k′-probe computation of w′(m), the three one-sample losses for
// derivative-sign estimation, and normalized-time accounting.
//
// Two training modes are supported:
//
//   - GS mode (Config.Strategy set): Algorithm 1 with any gs.Strategy and
//     any core.Controller choosing k each round.
//   - FedAvg mode (Config.FedAvg): local SGD steps with full-weight
//     averaging every ⌊D/(2k)⌋ rounds — the send-all-or-nothing
//     comparison of Section V-A with the same average communication
//     overhead as k-element GS.
//
// GS mode is one round pipeline (round.go): a phase A and a seal per
// round over a ring of Staleness+1 in-flight rounds, the lockstep engine
// being the window at zero. FedAvg is a different algorithm — local steps
// and a dense average — with a loop of its own below.
//
// The steady-state round loop is allocation-free on the sequential path
// (Workers <= 1): every per-round buffer (per-worker participant steps
// with their minibatch views and top-k scratch, upload slots, probe
// losses, selection membership) lives in the per-run round arena or an
// in-flight round's slot and is reused across rounds. Only user-facing
// outputs (RoundEvent, recorded per-client counts) and the optional
// cadenced evaluations still allocate. With Workers > 1 each fan-out
// additionally spawns its pool goroutines, a small per-round constant
// that buys the parallel speedup.
package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
	"fedsparse/internal/par"
	"fedsparse/internal/simtime"
	"fedsparse/internal/tensor"
	"fedsparse/internal/wal"
)

// Config describes one federated training run.
type Config struct {
	// Data is the federated dataset (clients + global test set).
	Data *dataset.Federated
	// Model returns a fresh network of the task's architecture; weights
	// are initialized once by the engine. GS mode calls it once per
	// worker (see Workers) and FedAvg once per client and per worker.
	Model func() *nn.Network
	// LearningRate is the SGD step size η.
	LearningRate float64
	// BatchSize is the per-client minibatch size.
	BatchSize int
	// Rounds is M, the number of training rounds.
	Rounds int
	// Seed drives every random choice in the run.
	Seed int64

	// Strategy selects the GS method (GS mode). Exactly one of Strategy
	// or FedAvg must be set.
	Strategy gs.Strategy
	// Controller chooses k each round in GS mode; defaults to the
	// paper's k = 1000 equivalent if nil (FixedK over min(1000, D)).
	Controller core.Controller

	// FedAvg enables the weight-averaging mode.
	FedAvg bool
	// FedAvgKEquiv is the k whose communication budget FedAvg matches:
	// full exchanges happen every ⌊D/(2k)⌋ rounds.
	FedAvgKEquiv int

	// Beta is the normalized communication time of a full D-element
	// up+down exchange (the paper's "communication time").
	Beta float64

	// EvalEvery computes test accuracy/loss every that many rounds
	// (0 disables). TrainLossEvery likewise for the full training loss.
	EvalEvery      int
	TrainLossEvery int
	// MaxTime stops the run once cumulative normalized time exceeds it
	// (0 = run all rounds). The paper's figures compare methods over a
	// fixed time budget.
	MaxTime float64
	// RecordPerClient keeps per-round per-client contribution counts
	// (the Fig. 4 fairness CDF input).
	RecordPerClient bool
	// CheckSync verifies after every round that all weight replicas hold
	// bit-identical weights (test instrumentation). There is one replica
	// per worker, so at Workers <= 1 there is nothing to compare.
	CheckSync bool

	// Cohort draws exactly this many clients uniformly each round (0 or
	// the population size = everyone, with no rng consumed, so a
	// full-cohort run is the plain engine). Non-participants still apply
	// the broadcast, so weights stay synchronized — the client-selection
	// extension from the paper's future-work list (Section VI), stated as
	// the production-scale knob: a population of N clients of which only
	// the cohort is materialized per round by the transport tier's
	// population server. GS mode only. Composes with Staleness: the draw
	// happens in phase A, so a windowed run samples its cohort W rounds
	// ahead of the seal.
	Cohort int
	// Churn mutates the drawable population between rounds: called once
	// at the top of each round, it returns the client IDs joining and
	// leaving before that round's cohort draw. Inactive clients are
	// never drawn but still apply every broadcast — weights stay
	// globally synchronized (the same contract non-participants already
	// have), so a client rejoining later resumes from the current
	// global model with its error-feedback residual frozen where it
	// left. Joining an active client, leaving an inactive one, or
	// leaving the population empty errors the run. Churn consumes no
	// rng, so a nil-churn run is untouched. GS mode only (at any
	// Staleness: churn for round m applies before m's phase-A draw);
	// incompatible with WALDir (a function value cannot be journaled).
	Churn func(round int) (join, leave []int)
	// Dropout models deadline dropouts: a drawn client for which
	// Dropout(client, round) is true is removed from the cohort after
	// the draw but before any compute or rng use — deterministically,
	// so the same schedule reproduces the same run. Dropped clients
	// still apply the broadcast (weights stay synchronized). A round
	// whose whole cohort drops out errors the run. GS mode only (at any
	// Staleness); incompatible with WALDir.
	Dropout func(client, round int) bool
	// QuantBits uniformly quantizes uploaded and broadcast gradient
	// values to this bit width (0 = off; else 2–64). The paper cites
	// quantization as orthogonal to GS and combinable with it; residual
	// subtraction keeps the quantization error in the error-feedback
	// accumulator. Wire cost per sparse element drops from 2 units to
	// 1 + bits/64.
	QuantBits int

	// Workers fans the per-client work of each round (local gradients,
	// residual accumulation, top-k extraction, broadcast application,
	// probe losses) and FedAvg's weighted average out over this many
	// goroutines (the GS aggregation is one goroutine's work — see
	// gs.AggScratch).
	// 0 runs the sequential legacy path. Results are bit-identical at
	// every worker count: each client owns its residual, rng and batch
	// views; each worker owns one replica of the synchronized GS weights;
	// workers write into slots indexed by participant position; and
	// every floating-point reduction either runs on the coordinator in
	// fixed order or is partitioned by coordinate so each element's
	// addition chain is unchanged (see parallel.go for the shared-state
	// audit).
	Workers int

	// WALDir enables the durable engine: every finished round is
	// appended (and fsynced) to a write-ahead log in this directory, and
	// whole-state snapshots are checkpointed every SnapshotEvery rounds.
	// Durability never changes the trajectory — rng streams are only
	// counted, so a WAL-backed run is bit-identical to a plain one.
	// Requires a core.Resumable Controller; GS mode only; incompatible
	// with RecordPerClient (per-client counts are not logged).
	WALDir string
	// Resume continues the run recorded in WALDir instead of starting
	// fresh: the latest snapshot is restored, the rounds after it are
	// recomputed and verified bit-exactly against the logged results,
	// and training continues from where the log ends. The returned
	// Stats cover ALL rounds (replayed ones from the log), so a resumed
	// run's output is byte-identical to an uninterrupted run's.
	Resume bool
	// SnapshotEvery is the checkpoint cadence in rounds (0 = every 10).
	// Only meaningful with WALDir.
	SnapshotEvery int
	// HaltAfter stops the run cleanly after that round (0 = run to
	// completion) — an operational/testing hook for exercising Resume:
	// the returned Result covers rounds 1..HaltAfter and a later Run
	// with Resume set picks up from the log. Requires WALDir.
	HaltAfter int

	// Observer receives the run's round events synchronously at round
	// boundaries (OnRoundStart/OnRoundEnd, plus OnRunEnd when Run
	// returns) — the hook the CSV writers, metric collectors, and the
	// admin server attach through. nil disables. Observers are passive:
	// attaching one changes no rng draw, no round result, and no
	// durable-log byte. A resumed run replays the logged prefix through
	// the observer too, so the stream always covers every round.
	Observer Observer

	// Staleness is the bounded-staleness window W: the depth of the
	// round pipeline's ring of in-flight rounds (0 = lockstep, each
	// round seals before the next starts). With W > 0 the engine
	// overlaps client compute with aggregation: round m+1's phase-A
	// local gradients are computed while rounds m−W+1..m are still
	// unsealed, so every phase A runs at the weights of the last sealed
	// round W steps back — the in-process model of the transport tier's
	// windowed round loops. Every upload joins its own round's seal, so
	// a run is deterministic at any W. Composes with Cohort/Churn/Dropout
	// and QuantBits. At most MaxStaleness; GS mode only; incompatible
	// with WALDir (the in-flight ring is not snapshotted).
	Staleness int
}

// MaxStaleness caps Config.Staleness, and the wire deployments' window
// with it, so the engine and every deployment accept one range. A
// W-deep wire client sends W+1 uploads and one fetch down each shard
// link before anything answers it, and its control link holds up to W+1
// RoundMetas one way and W+1 RoundReleases the other; the cap keeps
// those W+2 messages inside the transport's in-memory conn's 16-slot
// buffer, so no Send can block on a peer that is itself waiting for
// this client.
const MaxStaleness = 8

// ErrStaleness is Run's refusal of a Staleness outside [0, MaxStaleness].
var ErrStaleness = fmt.Errorf("fl: Staleness must be in [0, %d] (0 = synchronous)", MaxStaleness)

// Result is a completed training run. Stats is rebuilt from the run's
// round-event stream by a built-in Collector (see observer.go), so it
// is identical to what an attached Config.Observer saw.
type Result struct {
	Stats []RoundEvent
	// Final is the trained global model (the synchronized weights).
	Final *nn.Network
}

// client is one simulated participant: its Member state, touched only by
// whichever worker runs this client's iteration, and its weight C_i. It
// holds no model (GS weights are synchronized, so gsEngine keeps one
// replica per worker; runFedAvg keeps the private ones), no upload
// buffers (the in-flight round's slot owns them) and no batch views or
// top-k working memory (dead once a step returns, so each worker's Step
// holds them).
type client struct {
	Member
	weight float64
}

// Run executes the configured training and returns per-round statistics.
func Run(cfg Config) (*Result, error) {
	res, err := run(cfg)
	if cfg.Observer != nil {
		cfg.Observer.OnRunEnd(err)
	}
	return res, err
}

// run is Run without the OnRunEnd notification (which must fire on
// every exit path, including validation failures).
func run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	var dur *engineWAL
	var engineRng *rand.Rand
	if cfg.WALDir != "" {
		dur = &engineWAL{
			runID:      wal.RunID(cfg.Seed),
			dir:        cfg.WALDir,
			every:      cfg.SnapshotEvery,
			engineSrc:  wal.NewCountingSource(cfg.Seed, 0),
			clientSrcs: make([]*wal.CountingSource, cfg.Data.NumClients()),
		}
		if dur.every == 0 {
			dur.every = defaultSnapshotEvery
		}
		engineRng = rand.New(dur.engineSrc)
	} else {
		engineRng = rand.New(rand.NewSource(cfg.Seed))
	}

	ref := cfg.Model()
	ref.InitWeights(engineRng)
	d := ref.D()
	cost := simtime.NewCostModel(d, cfg.Beta)

	clients := make([]*client, cfg.Data.NumClients())
	var totalWeight float64
	for i := range clients {
		seed := ClientSeed(cfg.Seed, i)
		var rng *rand.Rand
		if dur != nil {
			dur.clientSrcs[i] = wal.NewCountingSource(seed, 0)
			rng = rand.New(dur.clientSrcs[i])
		} else {
			rng = rand.New(rand.NewSource(seed))
		}
		clients[i] = &client{
			Member: Member{Rng: rng, Data: &cfg.Data.Clients[i]},
			weight: float64(cfg.Data.Clients[i].Len()),
		}
		totalWeight += clients[i].weight
	}

	ctrl := cfg.Controller
	if ctrl == nil {
		ctrl = core.NewFixedK(math.Min(1000, float64(d)))
	}

	if cfg.FedAvg {
		return runFedAvg(cfg, clients, totalWeight, cost, ref)
	}
	for _, c := range clients {
		c.Acc = make([]float64, d)
	}
	if dur != nil {
		rc, ok := ctrl.(core.Resumable)
		if !ok {
			return nil, fmt.Errorf("fl: WALDir requires a core.Resumable controller; %s is not", ctrl.Name())
		}
		dur.ctrl = rc
		if err := dur.open(&cfg, clients, ref.Params(), d); err != nil {
			return nil, err
		}
		defer dur.log.Close()
		if dur.restored {
			// The snapshot repositioned the engine stream past the draws
			// InitWeights and this function already consumed.
			engineRng = rand.New(dur.engineSrc)
		}
	}
	// GS weights are one synchronized vector, held once per worker: ref
	// is replica 0 (also Result.Final and the eval model).
	replicas, err := replicate(cfg.Model, ref, poolSize(cfg.Workers, len(clients)))
	if err != nil {
		return nil, err
	}
	return runGS(cfg, clients, replicas, totalWeight, cost, ctrl, engineRng, d, dur)
}

// replicate returns n networks holding ref's weights: ref itself, then
// n−1 fresh ones from the factory.
func replicate(model func() *nn.Network, ref *nn.Network, n int) ([]*nn.Network, error) {
	nets := []*nn.Network{ref}
	for len(nets) < n {
		net := model()
		if net.D() != ref.D() {
			return nil, fmt.Errorf("fl: model factory returned inconsistent dimension %d != %d", net.D(), ref.D())
		}
		net.SetParams(ref.Params())
		nets = append(nets, net)
	}
	return nets, nil
}

func validate(cfg *Config) error {
	switch {
	case cfg.Data == nil:
		return errors.New("fl: Config.Data is required")
	case cfg.Model == nil:
		return errors.New("fl: Config.Model is required")
	case cfg.LearningRate <= 0:
		return errors.New("fl: LearningRate must be positive")
	case cfg.BatchSize <= 0:
		return errors.New("fl: BatchSize must be positive")
	case cfg.Rounds <= 0:
		return errors.New("fl: Rounds must be positive")
	case cfg.Beta < 0:
		return errors.New("fl: Beta must be non-negative")
	case cfg.Strategy == nil && !cfg.FedAvg:
		return errors.New("fl: set Strategy (GS mode) or FedAvg")
	case cfg.Strategy != nil && cfg.FedAvg:
		return errors.New("fl: Strategy and FedAvg are mutually exclusive")
	case cfg.FedAvg && cfg.FedAvgKEquiv <= 0:
		return errors.New("fl: FedAvg mode requires FedAvgKEquiv > 0")
	case cfg.Cohort < 0:
		return errors.New("fl: Cohort must be non-negative (0 = everyone)")
	case cfg.Cohort > 0 && cfg.Data != nil && cfg.Cohort > cfg.Data.NumClients():
		return errors.New("fl: Cohort exceeds the client population")
	case (cfg.Cohort > 0 || cfg.Churn != nil || cfg.Dropout != nil) && cfg.FedAvg:
		return errors.New("fl: Cohort/Churn/Dropout apply to GS mode only")
	case (cfg.Churn != nil || cfg.Dropout != nil) && cfg.WALDir != "":
		return errors.New("fl: Churn/Dropout are incompatible with WALDir (schedules are function values and cannot be journaled)")
	case cfg.QuantBits != 0 && (cfg.QuantBits < 2 || cfg.QuantBits > 64):
		return errors.New("fl: QuantBits must be 0 (off) or in [2, 64]")
	case cfg.Workers < 0:
		return errors.New("fl: Workers must be non-negative (0 = sequential)")
	case cfg.Staleness < 0 || cfg.Staleness > MaxStaleness:
		return ErrStaleness
	case cfg.Staleness > 0 && cfg.FedAvg:
		return errors.New("fl: Staleness applies to GS mode only (FedAvg has no per-round upload to pipeline)")
	case cfg.Staleness > 0 && cfg.WALDir != "":
		return errors.New("fl: Staleness is incompatible with WALDir (the in-flight ring is not snapshotted)")
	case cfg.SnapshotEvery < 0 || cfg.HaltAfter < 0:
		return errors.New("fl: SnapshotEvery and HaltAfter must be non-negative")
	case cfg.WALDir == "" && (cfg.Resume || cfg.SnapshotEvery > 0 || cfg.HaltAfter > 0):
		return errors.New("fl: Resume, SnapshotEvery, and HaltAfter require WALDir")
	case cfg.WALDir != "" && cfg.FedAvg:
		return errors.New("fl: WALDir applies to GS mode only (FedAvg weights diverge between aggregations and are not snapshotted)")
	case cfg.WALDir != "" && cfg.RecordPerClient:
		return errors.New("fl: WALDir and RecordPerClient are incompatible (per-client counts are not logged, so a resumed run could not reproduce them)")
	}
	return cfg.Data.Validate()
}

// drawPositions is the core of every participant draw: count of the n
// positions [0, n), ascending, into dst. Without a shuffle that is all
// of them and no rng is consumed; with one it is the first count entries
// of an inside-out Fisher–Yates over [0, n) (exactly the n Intn draws
// rand.Perm consumes, in the same order), sorted. Those entries depend
// only on the draws that land below count, so dst is the whole
// shuffle's working memory: steps i < count run in full, and a later
// step i only writes i to dst[j] when its draw j < count. dst is grown
// as needed and returned.
func drawPositions(dst []int, count int, shuffle bool, n int, rng *rand.Rand) []int {
	if !shuffle {
		dst = slices.Grow(dst[:0], n)
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	dst = slices.Grow(dst[:0], count)[:count]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < count {
			dst[i] = dst[j]
		}
		if j < count {
			dst[j] = i
		}
	}
	slices.Sort(dst)
	return dst
}

// reduceWeighted overwrites dst with Σ_c weights[c]·vecs[c], fanned out
// over the worker pool as a fixed-order chunked reduction: the coordinate
// space is partitioned into contiguous chunks (the leaves of the reduction
// tree) and each chunk accumulates the vectors in slice order. Chunks
// write disjoint coordinates, so no floating-point merge happens across
// workers and every coordinate's addition chain is exactly the sequential
// Zero+AXPY loop's — the result is bit-identical at any worker count.
func reduceWeighted(workers int, dst []float64, weights []float64, vecs [][]float64) {
	n := len(dst)
	chunks := par.Chunks(workers, n)
	parallelFor(workers, chunks, func(i, _ int) {
		lo, hi := tensor.ChunkBounds(n, chunks, i)
		tensor.WeightedSumChunk(dst, weights, vecs, lo, hi)
	})
}

// runFedAvg is the send-all-or-nothing comparison: local SGD steps with a
// full weight exchange every ⌊D/(2k)⌋ rounds.
//
// The recorded Loss is the loss of the *global* model (the last
// aggregated weights) on the clients' minibatches — measuring at the
// drifted local weights would under-report the loss, because each local
// model overfits its own non-i.i.d. shard between aggregations.
func runFedAvg(cfg Config, clients []*client, totalWeight float64, cost simtime.CostModel, ref *nn.Network) (*Result, error) {
	d := ref.D()
	period := simtime.FedAvgPeriod(d, cfg.FedAvgKEquiv)
	coll := &Collector{}
	sink := MultiObserver(coll, cfg.Observer)
	var clock simtime.Clock
	avg := make([]float64, d)
	globalNet := ref

	// evalNets are per-worker replicas of the global model for the loss
	// measurement: forward passes cache activations inside the network, so
	// the single globalNet cannot be shared across goroutines. A replica
	// holds the same weights, so the measured losses — and therefore the
	// fixed-order weighted sum — are bit-identical to the sequential path.
	// nets are the clients' models: local steps make them diverge between
	// aggregations, so this is the one mode that keeps one per client.
	pool := poolSize(cfg.Workers, len(clients))
	nets, err := replicate(cfg.Model, globalNet, pool+len(clients))
	if err != nil {
		return nil, err
	}
	evalNets, nets := nets[:pool], nets[pool:]
	steps := newSteps(pool, cfg.BatchSize, 0) // only their batch views
	lossShare := make([]float64, len(clients))
	// The aggregation weights and parameter views of the weighted
	// reduction, hoisted out of the loop.
	weightFrac := make([]float64, len(clients))
	paramVecs := make([][]float64, len(clients))
	for i, c := range clients {
		weightFrac[i] = c.weight / totalWeight
		paramVecs[i] = nets[i].Params()
	}

	for m := 1; m <= cfg.Rounds; m++ {
		sink.OnRoundStart(m)
		parallelFor(cfg.Workers, len(clients), func(i, w int) {
			c := clients[i]
			xs, ys := steps[w].batch(&c.Member)
			lossShare[i] = c.weight / totalWeight * evalNets[w].MeanLoss(xs, ys)
			nets[i].MeanLossGrad(xs, ys)
			// Local step: weights diverge between aggregations.
			tensor.AXPY(-cfg.LearningRate, nets[i].Grads(), nets[i].Params())
		})
		weightedLoss := sum(lossShare)
		roundTime := cost.CompPerRound
		aggregated := m%period == 0
		if aggregated {
			// Server-side weighted average: a fixed-order chunked
			// reduction over the worker pool (see reduceWeighted) —
			// parallel at large N·D yet bit-identical to the in-order
			// client accumulation at any worker count.
			reduceWeighted(cfg.Workers, avg, weightFrac, paramVecs)
			parallelFor(cfg.Workers, len(clients), func(i, _ int) {
				nets[i].SetParams(avg)
			})
			for _, en := range evalNets { // evalNets[0] is globalNet
				en.SetParams(avg)
			}
			roundTime += cost.CommTime(simtime.DenseUnits(d), simtime.DenseUnits(d))
		}
		clock.Advance(roundTime)

		stats := RoundEvent{
			Round:     m,
			K:         cfg.FedAvgKEquiv,
			KCont:     float64(cfg.FedAvgKEquiv),
			RoundTime: roundTime,
			Time:      clock.Now(),
			Loss:      weightedLoss,
			TestAcc:   math.NaN(),
			TestLoss:  math.NaN(),
			TrainLoss: math.NaN(),
		}
		if aggregated {
			stats.DownlinkElems = d
		}
		maybeEval(&cfg, &stats, globalNet, clients, totalWeight, m)
		sink.OnRoundEnd(stats)

		if cfg.MaxTime > 0 && clock.Now() >= cfg.MaxTime {
			break
		}
	}
	return &Result{Stats: coll.Events, Final: globalNet}, nil
}

// payloadUnits returns the per-direction payloads of the main exchange;
// elemUnits is the wire cost of one sparse element (2 without
// quantization; 1 + bits/64 with).
func payloadUnits(s gs.Strategy, d, k, downElems int, elemUnits float64) (uplink, downlink float64) {
	if s.Dense() {
		return simtime.DenseUnits(d), simtime.DenseUnits(d)
	}
	return float64(k) * elemUnits, float64(downElems) * elemUnits
}

// maybeEval runs the cadenced evaluations on the *global* model: in GS
// mode weight replica 0; in FedAvg mode the last aggregated weights.
func maybeEval(cfg *Config, stats *RoundEvent, global *nn.Network, clients []*client, totalWeight float64, m int) {
	if cfg.EvalEvery > 0 && (m%cfg.EvalEvery == 0 || m == 1) {
		xs, ys := cfg.Data.Test.XY()
		stats.TestAcc = global.Accuracy(xs, ys)
		stats.TestLoss = global.MeanLoss(xs, ys)
	}
	if cfg.TrainLossEvery > 0 && (m%cfg.TrainLossEvery == 0 || m == 1) {
		var loss float64
		for _, c := range clients {
			xs, ys := c.Data.XY()
			loss += c.weight / totalWeight * global.MeanLoss(xs, ys)
		}
		stats.TrainLoss = loss
	}
}

// checkSync compares every GS weight replica with replica 0.
func checkSync(replicas []*nn.Network) error {
	ref := replicas[0].Params()
	for i, net := range replicas[1:] {
		p := net.Params()
		for j := range p {
			if p[j] != ref[j] {
				return fmt.Errorf("fl: replica %d desynchronized at weight %d (%v != %v)",
					i+1, j, p[j], ref[j])
			}
		}
	}
	return nil
}

// sum adds xs in index order from +0 — the fixed-order reduction over
// the fan-outs' position-indexed slots.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
