// Package fedsparse is a Go implementation of "Adaptive Gradient
// Sparsification for Efficient Federated Learning: An Online Learning
// Approach" (Han, Wang, Leung — IEEE ICDCS 2020, arXiv:2001.04756).
//
// The library provides, built from scratch on the standard library only:
//
//   - FAB-top-k — fairness-aware bidirectional top-k gradient
//     sparsification (Algorithm 1), plus the comparison strategies from
//     the paper's evaluation (FUB-top-k, unidirectional top-k,
//     periodic-k, send-all, and a FedAvg mode).
//   - Online learning of the sparsity degree k — Algorithm 2 (sign-based
//     online gradient descent with O(√M) regret) and Algorithm 3
//     (shrinking search intervals), with the derivative-sign estimator of
//     Section IV-E, and the baselines compared in Fig. 5 (value-based
//     descent, EXP3, continuous bandit).
//   - A synchronous federated-learning engine with the paper's
//     normalized-time cost model, a from-scratch neural-network substrate
//     with manual backpropagation, synthetic non-i.i.d. federated
//     datasets standing in for FEMNIST/CIFAR-10, and a TCP transport
//     that runs the protocol distributed over a length-prefixed binary
//     wire codec — gradient values travel as packed b-bit integers when
//     quantization is on, with gob kept as the differential oracle.
//
// # Quickstart
//
//	w := fedsparse.NewFEMNISTWorkload(fedsparse.ScaleSmall)
//	res, err := fedsparse.Run(fedsparse.Config{
//		Data:         w.Data,
//		Model:        w.Model,
//		LearningRate: 0.1,
//		BatchSize:    16,
//		Rounds:       300,
//		Strategy:     &fedsparse.FABTopK{},
//		Controller:   fedsparse.NewAdaptiveSignOGD(10, float64(w.D), float64(w.D), 1.5, 20, nil),
//		Beta:         10,
//		Workers:      runtime.NumCPU(),
//	})
//
// # Parallelism and determinism
//
// Config.Workers fans each round's per-client work — local gradient
// computation, residual accumulation, top-k extraction, broadcast
// application, and the probe-loss measurements — out over a pool of
// goroutines, and additionally parallelizes the server-side weighted
// reductions (FedAvg's weight average and the sparse-gradient
// aggregation). 0 (the default) runs the sequential legacy path; any
// positive value uses that many workers. The protocol is embarrassingly
// parallel across clients, and the engine exploits that without giving
// up reproducibility:
//
//   - every simulated client owns its error-feedback residuals and its
//     random stream, and every worker owns one replica of the
//     synchronized GS weights and its hot-loop scratch, so scheduling
//     cannot change what any client computes;
//   - workers write results into slots indexed by client position, and
//     every floating-point reduction either runs on the coordinator in
//     fixed client order (the weighted global loss, the probe means) or
//     is partitioned by *coordinate* across the pool (FedAvg's average,
//     the aggregation sums), with each coordinate's addition chain still
//     executing in ascending client order inside exactly one chunk.
//
// That second form is the engine's fixed-order chunked tree reduction:
// the coordinate space is split into contiguous chunks (the leaves of the
// reduction tree), chunks combine by disjoint writes rather than
// floating-point merges, and the per-coordinate operation sequence is
// therefore independent of the worker count and identical to the
// sequential loop. Run returns bit-identical Results — round stats,
// losses, and final weights — at every worker count, for every strategy,
// controller, participation level, and quantization setting. The
// differential suites in internal/fl, internal/gs, and internal/sparse
// assert exactly this, and `go test -race` covers the pool under
// contention. Measured speedup on a multi-core runner scales with
// min(Workers, clients) for the per-client phases and with the chunk
// count for the server reductions; BENCH_fl.json records the trajectory.
//
// # Sharded server aggregation
//
// The same chunked-reduction structure extends across process
// boundaries: the transport package partitions the coordinate space into
// S contiguous ranges and runs the server-side aggregation as S
// independent range reductions on shard processes (RangeReduceInto) plus
// a coordinator-side selection over the merged reductions
// (DirectSelector). Because every coordinate's addition chain runs in
// exactly one shard, in ascending client order, the aggregate is
// bit-identical to the single-process engine at every shard count — the
// determinism guarantee survives the distribution axis the north-star
// architecture needs. (The engine itself aggregates on one scratch: an
// in-process model of the shard tier was measured 3–23× slower for
// identical bits and deleted, and so was a routed shard tier that
// re-sent every decoded upload from the coordinator to the shards;
// docs/ARCHITECTURE.md has both tables.)
//
// One listener serves every role: AcceptPeer classifies each incoming
// connection by its first message — Hello (a participant: a client, or
// a virtual host, enrolling as its roster), ShardHello (a shard, see
// DialDirectShard), DataHello (a participant on a shard's ingest
// plane), Rejoin (a durable peer redialing). Participants go to
// RunServerPeers — the one coordinator entry point, whose plane
// (ShardConns), journal (Durable) and roster (Population) are
// ServerConfig values — and shard connections to ShardConns. The
// flsim command exposes all three roles (-role
// coordinator|shard|client with -listen/-connect), so a real
// multi-process deployment is one command per process.
//
// # Client-direct data plane (ingest + downlink)
//
// A shard tier (ServerConfig.ShardConns) is the client-direct data
// plane: gradient payload flows between clients and shards in both
// directions. Uplink: each shard accepts its clients on its own ingest
// listener (RunDirectShard with AcceptDataPeers), the coordinator
// publishes the shard directory to clients in Init, and every client
// splits its top-k
// upload by coordinate range and sends each slice — with explicit local
// ranks, so min-rank selection metadata stays exact — straight to the
// owning shard (SliceUpload). Downlink: after selection the coordinator
// seals each shard with only its span of the selected member set
// (RoundSeal — indices, not values; the shard reconstructs the values
// from its own merged sums), releases the clients with per-round
// scalars (RoundRelease), and every client pulls its broadcast slices
// from the shards over the same data links (SliceFetch/SliceBroadcast),
// reassembling B locally by concatenation. The coordinator is demoted
// to a control plane: handshakes, per-round loss/length scalars, the
// merged shard reductions, and shard-served fill candidates in;
// per-round release scalars and O(|J|) seal indices out — it never
// receives a gradient upload and never transmits B payload (O(N)
// control messages per round instead of O(N·k) ingest and O(N·|J|)
// egress). Shards run a per-round client barrier on both planes — one
// slice and one fetch per client per round — so a complete range and a
// complete serve are counted facts, and a dead client fails the round
// instead of wedging it; clients fetch only after the release, which
// follows the last seal, so no client can observe a partially sealed
// round. Results remain bit-identical to the unsharded routed path at
// every shard count (the differential suites pin direct == routed over
// mem and TCP).
//
// # Bounded staleness (asynchronous rounds)
//
// Config.Staleness (the window W) is the depth of the engine's round
// pipeline: clients compute up to W rounds ahead of the seal. Under a
// Config.Delays schedule an upload at most W rounds late is still
// admitted into its round's aggregation, a later one folds back into
// the sender's error-feedback residual and rides the next admitted
// upload. ServerConfig.Staleness deploys the same pipeline over the
// wire on the direct data plane: clients and shards run their lockstep
// round loops W rounds deep — a client uploads round m before it
// fetches round m−W's broadcast, and a shard answers that fetch only
// after sealing round m, so no client gets more than W rounds ahead of
// the slowest. Nothing arrives late on the wire, so a W-deep
// deployment reproduces fl.Run with the same Staleness and no Delays
// bit for bit, and a slow client paces the fleet with W rounds of
// slack. W = 0 (the default) is lockstep — the same pipeline at depth
// one; W >= 1 is deterministic given the same delay schedule; the wire
// caps W at MaxStaleness. Staleness is GS-only, composes with Cohort/
// Churn/Dropout in the engine, and is incompatible with the WAL.
// See README.md ("Asynchronous rounds and bounded staleness").
//
// # Population tier (100k–1M virtual clients)
//
// Config.Cohort, Config.Churn, and Config.Dropout scale the engine's
// participation model from "every connected client, every round" to a
// sampled cohort drawn from a changing population: Cohort draws exactly
// that many members per round with the engine's Fisher–Yates (rng-
// sequence-compatible with Participation, so Cohort = N is bit-identical
// to the plain engine), Churn applies per-round join/leave schedules to
// the drawable population, and Dropout removes drawn members that miss
// the round's deadline — after the draw, consuming no rng. Over the
// wire, the tier scales the connection fabric too: RunVirtualHost
// simulates a whole member roster over ONE physical connection to the
// coordinator (plus one per shard in direct mode), enveloping each
// member's traffic in MuxFrames over a goroutine-free Mux demultiplexer,
// and RunServerPeers with a ServerConfig.Population roster draws each
// round's cohort with the same exported sampler (CohortSampler) and
// materializes only the drawn members. A host runs RunClient's round
// loop with each round's drawn cohort as its roster; member state
// (error-feedback residual, rng stream) materializes at first draw — an
// undrawn member costs no allocation — so populations of 100k–1M
// virtual clients run over hosts × shards physical connections.
// NewPopulationView serves per-member non-i.i.d. dataset shards at the
// same scale: O(1) zero-copy windows over a class-grouped arrangement.
// Cohort-sampled trajectories are pinned
// bit-identical between the engine and both wire data planes; see
// docs/ARCHITECTURE.md for the topology diagrams.
//
// # Durability and recovery
//
// Both round engines can journal their control-plane decisions to a
// write-ahead log and recover from a crash with a bit-identical
// trajectory. The in-process engine takes Config.WALDir (+ Resume,
// SnapshotEvery): every finished round appends a Finish record of the
// round's scalars, periodic snapshots capture the model vector, the
// error-feedback residuals, the controller state (any core.Resumable —
// all built-ins except the self-randomizing EXP3/ContinuousBandit),
// and the exact positions of every counted rng stream; a resumed run
// restores the latest snapshot, replays the logged prefix, recomputes
// the suffix with bit-exact verification against the log, and then
// continues — WAL on or off, halted or not, the Result is bit-identical
// to the uninterrupted run. The distributed coordinator has the same
// discipline (RunServerPeers with a ServerConfig.Durable journal):
// Seal/Release/Finish records journal each round decision — indices and
// scalars only, never gradient payloads — and a coordinator restarted
// with Durable.Resume reopens the log, takes the run's geometry from
// it, and re-issues the last unacknowledged seal or release before
// continuing. Peers survive the other side's death:
// RunClient with a ClientConfig.Redial, and RunDurableDirectShard,
// redial through DialRetry (bounded exponential backoff + jitter),
// re-identify with a
// Rejoin{RunID, Round, LastSeal} handshake accepted by the
// coordinator's RejoinDesk, and resend from small per-link rings; a
// shard restarted empty is re-pointed to the clients, which re-feed its
// reduction from their rings. The recovery suites kill the coordinator
// at every WAL boundary and pin the final CSV byte-identical across
// {mem, TCP} × {routed, direct}. See README.md ("Durability and
// recovery") for the record layout and handshake sequences.
//
// # Scratch types and allocation-free steady state
//
// The round loop reuses every per-round buffer, so steady-state training
// performs no allocations in selection or aggregation. Two scratch types
// surface that machinery for direct library use:
//
//   - TopKScratch + TopKInto: top-k selection into caller-owned storage.
//     TopK remains the convenience wrapper that allocates per call.
//     Selection is a comparison-free radix pipeline over the bit pattern
//     with the sign cleared, so its order is defined on NaN, ±Inf, −0 and
//     denormals too (see TopK). The scratch is working memory only — a
//     slab of max(D, 2k) words, dead when the call returns — so hold
//     one per goroutine that selects, not one per vector selected from:
//     the engine keeps Workers of them for any number of clients.
//   - AggScratch + the ScratchAggregator interface: every built-in
//     Strategy aggregates allocation-free into a caller-owned scratch,
//     computing the main k-element selection and the k′-probe selection
//     in a single pass over the uploads.
//
// Reuse contract: scratches are meant to live for a whole run (or
// process) and be reused across rounds — that is where the zero-alloc
// steady state comes from; buffers grow to the largest shape seen and
// stay there. Both types are single-goroutine state: share nothing, or
// give each concurrent selector/aggregator its own. Selection and
// aggregation results are pure functions of the inputs — never of
// scratch history — so warm reuse cannot perturb a seeded run (the
// differential suites pin this). Aggregates returned by AggregateInto
// alias the scratch's buffers and are valid only until its next call;
// copy them if they must outlive the round. When the model dimension is
// known up front, AggScratch.Reserve pre-sizes the slabs and skips the
// per-call scan for the largest uploaded coordinate — the round engines
// do this.
//
// See the examples directory for runnable programs and
// docs/ARCHITECTURE.md for the system-wide map.
package fedsparse

import (
	"fedsparse/internal/admin"
	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/experiments"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/metrics"
	"fedsparse/internal/nn"
	"fedsparse/internal/simtime"
	"fedsparse/internal/sparse"
	"fedsparse/internal/transport"
	"fedsparse/internal/wal"
)

// Federated-learning engine (internal/fl).
type (
	// Config describes one federated training run.
	Config = fl.Config
	// Result is a completed run: per-round stats plus the final model.
	Result = fl.Result
	// RoundEvent captures one training round: the record published to
	// observers and collected into Result.Stats.
	RoundEvent = fl.RoundEvent
	// Observer receives the round-event stream of a run, synchronously
	// at round boundaries (Config.Observer, ServerConfig.Observer).
	Observer = fl.Observer
	// Collector is an Observer that accumulates every RoundEvent.
	Collector = fl.Collector
	// CohortSampler is the engine's population draw (churn → cohort
	// Fisher–Yates → deadline dropouts) in exported form, shared by the
	// transport tier's population server so wire draws cannot drift
	// from engine draws.
	CohortSampler = fl.CohortSampler
)

// NewCohortSampler builds the population sampler behind Config.Cohort,
// Config.Churn, and Config.Dropout.
var NewCohortSampler = fl.NewCohortSampler

// ClientSeed is client id's rng seed in a run seeded with base: the
// ClientConfig.Seed that reproduces Run's client id on the wire (a
// virtual host derives its members' seeds the same way).
var ClientSeed = fl.ClientSeed

// MultiObserver fans the event stream out to several observers in
// order, skipping nils.
var MultiObserver = fl.MultiObserver

// Run executes a federated training run (Algorithm 1 in GS mode, or the
// FedAvg comparison mode).
func Run(cfg Config) (*Result, error) { return fl.Run(cfg) }

// Gradient-sparsification strategies (internal/gs).
type (
	// Strategy is one gradient-sparsification method.
	Strategy = gs.Strategy
	// FABTopK is the paper's fairness-aware bidirectional top-k.
	FABTopK = gs.FABTopK
	// FUBTopK is fairness-unaware bidirectional top-k.
	FUBTopK = gs.FUBTopK
	// UniTopK is unidirectional top-k (downlink up to k·N).
	UniTopK = gs.UniTopK
	// PeriodicK is random sparsification.
	PeriodicK = gs.PeriodicK
	// SendAll transmits the full gradient every round.
	SendAll = gs.SendAll
	// ClientUpload is one client's uplink payload.
	ClientUpload = gs.ClientUpload
	// Aggregate is the server's downlink selection.
	Aggregate = gs.Aggregate
	// AggScratch is the reusable allocation-free aggregation scratch.
	AggScratch = gs.AggScratch
	// ScratchAggregator is the allocation-free one-pass aggregation
	// interface every built-in strategy implements.
	ScratchAggregator = gs.ScratchAggregator
	// RangeAgg is one shard's reduction over a contiguous coordinate
	// range: exact b_j sums plus minimal upload ranks.
	RangeAgg = gs.RangeAgg
	// DirectSelector is the coordinator-side selection over merged shard
	// reductions (both shard planes), implemented by every built-in
	// strategy.
	DirectSelector = gs.DirectSelector
	// DirectMeta is the control-plane metadata DirectSelector consumes
	// in place of the raw uploads.
	DirectMeta = gs.DirectMeta
	// FillCand is one rank-κ fill candidate of FAB's selection.
	FillCand = gs.FillCand
)

// NewAggScratch builds an aggregation scratch. The argument is ignored
// (the reduction runs on the calling goroutine); pass 0.
var NewAggScratch = gs.NewAggScratch

// RangeReduceInto is the per-shard range reduction the transport tier's
// shard processes run; ValidateRangeSlice is the shared slice validation
// both shard topologies trust before reducing (shape, range, duplicates,
// rank order, and finite values). MemberSpans and BuildDownlinkSlice are
// the downlink counterparts: the coordinator-side split of a selection
// into per-shard seal spans, and the shard-side reconstruction of a
// sealed span's broadcast slice from the shard's own reduction.
var (
	RangeReduceInto    = gs.RangeReduceInto
	ValidateRangeSlice = gs.ValidateRangeSlice
	MemberSpans        = gs.MemberSpans
	BuildDownlinkSlice = gs.BuildDownlinkSlice
)

// Adaptive-k online learning (internal/core).
type (
	// Controller selects the sparsity degree k each round.
	Controller = core.Controller
	// Decision is a controller's per-round choice.
	Decision = core.Decision
	// Observation is the per-round feedback revealed to a controller.
	Observation = core.Observation
	// SignOGD is Algorithm 2.
	SignOGD = core.SignOGD
	// AdaptiveSignOGD is Algorithm 3.
	AdaptiveSignOGD = core.AdaptiveSignOGD
	// FixedK holds k constant.
	FixedK = core.FixedK
	// ThresholdK switches k when the loss reaches a threshold (Fig. 1).
	ThresholdK = core.ThresholdK
	// ValueOGD is the value-based descent baseline.
	ValueOGD = core.ValueOGD
	// EXP3 is the multi-armed-bandit baseline.
	EXP3 = core.EXP3
	// ContinuousBandit is the one-point bandit baseline.
	ContinuousBandit = core.ContinuousBandit
	// SignSource supplies derivative-sign estimates.
	SignSource = core.SignSource
	// LossBasedSign is the Section IV-E estimator.
	LossBasedSign = core.LossBasedSign
)

// Controller constructors.
var (
	NewFixedK           = core.NewFixedK
	NewSignOGD          = core.NewSignOGD
	NewAdaptiveSignOGD  = core.NewAdaptiveSignOGD
	NewValueOGD         = core.NewValueOGD
	NewEXP3             = core.NewEXP3
	NewContinuousBandit = core.NewContinuousBandit
)

// Neural-network substrate (internal/nn).
type (
	// Network is a feed-forward model with a flat parameter vector.
	Network = nn.Network
	// Layer is one differentiable network stage.
	Layer = nn.Layer
)

// Model builders.
var (
	NewMLP = nn.NewMLP
	NewCNN = nn.NewCNN
)

// Datasets (internal/dataset).
type (
	// Dataset is a labelled sample collection.
	Dataset = dataset.Dataset
	// Federated is a client-partitioned dataset with a test set.
	Federated = dataset.Federated
	// Sample is one labelled example.
	Sample = dataset.Sample
	// FEMNISTConfig parameterizes the FEMNIST-like generator.
	FEMNISTConfig = dataset.FEMNISTConfig
	// CIFARConfig parameterizes the CIFAR-like generator.
	CIFARConfig = dataset.CIFARConfig
	// PopulationView serves per-member non-i.i.d. dataset shards for
	// populations far larger than the sample count: O(1) zero-copy
	// windows over a class-grouped arrangement.
	PopulationView = dataset.PopulationView
)

// Dataset generators.
var (
	GenerateFEMNIST    = dataset.GenerateFEMNIST
	GenerateCIFAR      = dataset.GenerateCIFAR
	DefaultFEMNIST     = dataset.DefaultFEMNIST
	DefaultCIFAR       = dataset.DefaultCIFAR
	PartitionIID       = dataset.PartitionIID
	PartitionDirichlet = dataset.PartitionDirichlet
	NewPopulationView  = dataset.NewPopulationView
)

// Cost model (internal/simtime).
type (
	// CostModel is the paper's normalized time model.
	CostModel = simtime.CostModel
	// Composite sums weighted additive resources (energy, money, …).
	Composite = simtime.Composite
)

// NewCostModel builds the normalized time model (computation 1/round,
// communication β per full exchange).
var NewCostModel = simtime.NewCostModel

// Sparse-gradient machinery (internal/sparse).
type (
	// SparseVec is an index/value sparse vector.
	SparseVec = sparse.Vec
	// TopKScratch is the reusable selection scratch for TopKInto.
	TopKScratch = sparse.TopKScratch
)

var (
	// TopK selects the k largest-|value| elements (allocating per call).
	TopK = sparse.TopK
	// TopKInto is the allocation-free TopK into caller-owned storage.
	TopKInto = sparse.TopKInto
	// StochasticRound realizes a continuous k (Definition 2).
	StochasticRound = sparse.StochasticRound
)

// Experiments reproducing the paper's figures (internal/experiments).
type (
	// Workload bundles data, model, and hyper-parameters at a scale.
	Workload = experiments.Workload
	// Scale selects experiment size (tiny/small/paper).
	Scale = experiments.Scale
	// FigureResult is one reproduced figure.
	FigureResult = experiments.FigureResult
	// Fig1Options .. SweepOptions configure the figure runners.
	Fig1Options  = experiments.Fig1Options
	Fig4Options  = experiments.Fig4Options
	Fig5Options  = experiments.Fig5Options
	Fig6Options  = experiments.Fig6Options
	SweepOptions = experiments.SweepOptions
)

// Experiment scales.
const (
	ScaleTiny  = experiments.ScaleTiny
	ScaleSmall = experiments.ScaleSmall
	ScalePaper = experiments.ScalePaper
)

// Workload constructors and figure runners.
var (
	NewFEMNISTWorkload = experiments.NewFEMNIST
	NewCIFARWorkload   = experiments.NewCIFAR
	Fig1               = experiments.Fig1
	Fig4               = experiments.Fig4
	Fig5               = experiments.Fig5
	Fig6               = experiments.Fig6
	Fig7               = experiments.Fig7
	Fig8               = experiments.Fig8
)

// Metrics (internal/metrics).
type (
	// Series is an (x, y) sequence.
	Series = metrics.Series
	// Table is a text table for experiment output.
	Table = metrics.Table
	// RoundObserver folds a round-event stream into figure series; an
	// Observer, attachable live or replayable over a finished Result.
	RoundObserver = metrics.RoundObserver
)

// CDF computes an empirical distribution series.
var CDF = metrics.CDF

// Admin/metrics HTTP server (internal/admin).
type (
	// AdminServer is the embedded observability endpoint: an Observer
	// serving /metrics, /healthz, /readyz, /rounds, and /debug/pprof.
	AdminServer = admin.Server
)

// ServeAdmin starts an AdminServer on addr (port 0 for ephemeral).
var ServeAdmin = admin.Serve

// Distributed transport (internal/transport).
type (
	// Conn is a typed message pipe.
	Conn = transport.Conn
	// ServerConfig / ClientConfig parameterize distributed runs.
	ServerConfig = transport.ServerConfig
	ClientConfig = transport.ClientConfig
	// RoundRecord is the distributed server's per-round log.
	RoundRecord = transport.RoundRecord
	// Peer is an incoming connection classified by role.
	Peer = transport.Peer
	// Listener accepts binary-framed Conns on a TCP address.
	Listener = transport.Listener
	// DirectGroup is the coordinator's control-plane handle on a shard
	// tier.
	DirectGroup = transport.DirectGroup
	// Mux demultiplexes one physical Conn into per-virtual-client Conns
	// (the population tier's M:N scaling seam); MuxFrame is its wire
	// envelope.
	Mux      = transport.Mux
	MuxFrame = transport.MuxFrame
	// PopulationConfig is a coordinator's roster
	// (ServerConfig.Population); HostConfig parameterizes one virtual-
	// client host.
	PopulationConfig = transport.PopulationConfig
	HostConfig       = transport.HostConfig
	// CohortAssign is the population tier's per-round control message.
	CohortAssign = transport.CohortAssign
)

// Durable control plane (internal/transport + internal/wal): see the
// "Durability and recovery" section of the package documentation.
type (
	// DurableServerConfig is a coordinator's journal
	// (ServerConfig.Durable): a WAL, rejoin-based recovery, and with
	// Resume a restart from that WAL.
	DurableServerConfig = transport.DurableServerConfig
	// DurableShardConfig parameterizes RunDurableDirectShard.
	DurableShardConfig = transport.DurableShardConfig
	// RejoinDesk classifies reconnecting peers for a durable coordinator.
	RejoinDesk = transport.RejoinDesk
	// Rejoin is the re-handshake a recovering peer opens with.
	Rejoin = transport.Rejoin
	// RetryPolicy bounds a DialRetry backoff loop.
	RetryPolicy = transport.RetryPolicy
)

// Durable shard driver and recovery dials.
var (
	RunDurableDirectShard = transport.RunDurableDirectShard
	NewRejoinDesk         = transport.NewRejoinDesk
	DialRetry             = transport.DialRetry
	// WALRunID derives the stable run identity a seed's durable run is
	// stamped with (coordinator, WAL, and every Rejoin must agree).
	WALRunID = wal.RunID
)

// MaxStaleness caps ServerConfig.Staleness: a W-deep client has W+2
// messages in flight per shard link before any answer, and the cap
// keeps them inside the in-memory conn's buffer.
const MaxStaleness = transport.MaxStaleness

// Transport constructors and drivers.
var (
	NewMemPair      = transport.NewMemPair
	NewBinConn      = transport.NewBinConn
	NewGobConn      = transport.NewGobConn
	RunServerPeers  = transport.RunServerPeers
	RunClient       = transport.RunClient
	Dial            = transport.Dial
	DialDirectShard = transport.DialDirectShard
	RunDirectShard  = transport.RunDirectShard
	NewDirectGroup  = transport.NewDirectGroup
	Listen          = transport.Listen
	AcceptPeer      = transport.AcceptPeer
	AcceptPeers     = transport.AcceptPeers
	AcceptDataPeers = transport.AcceptDataPeers
	SplitShardPeers = transport.SplitShardPeers
	SeatShardPeers  = transport.SeatShardPeers
	// The population tier's virtual-client host, and the demultiplexer
	// it shares with the coordinator.
	RunVirtualHost = transport.RunVirtualHost
	NewMux         = transport.NewMux
)
