package main

import (
	"fmt"
	"math/rand"

	"fedsparse/internal/core"
	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/nn"
)

// The four workloads. A later performance claim names one of these and
// one end-to-end metric; the numbers below are the workload, so editing
// one is a benchmark change, never part of a change that claims a gain.
//
// Every workload shares the data family (FEMNIST-like, 62 classes, 5 per
// client, 64 features, ~64 samples per client), batch 8 and learning
// rate 0.05, so they differ only in what they stress.
const (
	inDim        = 64
	numClasses   = 62
	batchSize    = 8
	learningRate = 0.05
	// beta is the paper's normalised communication time of one full
	// up+down exchange; it prices wire volume in norm_time_to_loss.
	beta = 10
	// lossWindow is the trailing window of the loss metrics: final_loss
	// averages the last lossWindow rounds and norm_time_to_loss fires on
	// the first round whose trailing lossWindow-round mean reaches Psi.
	lossWindow = 10
)

type plane int

const (
	planeEngine plane = iota // fl.Run in-process, no wire
	planeRouted              // RunServerPeers + RunClient over TCP
	planeDirect              // + RunDirectShard, clients dial shards
	planePop                 // RunPopulationServer + RunVirtualHost
)

// shape is one workload's generated size. It is printed with every
// result so a reader can tell a workload edit from a code change.
type shape struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Plane plane  `json:"-"`
	// Hidden is the MLP width; D = 127·Hidden + 62.
	Hidden int `json:"hidden"`
	// Clients is the number of generated client datasets: the closed-loop
	// client count of the engine and TCP workloads, and the pool that
	// population members map onto (member m trains on client m mod
	// Clients).
	Clients int `json:"clients"`
	// Population, Hosts and Cohort are zero off the population plane.
	Population int `json:"population,omitempty"`
	Hosts      int `json:"hosts,omitempty"`
	Cohort     int `json:"cohort,omitempty"`
	// KDiv fixes k = D/KDiv; 0 means the adaptive controller chooses k.
	KDiv      int `json:"k_div"`
	QuantBits int `json:"quant_bits"`
	Shards    int `json:"shards"`
	Workers   int `json:"workers"`
	// Rounds is the length of one repetition. It is fixed (never derived
	// from the time budget) so final_loss and norm_time_to_loss are
	// functions of the seed alone; the time budget decides how many
	// repetitions run.
	Rounds int `json:"rounds"`
	// Psi is the loss target of norm_time_to_loss, chosen inside the
	// steep part of this workload's loss curve so every seed crosses it
	// well before Rounds.
	Psi float64 `json:"psi"`
}

var shapes = []shape{
	{
		Name:  "engine_adaptive",
		Why:   "the paper's scenario in-process: adaptive k with the probe; kernels do all the work and the wire none",
		Plane: planeEngine, Hidden: 786, Clients: 32, Workers: 2, Rounds: 40, Psi: 2.0,
	},
	{
		Name:  "tcp_routed_q8",
		Why:   "8 TCP clients, routed plane, 8-bit values, k=D/10: codec, sockets and coordinator aggregation dominate the round",
		Plane: planeRouted, Hidden: 156, Clients: 8, KDiv: 10, QuantBits: 8, Rounds: 300, Psi: 1.0,
	},
	{
		Name:  "tcp_direct_s2",
		Why:   "same model and k on the direct plane with 2 shards and raw f64 values: rank arrays, shard reduce, seal and fetch",
		Plane: planeDirect, Hidden: 156, Clients: 8, KDiv: 10, Shards: 2, Rounds: 300, Psi: 1.0,
	},
	{
		Name:  "pop_routed_100k",
		Why:   "100k members behind 2 multiplexed connections, cohort 64, tiny model: enrolment, cohort draw and per-member cost dominate",
		Plane: planePop, Hidden: 16, Clients: 64, Population: 100_000, Hosts: 2, Cohort: 64, KDiv: 100, Rounds: 300, Psi: 4.6,
	},
}

func shapeByName(name string) (shape, error) {
	for _, sh := range shapes {
		if sh.Name == name {
			return sh, nil
		}
	}
	return shape{}, fmt.Errorf("unknown workload %q", name)
}

func (sh shape) dim() int { return (inDim+1)*sh.Hidden + (sh.Hidden+1)*numClasses }

// k is the fixed sparsity degree (0 on the adaptive workload).
func (sh shape) k() int {
	if sh.KDiv == 0 {
		return 0
	}
	return sh.dim() / sh.KDiv
}

func (sh shape) model() *nn.Network { return nn.NewMLP(inDim, []int{sh.Hidden}, numClasses) }

// inputs is everything a repetition hands the program under test. It is
// a function of (shape, seed) only.
type inputs struct {
	fed  *dataset.Federated
	init []float64
	// drawRng is the engine's seed stream advanced past the weight
	// initialisation: the stream fl.Run draws cohorts from, and therefore
	// the one the population coordinator must draw from.
	drawRng *rand.Rand
}

// generate derives data and initial weights from the seed the way fl.Run
// does (weights from the seed stream; client i's rng is seeded
// seed + 1000003·(i+1) by the roles themselves).
func generate(sh shape, seed int64) inputs {
	fed := dataset.GenerateFEMNIST(dataset.FEMNISTConfig{
		NumClients:       sh.Clients,
		NumClasses:       numClasses,
		Dim:              inDim,
		SamplesPerClient: 64,
		ClassesPerClient: 5,
		TestSamples:      10,
		Noise:            0.45,
		StyleShift:       0.25,
		Seed:             seed,
	})
	rng := rand.New(rand.NewSource(seed))
	ref := sh.model()
	ref.InitWeights(rng)
	return inputs{fed: fed, init: ref.Params(), drawRng: rng}
}

func clientSeed(seed int64, id int) int64 { return seed + 1000003*int64(id+1) }

// engineConfig is the fl.Run configuration of a workload: the program
// under test on engine_adaptive, and the in-process twin the TCP
// workloads' trajectories are checked against.
func engineConfig(sh shape, in inputs, seed int64, workers int, obs fl.Observer) fl.Config {
	d := float64(sh.dim())
	var ctrl core.Controller
	if sh.KDiv == 0 {
		// The paper's Fig. 5 parameters.
		ctrl = core.NewAdaptiveSignOGD(0.002*d, d, d, 1.5, 20, nil)
	} else {
		ctrl = core.NewFixedK(float64(sh.k()))
	}
	return fl.Config{
		Data:         in.fed,
		Model:        sh.model,
		LearningRate: learningRate,
		BatchSize:    batchSize,
		Rounds:       sh.Rounds,
		Seed:         seed,
		Strategy:     &gs.FABTopK{},
		Controller:   ctrl,
		Beta:         beta,
		QuantBits:    sh.QuantBits,
		Workers:      workers,
		Observer:     obs,
	}
}
