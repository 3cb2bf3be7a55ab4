// Command flsim runs one federated training configuration and emits a
// per-round CSV — the workhorse for custom sweeps beyond the canned
// figures.
//
// Usage examples:
//
//	flsim -dataset femnist -strategy fab -k 100 -beta 10 -rounds 400
//	flsim -dataset cifar -adaptive alg3 -beta 100 -rounds 600
//	flsim -strategy fedavg -k 100 -beta 10
//
// Beyond the simulation, flsim can run each role of a real multi-process
// deployment (one command per process, same dataset/scale/seed flags
// everywhere). Without -shards the coordinator aggregates every upload
// itself:
//
//	flsim -role coordinator -listen 127.0.0.1:7000 -k 100 -rounds 50
//	flsim -role client -connect 127.0.0.1:7000 -id 0 (× the client count)
//
// With -shards S the coordinator is a control plane only: each shard
// opens its own ingest listener, and clients — which learn the shard
// directory from the coordinator's Init — upload range slices straight
// to the shards and fetch the broadcast back from them:
//
//	flsim -role coordinator -listen 127.0.0.1:7000 -shards 2 -k 100
//	flsim -role shard  -connect 127.0.0.1:7000 -listen 127.0.0.1:7101 (× S)
//	flsim -role client -connect 127.0.0.1:7000 -id 0 (× the client count)
//
// With -staleness W (sim, or a sharded coordinator) the rounds run W
// deep: a client computes and uploads round m before it applies round
// m−W's broadcast, so local compute overlaps W rounds of reduction and
// downlink. The run stays a pure function of the seeds — the same CSV
// as the sim with the same -staleness — and a slow client paces the
// fleet with W rounds of slack:
//
//	flsim -role coordinator -staleness 1 -listen 127.0.0.1:7000 -shards 2 -k 100
//
// Durability: -wal-dir journals the run's control-plane decisions so a
// crashed process restarts instead of killing the run (see README
// "Durability and recovery"). In sim mode it also writes periodic model
// snapshots, and -resume continues a halted run bit-identically. A
// durable deployment pairs a -wal-dir coordinator with -durable shards
// and clients, which redial with backoff and rejoin mid-run:
//
//	flsim -role coordinator -wal-dir run1 -listen 127.0.0.1:7000 -shards 2
//	flsim -role shard  -durable -id 0 -connect 127.0.0.1:7000 -listen 127.0.0.1:7101
//	flsim -role client -durable -connect 127.0.0.1:7000 -id 0
//
// A crashed coordinator restarts with the same flags plus -resume; a
// dead shard restarts with its same -id plus -resume (it rejoins fresh
// and rebuilds its state from the clients' resent slices).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fedsparse"
)

func main() {
	var (
		datasetName = flag.String("dataset", "femnist", "dataset: femnist or cifar")
		scale       = flag.String("scale", "small", "workload scale: tiny, small, paper")
		strategy    = flag.String("strategy", "fab", "GS method: fab, fub, uni, periodic, sendall, fedavg")
		adaptive    = flag.String("adaptive", "none", "k controller: none, alg2, alg3, value, exp3, bandit")
		k           = flag.Int("k", 0, "sparsity degree for fixed-k / FedAvg (0 = workload default)")
		beta        = flag.Float64("beta", 10, "communication time of a full exchange")
		rounds      = flag.Int("rounds", 0, "training rounds (0 = workload default)")
		lr          = flag.Float64("lr", 0, "learning rate (0 = workload default)")
		batch       = flag.Int("batch", 0, "minibatch size (0 = workload default)")
		seed        = flag.Int64("seed", 1, "random seed")
		evalEvery   = flag.Int("eval-every", 0, "test-set evaluation cadence in rounds (0 = off)")
		quantBits   = flag.Int("quantbits", 0, "quantize uploaded and broadcast gradient values to this many bits (0 = full precision; sim and coordinator roles)")
		staleness   = flag.Int("staleness", 0, "bounded-staleness window W: clients compute round m on the weights of round m-W-1, overlapping W rounds of compute with reduction and downlink (0 = synchronous lockstep; deterministic at any W; sim and coordinator roles; a distributed coordinator requires -shards)")
		workers     = flag.Int("workers", 0, "per-client worker pool size, -1 = all CPUs (results are bit-identical at any value; 0 = sequential)")
		shards      = flag.Int("shards", 0, "coordinator: shard processes to wait for; clients upload straight to them (0 = aggregate in the coordinator)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
		role        = flag.String("role", "sim", "process role: sim (in-process simulation), coordinator, shard, client")
		listenAddr  = flag.String("listen", "127.0.0.1:0", "coordinator: TCP address to listen on; shard: its client-facing ingest address (required)")
		connectAddr = flag.String("connect", "", "shard/client: the coordinator's address")
		clients     = flag.Int("clients", 0, "coordinator: client processes to wait for (0 = the workload's client count)")
		clientID    = flag.Int("id", 0, "client: this participant's client ID; durable shard: its shard ID")
		acceptWait  = flag.Duration("accept-timeout", 2*time.Minute, "coordinator/shard: how long to wait for all peers to arrive (0 = forever)")
		walDir      = flag.String("wal-dir", "", "durability: journal control-plane decisions (and, for sim, periodic snapshots) into this directory; required for -resume (sim and coordinator roles)")
		resume      = flag.Bool("resume", false, "sim/coordinator: resume a halted or crashed run from the -wal-dir log; durable shard: rejoin an in-progress run as a fresh (state-less) restart")
		durable     = flag.Bool("durable", false, "shard/client: speak the crash-recovery protocol — redial with backoff and rejoin a -wal-dir coordinator after link or process failures")
		adminAddr   = flag.String("admin-addr", "", "serve the HTTP admin endpoints (/metrics, /healthz, /readyz, /rounds, /debug/pprof) on this address while the run is live (sim and coordinator roles; port 0 = ephemeral, printed to stderr)")
		population  = flag.Int("population", 0, "sim: scale the workload to this many virtual clients — each member gets a non-i.i.d. zero-copy window over the pooled training samples, so 100k–1M fit in the base dataset's memory; requires -cohort (sampling is what makes the scale tractable)")
		cohort      = flag.Int("cohort", 0, "sim: draw this many participants per round instead of running everyone (0 = full participation; the draw matches the engine's Fisher–Yates, so -cohort N over N clients is bit-identical to the default)")
		churn       = flag.Float64("churn", 0, "sim: per-round population churn fraction in (0, 0.5] — each round a rotating block of churn*N members leaves the drawable population and the block that left the previous round rejoins")
		noniid      = flag.Float64("noniid", 0, "sim: re-partition the pooled training samples across the workload's clients with Dirichlet(alpha) label skew (smaller alpha = more skewed; incompatible with -population, whose member shards are non-i.i.d. by construction)")
	)
	flag.Parse()
	if *workers < 0 {
		*workers = runtime.NumCPU()
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := validateFlags(*role, set, *shards, *staleness, *durable, *resume, *walDir, *connectAddr,
		*population, *cohort, *churn, *noniid)
	if err == nil {
		switch *role {
		case "sim":
			err = withProfiles(*cpuProfile, *memProfile, func() error {
				return run(os.Stdout, *datasetName, *scale, *strategy, *adaptive, *k, *beta, *rounds, *lr, *batch, *seed, *evalEvery, *workers, *quantBits, *staleness, *walDir, *resume, *adminAddr,
					*population, *cohort, *churn, *noniid)
			})
		case "coordinator":
			// The distributed protocol is fixed-k FAB-top-k; reject flags
			// that would silently mean something else in sim mode.
			if *strategy != "fab" || *adaptive != "none" {
				err = fmt.Errorf("the coordinator role runs fixed-k fab-top-k; -strategy/-adaptive apply to -role sim only")
				break
			}
			err = runCoordinator(os.Stdout, *datasetName, *scale, *k, *rounds, *seed, *listenAddr, *clients, *shards, *quantBits, *staleness, *acceptWait, *walDir, *resume, *adminAddr)
		case "shard":
			err = runShardRole(*connectAddr, *listenAddr, *acceptWait, *durable, *resume, *clientID, *seed)
		case "client":
			err = runClientRole(*datasetName, *scale, *clientID, *seed, *lr, *batch, *connectAddr, *durable)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// validateFlags rejects incoherent -role/-shards/-clients/-connect/
// -listen/-id combinations up front with a one-line actionable error — a
// wrong pairing must fail before any process starts waiting on a peer
// that will never behave as expected (a mid-round hang is the
// alternative). set records which flags were given explicitly.
func validateFlags(role string, set map[string]bool, shards, staleness int, durable, resume bool, walDir, connect string,
	population, cohort int, churn, noniid float64) error {

	if role != "sim" && (set["population"] || set["cohort"] || set["churn"] || set["noniid"]) {
		return errors.New("flsim: -population/-cohort/-churn/-noniid apply to -role sim (the distributed form of the population tier is the library's RunServerPeers with a ServerConfig.Population, and RunVirtualHost)")
	}
	switch role {
	case "sim":
		switch {
		case population < 0:
			return errors.New("flsim: -population must be >= 0 (0 = the workload's native client count)")
		case cohort < 0:
			return errors.New("flsim: -cohort must be >= 0 (0 = full participation)")
		case population > 0 && cohort < 1:
			return errors.New("flsim: -population requires -cohort >= 1 (materializing every member of a scaled population per round is exactly what sampling avoids)")
		case churn < 0 || churn > 0.5:
			return errors.New("flsim: -churn must be in [0, 0.5] (each round one churn*N block is out while the rest stay drawable)")
		case noniid < 0:
			return errors.New("flsim: -noniid must be > 0 (a Dirichlet concentration)")
		case set["noniid"] && noniid == 0:
			return errors.New("flsim: -noniid must be > 0 (a Dirichlet concentration)")
		case noniid > 0 && population > 0:
			return errors.New("flsim: -noniid is incompatible with -population (population member shards are non-i.i.d. by construction)")
		case churn > 0 && walDir != "":
			return errors.New("flsim: -churn is incompatible with -wal-dir (a churn schedule cannot be journaled)")
		case staleness < 0:
			return errors.New("flsim: -staleness must be >= 0 (0 = synchronous lockstep)")
		case staleness > 0 && walDir != "":
			return errors.New("flsim: -staleness is incompatible with -wal-dir (the asynchronous admission schedule cannot be journaled)")
		case set["connect"]:
			return errors.New("flsim: -connect applies to -role shard|client; sim runs in-process")
		case set["id"]:
			return errors.New("flsim: -id applies to -role client")
		case set["clients"]:
			return errors.New("flsim: -clients applies to -role coordinator")
		case set["listen"]:
			return errors.New("flsim: -listen applies to -role coordinator|shard")
		case set["durable"]:
			return errors.New("flsim: -durable applies to -role shard|client; sim durability is -wal-dir")
		case resume && walDir == "":
			return errors.New("flsim: -resume needs -wal-dir DIR (the log to resume from)")
		case set["shards"]:
			return errors.New("flsim: -shards applies to -role coordinator; sim aggregates in-process on one scratch")
		}
	case "coordinator":
		switch {
		case staleness < 0:
			return errors.New("flsim: -staleness must be >= 0 (0 = synchronous lockstep)")
		case staleness > 0 && shards < 1:
			return errors.New("flsim: -staleness requires -shards >= 1 (the W-deep loops run on the client-direct plane; the unsharded coordinator runs in lockstep)")
		case staleness > 0 && walDir != "":
			return errors.New("flsim: -staleness is incompatible with -wal-dir (the durable coordinator runs in lockstep)")
		case set["connect"]:
			return errors.New("flsim: -connect applies to -role shard|client; the coordinator listens on -listen")
		case set["id"]:
			return errors.New("flsim: -id applies to -role client")
		case set["workers"]:
			return errors.New("flsim: -workers applies to -role sim; distributed parallelism comes from shard processes")
		case set["durable"]:
			return errors.New("flsim: -durable applies to -role shard|client; coordinator durability is -wal-dir")
		case resume && walDir == "":
			return errors.New("flsim: -resume needs -wal-dir DIR (the log to resume from)")
		}
	case "shard":
		switch {
		case connect == "":
			return errors.New("flsim: -role shard requires -connect COORDINATOR_ADDR")
		case set["shards"]:
			return errors.New("flsim: -shards is the coordinator's flag; shard processes learn the geometry from their assignment")
		case set["clients"]:
			return errors.New("flsim: -clients applies to -role coordinator")
		case set["quantbits"]:
			return errors.New("flsim: -quantbits is the coordinator's flag; shards learn the width from their assignment")
		case set["staleness"]:
			return errors.New("flsim: -staleness is the coordinator's flag; shards learn the window from their assignment")
		case set["wal-dir"]:
			return errors.New("flsim: -wal-dir applies to -role sim|coordinator; a shard's durability is -durable")
		case set["admin-addr"]:
			return errors.New("flsim: -admin-addr applies to -role sim|coordinator (only the round-driving process observes the run)")
		case set["id"] && !durable:
			return errors.New("flsim: -id on a shard requires -durable (the rejoin identity); plain shards learn theirs from the assignment")
		case durable && !set["id"]:
			return errors.New("flsim: a -durable shard requires -id SHARD_ID (its identity across restarts)")
		case resume && !durable:
			return errors.New("flsim: -resume on a shard requires -durable (a fresh restart rejoins the run)")
		case !set["listen"]:
			return errors.New("flsim: -role shard requires -listen INGEST_ADDR (clients upload straight to it)")
		}
	case "client":
		switch {
		case connect == "":
			return errors.New("flsim: -role client requires -connect COORDINATOR_ADDR")
		case set["shards"]:
			return errors.New("flsim: -shards is the coordinator's flag")
		case set["clients"]:
			return errors.New("flsim: -clients applies to -role coordinator")
		case set["quantbits"]:
			return errors.New("flsim: clients learn the quantization width from the coordinator's Init; -quantbits applies to sim and coordinator roles")
		case set["staleness"]:
			return errors.New("flsim: clients learn the staleness window from the coordinator's Init; -staleness applies to sim and coordinator roles")
		case set["listen"]:
			return errors.New("flsim: -listen applies to -role coordinator|shard")
		case set["wal-dir"] || set["resume"]:
			return errors.New("flsim: -wal-dir/-resume apply to -role sim|coordinator; a client's durability is -durable (it rejoins mid-run, it has no log)")
		case set["admin-addr"]:
			return errors.New("flsim: -admin-addr applies to -role sim|coordinator (only the round-driving process observes the run)")
		}
	default:
		return fmt.Errorf("flsim: unknown role %q (sim, coordinator, shard, client)", role)
	}
	return nil
}

// withProfiles wraps fn with optional pprof capture: a CPU profile
// covering exactly the run, and a post-run heap profile of the settled
// live set (after a GC, so transient per-round garbage — which the
// allocation-free round loop should not produce — stands out from real
// retention). Empty paths disable each profile.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile() // no-op if already stopped below
	}
	runErr := fn()
	// Stop the CPU profile before the heap capture so the forced GC and
	// profile encoding don't land as samples in the CPU profile.
	if cpuPath != "" {
		pprof.StopCPUProfile()
	}
	if memPath != "" {
		// Written even when the run failed — a heap profile is most
		// useful exactly when diagnosing a broken run.
		f, err := os.Create(memPath)
		if err != nil {
			return errors.Join(runErr, fmt.Errorf("memprofile: %w", err))
		}
		defer f.Close()
		runtime.GC() // capture the settled live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return errors.Join(runErr, fmt.Errorf("memprofile: %w", err))
		}
	}
	return runErr
}

func run(out io.Writer, datasetName, scale, strategy, adaptive string, k int, beta float64,
	rounds int, lr float64, batch int, seed int64, evalEvery, workers, quantBits, staleness int,
	walDir string, resume bool, adminAddr string, population, cohort int, churn, noniid float64) error {

	w, err := buildWorkload(datasetName, scale)
	if err != nil {
		return err
	}
	if population > 0 {
		if err := scaleToPopulation(w, population, seed); err != nil {
			return err
		}
	}
	if noniid > 0 {
		repartitionDirichlet(w, noniid, seed)
	}
	if k == 0 {
		k = w.KFixed
	}
	if rounds == 0 {
		rounds = w.Rounds
	}
	if lr == 0 {
		lr = w.LearningRate
	}
	if batch == 0 {
		batch = w.BatchSize
	}

	cfg := fedsparse.Config{
		Data:         w.Data,
		Model:        w.Model,
		LearningRate: lr,
		BatchSize:    batch,
		Rounds:       rounds,
		Seed:         seed,
		Beta:         beta,
		EvalEvery:    evalEvery,
		Workers:      workers,
		QuantBits:    quantBits,
		Staleness:    staleness,
		WALDir:       walDir,
		Resume:       resume,
		Cohort:       cohort,
	}
	if churn > 0 {
		cfg.Churn, err = churnSchedule(churn, w.Data.NumClients())
		if err != nil {
			return err
		}
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("flsim: -wal-dir: %w", err)
		}
	}

	switch strategy {
	case "fab":
		cfg.Strategy = &fedsparse.FABTopK{}
	case "fub":
		cfg.Strategy = fedsparse.FUBTopK{}
	case "uni":
		cfg.Strategy = fedsparse.UniTopK{}
	case "periodic":
		cfg.Strategy = fedsparse.PeriodicK{}
	case "sendall":
		cfg.Strategy = fedsparse.SendAll{}
	case "fedavg":
		cfg.FedAvg = true
		cfg.FedAvgKEquiv = k
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}

	if !cfg.FedAvg {
		kmin, kmax := math.Max(2, 0.002*float64(w.D)), float64(w.D)
		switch adaptive {
		case "none":
			cfg.Controller = fedsparse.NewFixedK(float64(k))
		case "alg2":
			cfg.Controller = fedsparse.NewSignOGD(kmin, kmax, kmax, nil)
		case "alg3":
			cfg.Controller = fedsparse.NewAdaptiveSignOGD(kmin, kmax, kmax, 1.5, 20, nil)
		case "value":
			cfg.Controller = fedsparse.NewValueOGD(kmin, kmax, kmax)
		case "exp3":
			cfg.Controller = fedsparse.NewEXP3(int(kmin), int(kmax), 0, rounds, newRand(seed+1))
		case "bandit":
			cfg.Controller = fedsparse.NewContinuousBandit(kmin, kmax, kmax, rounds, 0, 0, newRand(seed+2))
		default:
			return fmt.Errorf("unknown adaptive controller %q", adaptive)
		}
		if walDir != "" && (adaptive == "exp3" || adaptive == "bandit") {
			return fmt.Errorf("flsim: -wal-dir cannot snapshot the self-randomizing %s controller; use none, alg2, alg3, or value", adaptive)
		}
	}

	// The CSV writer is an observer on the round-event stream, so rows
	// appear as rounds complete instead of after the run; a resumed run
	// replays its logged prefix through the same stream, keeping the
	// output byte-identical to an uninterrupted one.
	fmt.Fprintf(out, "# %s/%s strategy=%s adaptive=%s D=%d N=%d beta=%g\n",
		datasetName, scale, strategy, adaptive, w.D, w.Data.NumClients(), beta)
	fmt.Fprintln(out, "round,k,time,round_time,loss,downlink_elems,test_acc,test_loss")
	var adm *fedsparse.AdminServer
	if adminAddr != "" {
		adm, err = fedsparse.ServeAdmin(adminAddr)
		if err != nil {
			return err
		}
		defer adm.Close()
		adm.SetExpected(w.Data.NumClients(), 0)
		adm.SetEnrolled(w.Data.NumClients(), 0)
		adm.SetResumed(resume)
		log.Printf("flsim: admin endpoints on http://%s", adm.Addr())
	}
	cfg.Observer = fedsparse.MultiObserver(simCSV{out}, observerOrNil(adm))

	_, err = fedsparse.Run(cfg)
	return err
}

// simCSV streams the sim-mode per-round CSV rows from the event stream.
type simCSV struct{ w io.Writer }

func (c simCSV) OnRoundStart(int) {}
func (c simCSV) OnRunEnd(error)   {}
func (c simCSV) OnRoundEnd(ev fedsparse.RoundEvent) {
	fmt.Fprintf(c.w, "%d,%d,%.4f,%.4f,%.6f,%d,%s,%s\n",
		ev.Round, ev.K, ev.Time, ev.RoundTime, ev.Loss, ev.DownlinkElems,
		csvFloat(ev.TestAcc), csvFloat(ev.TestLoss))
}

// observerOrNil keeps a nil *AdminServer out of the observer fan-out (a
// typed nil would pass MultiObserver's nil filter).
func observerOrNil(adm *fedsparse.AdminServer) fedsparse.Observer {
	if adm == nil {
		return nil
	}
	return adm
}

func csvFloat(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return fmt.Sprintf("%.6f", v)
}

// poolSamples flattens the workload's per-client partitions back into
// one dataset (shared sample storage; nothing is copied but the slice
// headers) so it can be re-partitioned a different way.
func poolSamples(w *fedsparse.Workload) fedsparse.Dataset {
	base := fedsparse.Dataset{Dim: w.Data.Dim, NumClasses: w.Data.NumClasses}
	for i := range w.Data.Clients {
		base.Samples = append(base.Samples, w.Data.Clients[i].Samples...)
	}
	return base
}

// scaleToPopulation replaces the workload's native clients with n
// virtual members, each a zero-copy non-i.i.d. window over the pooled
// samples — memory stays that of the base dataset no matter how large
// n grows, which is what makes 100k–1M clients runnable at all.
func scaleToPopulation(w *fedsparse.Workload, n int, seed int64) error {
	base := poolSamples(w)
	// Keep roughly the native per-client shard size, bounded so huge
	// scales do not make each member's local epoch slower than the base
	// workload's.
	perMember := base.Len() / w.Data.NumClients()
	if perMember > 64 {
		perMember = 64
	}
	if perMember < 1 {
		perMember = 1
	}
	view, err := fedsparse.NewPopulationView(base, perMember, seed)
	if err != nil {
		return err
	}
	clients := make([]fedsparse.Dataset, n)
	for m := range clients {
		clients[m] = *view.Member(m)
	}
	w.Data.Clients = clients
	return nil
}

// repartitionDirichlet redeals the pooled samples across the workload's
// native client count with Dirichlet(alpha) label skew, for studying GS
// under non-i.i.d. data without changing the population size.
func repartitionDirichlet(w *fedsparse.Workload, alpha float64, seed int64) {
	w.Data.Clients = fedsparse.PartitionDirichlet(poolSamples(w), w.Data.NumClients(), alpha, newRand(seed+3))
}

// churnSchedule builds the -churn rotating-block schedule over n
// clients: from round 2 on, block b = (round-2) mod nBlocks (of size
// floor(frac*n)) leaves the drawable population, and from round 3 on
// the previously-left block rejoins — a steady join+leave stream whose
// event counts are exactly reproducible. frac <= 0.5 guarantees the
// two blocks are disjoint and the population is never emptied.
func churnSchedule(frac float64, n int) (func(round int) (join, leave []int), error) {
	block := int(frac * float64(n))
	if block < 1 {
		return nil, fmt.Errorf("flsim: -churn %g of %d clients churns no one; raise the fraction or the population", frac, n)
	}
	nBlocks := n / block
	if nBlocks < 2 {
		return nil, fmt.Errorf("flsim: -churn %g of %d clients leaves no stable block; lower the fraction", frac, n)
	}
	members := func(b int) []int {
		ids := make([]int, block)
		for i := range ids {
			ids[i] = b*block + i
		}
		return ids
	}
	return func(round int) (join, leave []int) {
		if round < 2 {
			return nil, nil
		}
		leave = members((round - 2) % nBlocks)
		if round > 2 {
			join = members((round - 3 + nBlocks) % nBlocks)
		}
		return join, leave
	}, nil
}
