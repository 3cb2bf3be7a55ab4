// The multi-process deployment roles of flsim: one coordinator process
// listens for clients and aggregation shards on a single TCP address,
// shard processes serve their clients' range slices and run the
// range-restricted reductions, and client processes train on their data
// partition. With the same dataset/scale/
// seed flags in every process, the run's trajectory is bit-identical to
// `flsim -role sim` (and to any shard or worker count).
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fedsparse"
)

// coordinatorWAL is the coordinator's log file inside -wal-dir; the
// run identity is fedsparse.WALRunID(seed), so restarting with the
// same flags resumes the same run.
const coordinatorWAL = "coordinator.wal"

// buildWorkload resolves the dataset flag to a workload; every role
// builds the same one so weights, models, and data partitions agree
// across processes.
func buildWorkload(datasetName, scale string) (*fedsparse.Workload, error) {
	switch datasetName {
	case "femnist":
		return fedsparse.NewFEMNISTWorkload(fedsparse.Scale(scale)), nil
	case "cifar":
		return fedsparse.NewCIFARWorkload(fedsparse.Scale(scale)), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", datasetName)
	}
}

// runCoordinator listens for the expected number of clients and shards,
// then drives the distributed FAB-top-k run and emits the per-round CSV.
// With shards the coordinator is a control plane only: the shards'
// advertised ingest addresses are published to the clients in Init.
func runCoordinator(out io.Writer, datasetName, scale string, k, rounds int, seed int64,
	listenAddr string, nClients, nShards, quantBits, staleness int, acceptTimeout time.Duration,
	walDir string, resume bool, adminAddr string) error {

	w, err := buildWorkload(datasetName, scale)
	if err != nil {
		return err
	}
	if k == 0 {
		k = w.KFixed
	}
	if rounds == 0 {
		rounds = w.Rounds
	}
	if nClients == 0 {
		nClients = w.Data.NumClients()
	}
	ln, err := fedsparse.Listen(listenAddr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if resume {
		fmt.Fprintf(out, "# coordinator on %s: resuming run %#x for %d clients and %d shards (k=%d, %d rounds)\n",
			ln.Addr(), fedsparse.WALRunID(seed), nClients, nShards, k, rounds)
	} else {
		fmt.Fprintf(out, "# coordinator on %s: waiting for %d clients and %d shards (k=%d, %d rounds)\n",
			ln.Addr(), nClients, nShards, k, rounds)
	}
	return coordinate(out, ln, w, k, rounds, seed, nClients, nShards, quantBits, staleness, acceptTimeout, walDir, resume, adminAddr)
}

// coordinate is the listener-driven core of the coordinator role,
// separated so tests can bind the listener themselves. With walDir the
// run is durable: decisions are journaled to walDir/coordinator.wal and
// peers that drop mid-run re-enter through a rejoin desk on the same
// listener; with resume the log is replayed instead of accepting a
// fresh enrollment (every peer reconnects via the Rejoin handshake).
func coordinate(out io.Writer, ln *fedsparse.Listener, w *fedsparse.Workload,
	k, rounds int, seed int64, nClients, nShards, quantBits, staleness int, acceptTimeout time.Duration,
	walDir string, resume bool, adminAddr string) error {

	// Synchronized initial weights: the same construction as the
	// reference engine with this seed.
	ref := w.Model()
	ref.InitWeights(rand.New(rand.NewSource(seed)))

	cfg := fedsparse.ServerConfig{
		K:             k,
		Rounds:        rounds,
		InitialParams: ref.Params(),
		QuantBits:     quantBits,
		Staleness:     staleness,
		Direct:        nShards > 0,
	}

	// The per-round CSV streams from the coordinator's event stream; a
	// resumed run replays the already-logged rounds through it first, so
	// the output matches an uninterrupted run.
	var adm *fedsparse.AdminServer
	if adminAddr != "" {
		var err error
		adm, err = fedsparse.ServeAdmin(adminAddr)
		if err != nil {
			return err
		}
		defer adm.Close()
		adm.SetExpected(nClients, nShards)
		adm.SetResumed(resume)
		log.Printf("flsim: admin endpoints on http://%s", adm.Addr())
	}
	fmt.Fprintln(out, "round,loss,downlink_elems")
	cfg.Observer = fedsparse.MultiObserver(coordCSV{out}, observerOrNil(adm))

	// A resume enrolls nobody: peers re-enter through the rejoin desk as
	// the resume needs them.
	var clients []fedsparse.Peer
	if !resume {
		var shardPeers []fedsparse.Peer
		var err error
		if clients, shardPeers, err = fedsparse.AcceptPeers(ln, nClients, nShards, acceptTimeout); err != nil {
			return err
		}
		// Durable shards declare a stable -id in their hello; seat them
		// by declaration, not arrival order (racy across processes).
		if shardPeers, err = fedsparse.SeatShardPeers(shardPeers); err != nil {
			return err
		}
		cfg.ShardConns, cfg.ShardAddrs = fedsparse.SplitShardPeers(shardPeers)
	}
	if adm != nil {
		adm.SetEnrolled(nClients, nShards)
	}
	if walDir != "" {
		// Every later link failure pulls a replacement connection from
		// the rejoin desk over the same listener.
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("flsim: -wal-dir: %w", err)
		}
		desk := fedsparse.NewRejoinDesk(ln.Accept)
		defer desk.Close()
		cfg.Durable = &fedsparse.DurableServerConfig{RunID: fedsparse.WALRunID(seed),
			WALPath: filepath.Join(walDir, coordinatorWAL), Desk: desk, Resume: resume}
	}
	_, err := fedsparse.RunServerPeers(clients, cfg)
	return err
}

// coordCSV streams the coordinator's per-round CSV rows from the
// transport event stream.
type coordCSV struct{ w io.Writer }

func (c coordCSV) OnRoundStart(int) {}
func (c coordCSV) OnRunEnd(error)   {}
func (c coordCSV) OnRoundEnd(ev fedsparse.RoundEvent) {
	fmt.Fprintf(c.w, "%d,%.6f,%d\n", ev.Round, ev.Loss, ev.DownlinkElems)
}

// runShardRole connects to the coordinator as an aggregation shard and
// serves range reductions until the run completes, over its own ingest
// listener that clients upload their range slices to and pull their
// broadcast slices back from.
// A durable shard (-durable) speaks the crash-recovery protocol
// against a -wal-dir coordinator: it redials with backoff, rejoins
// after a coordinator restart, and — restarted itself with -resume —
// re-enters the run fresh, rebuilding its reduction from the clients'
// resent slices. Its -id is its stable identity across restarts.
func runShardRole(connect, listenAddr string, acceptTimeout time.Duration,
	durable, fresh bool, shardID int, seed int64) error {

	if connect == "" {
		return errors.New("flsim: -role shard requires -connect")
	}
	ln, err := fedsparse.Listen(listenAddr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if durable {
		ctx := context.Background()
		policy := fedsparse.RetryPolicy{}
		return fedsparse.RunDurableDirectShard(fedsparse.DurableShardConfig{
			RunID:   fedsparse.WALRunID(seed),
			ShardID: shardID,
			Addr:    ln.Addr().String(),
			Fresh:   fresh,
			Dial: func() (fedsparse.Conn, error) {
				return fedsparse.DialRetry(ctx, connect, policy)
			},
			AcceptData: ln.Accept,
		})
	}
	conn, err := fedsparse.DialDirectShard(connect, ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	return fedsparse.RunDirectShard(conn, func(n int) ([]fedsparse.Peer, error) {
		return fedsparse.AcceptDataPeers(ln, n, acceptTimeout)
	})
}

// runClientRole connects to the coordinator as participant `id` and
// trains until the run completes. k and rounds come from the
// coordinator's Init, so only the workload flags and the id must agree.
// With -durable the client dials through the backoff retry loop and
// runs the recovery protocol: it rejoins a restarted coordinator (or
// shard) mid-run instead of erroring, resending the last rounds'
// uploads from its ring. Requires a -wal-dir coordinator (the Init
// must carry a run identity).
func runClientRole(datasetName, scale string, id int, seed int64, lr float64, batch int,
	connect string, durable bool) error {

	if connect == "" {
		return errors.New("flsim: -role client requires -connect")
	}
	w, err := buildWorkload(datasetName, scale)
	if err != nil {
		return err
	}
	if id < 0 || id >= w.Data.NumClients() {
		return fmt.Errorf("flsim: client id %d out of range [0, %d)", id, w.Data.NumClients())
	}
	if lr == 0 {
		lr = w.LearningRate
	}
	if batch == 0 {
		batch = w.BatchSize
	}
	cfg := fedsparse.ClientConfig{
		ID:           id,
		Data:         &w.Data.Clients[id],
		Model:        w.Model,
		LearningRate: lr,
		BatchSize:    batch,
		Seed:         fedsparse.ClientSeed(seed, id),
	}
	dial := fedsparse.Dial
	if durable {
		ctx := context.Background()
		policy := fedsparse.RetryPolicy{}
		dial = func(addr string) (fedsparse.Conn, error) { return fedsparse.DialRetry(ctx, addr, policy) }
		cfg.DialShard = dial
		cfg.Redial = func() (fedsparse.Conn, error) { return dial(connect) }
	}
	conn, err := dial(connect)
	if err != nil {
		return err
	}
	defer conn.Close()
	return fedsparse.RunClient(conn, cfg)
}
