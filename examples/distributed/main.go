// Command distributed runs the FAB-top-k protocol over real TCP
// connections on localhost with the client-direct sharded data plane: a
// coordinator goroutine serves the control plane (handshakes, per-round
// metadata, selection, shard seals, client releases), two aggregation
// shards each listen on their own ingest address, and one process-like
// goroutine per client learns the shard directory from the
// coordinator's Init, splits every top-k upload by coordinate range,
// sends each slice straight to the owning shard, and pulls the round's
// broadcast back from the shards the same way (each shard serves its
// sealed span of B from its own merged sums) — the coordinator never
// receives a gradient upload and never transmits B payload. All
// messages travel as length-prefixed binary frames over real TCP
// streams, and the resulting trajectory is bit-identical to an
// unsharded (routed) or in-process run with the same seeds.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"fedsparse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w := fedsparse.NewFEMNISTWorkload(fedsparse.ScaleTiny)
	n := w.Data.NumClients()
	const (
		k       = 40
		rounds  = 50
		seed    = 5
		nShards = 2
	)

	// Synchronized initial weights, exactly as the coordinator would
	// distribute them.
	ref := w.Model()
	ref.InitWeights(rand.New(rand.NewSource(seed)))

	ln, err := fedsparse.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	addr := ln.Addr().String()
	fmt.Printf("coordinator (control plane) on %s; %d clients, %d direct ingest shards, k=%d, %d rounds\n",
		addr, n, nShards, k, rounds)

	// Shard processes: open an ingest listener, advertise it to the
	// coordinator, and serve client slice uploads until the run ends.
	var wg sync.WaitGroup
	shardErrs := make([]error, nShards)
	for s := 0; s < nShards; s++ {
		ingest, err := fedsparse.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		fmt.Printf("shard %d ingest on %s\n", s, ingest.Addr())
		wg.Add(1)
		go func(s int, ingest *fedsparse.Listener) {
			defer wg.Done()
			defer ingest.Close()
			conn, err := fedsparse.DialDirectShard(addr, ingest.Addr().String())
			if err != nil {
				shardErrs[s] = err
				return
			}
			defer conn.Close()
			shardErrs[s] = fedsparse.RunDirectShard(conn, func(n int) ([]fedsparse.Peer, error) {
				return fedsparse.AcceptDataPeers(ingest, n, time.Minute)
			})
		}(s, ingest)
	}

	// Client processes: one coordinator dial each; the shard dials
	// happen inside RunClient once the Init directory arrives.
	clientErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := fedsparse.Dial(addr)
			if err != nil {
				clientErrs[id] = err
				return
			}
			defer conn.Close()
			clientErrs[id] = fedsparse.RunClient(conn, fedsparse.ClientConfig{
				ID:           id,
				Data:         &w.Data.Clients[id],
				Model:        w.Model,
				LearningRate: w.LearningRate,
				BatchSize:    w.BatchSize,
				Seed:         fedsparse.ClientSeed(seed, id),
			})
		}(i)
	}

	// Coordinator: classify incoming peers by their first message until
	// every client and shard has arrived (bounded, so a crashed peer
	// surfaces as an error instead of a hang), then publish the shard
	// directory and run the control plane.
	clients, shardPeers, err := fedsparse.AcceptPeers(ln, n, nShards, time.Minute)
	if err != nil {
		return err
	}
	shardConns, shardAddrs := fedsparse.SplitShardPeers(shardPeers)

	records, err := fedsparse.RunServerPeers(clients, fedsparse.ServerConfig{
		K:             k,
		Rounds:        rounds,
		InitialParams: ref.Params(),
		ShardConns:    shardConns,
		Direct:        true,
		ShardAddrs:    shardAddrs,
	})
	if err != nil {
		return err
	}
	wg.Wait()
	for s, e := range shardErrs {
		if e != nil {
			return fmt.Errorf("shard %d: %w", s, e)
		}
	}
	for id, e := range clientErrs {
		if e != nil {
			return fmt.Errorf("client %d: %w", id, e)
		}
	}

	fmt.Println("\nround  weighted loss  |J|")
	for _, r := range records {
		if r.Round%10 == 0 || r.Round == 1 {
			fmt.Printf("%5d  %13.3f  %3d\n", r.Round, r.Loss, r.DownlinkElems)
		}
	}
	fmt.Printf("\nloss over the wire: %.3f -> %.3f across %d TCP clients exchanging gradients straight with %d shards (uplink slices + shard-served downlink)\n",
		records[0].Loss, records[len(records)-1].Loss, n, nShards)
	return nil
}
