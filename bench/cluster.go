package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fedsparse/internal/dataset"
	"fedsparse/internal/fl"
	"fedsparse/internal/transport"
)

// peerTimeout bounds every accept of a repetition, so a role that died
// during set-up fails the repetition instead of hanging the benchmark.
const peerTimeout = 30 * time.Second

// repResult is one repetition: a fresh deployment of the workload, run
// for shape.Rounds rounds.
type repResult struct {
	setup   time.Duration // repetition start → first OnRoundStart
	wall    time.Duration // first OnRoundStart → last OnRoundEnd
	cpu     time.Duration // user+sys CPU over the same section
	mallocs uint64        // runtime.MemStats.Mallocs over the same section
	roundMs []float64     // OnRoundStart → OnRoundEnd, one per round
	events  []fl.RoundEvent
	// enrolAllocs and enrol time the handshake on the population plane:
	// role start → first OnRoundStart, with the inputs already generated.
	enrolAllocs uint64
	enrol       time.Duration
	conns       []*tracedConn
	obs         *roundObserver
	err         error // first role error, nil when every role returned cleanly
}

// rounds is the number of rounds that ran to their OnRoundEnd.
func (r *repResult) rounds() int { return len(r.roundMs) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// deployment collects what the roles of one repetition share: the
// wrapped connection ends and the first error.
type deployment struct {
	tracing bool
	mu      sync.Mutex
	conns   []*tracedConn
	errs    []error
	wg      sync.WaitGroup
}

// wrap hands a role its end of a connection.
func (d *deployment) wrap(c transport.Conn, r role, actor string) transport.Conn {
	tc := &tracedConn{inner: c, role: r, actor: actor, tracing: d.tracing}
	d.mu.Lock()
	d.conns = append(d.conns, tc)
	d.mu.Unlock()
	return tc
}

// goRole runs one role on its own goroutine and records its error.
func (d *deployment) goRole(name string, run func() error) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := run(); err != nil {
			d.fail(fmt.Errorf("%s: %w", name, err))
		}
	}()
}

func (d *deployment) closeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
}

func (d *deployment) fail(err error) {
	d.mu.Lock()
	d.errs = append(d.errs, err)
	d.mu.Unlock()
}

// runRep builds the workload's deployment from the seed, runs it to
// completion and tears it down. Everything a real run pays before its
// first round is inside setup: data generation, weight initialisation,
// listen/dial, handshakes and roster enrolment.
func runRep(sh shape, seed int64, tracing bool) *repResult {
	res := &repResult{}
	t0 := time.Now()
	var cpu0, cpu1 time.Duration
	var mal0, mal1 uint64
	obs := &roundObserver{
		rounds: sh.Rounds,
		onFirstRound: func() {
			res.setup = time.Since(t0)
			mal0 = mallocs()
			cpu0 = cpuTime()
		},
		onLastRound: func() {
			cpu1 = cpuTime()
			mal1 = mallocs()
		},
	}
	res.obs = obs
	in := generate(sh, seed)
	tEnrol := time.Now()
	malEnrol := mallocs()

	d := &deployment{tracing: tracing}
	var err error
	switch sh.Plane {
	case planeEngine:
		_, err = fl.Run(engineConfig(sh, in, seed, sh.Workers, obs))
	case planeRouted, planeDirect:
		err = d.runClassic(sh, in, seed, obs)
	case planePop:
		err = d.runPopulation(sh, in, seed, obs)
	}
	if err != nil {
		d.fail(fmt.Errorf("coordinator: %w", err))
		// Unblock roles still waiting on a coordinator that gave up.
		d.closeAll()
	}
	d.wg.Wait()

	n := min(len(obs.starts), len(obs.ends))
	res.roundMs = make([]float64, n)
	for i := range res.roundMs {
		res.roundMs[i] = float64(obs.ends[i]-obs.starts[i]) / 1e6
	}
	if n == sh.Rounds {
		res.wall = time.Duration(obs.ends[n-1] - obs.starts[0])
		res.cpu = cpu1 - cpu0
		res.mallocs = mal1 - mal0
		res.enrol = res.setup - tEnrol.Sub(t0)
		res.enrolAllocs = mal0 - malEnrol
	}
	res.events = obs.events
	res.conns = d.conns
	// Only the counters and spans outlive the repetition. Letting go of
	// the closed connections (and their codec buffers) keeps a later
	// repetition's peak RSS independent of how many came before it.
	for _, c := range d.conns {
		c.inner = nil
	}
	res.err = errors.Join(d.errs...)
	return res
}

// runClassic deploys the one-connection-per-client planes over loopback
// TCP: coordinator, sh.Clients clients and, on the direct plane,
// sh.Shards shards with their own ingest listeners. It returns the
// coordinator's error; the other roles report through d.
func (d *deployment) runClassic(sh shape, in inputs, seed int64, obs fl.Observer) error {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	coordAddr := ln.Addr().String()

	for s := 0; s < sh.Shards; s++ {
		ingest, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		actor := fmt.Sprintf("shard%d", s)
		d.goRole(actor, func() error {
			defer ingest.Close()
			ctrl, err := transport.Dial(coordAddr)
			if err != nil {
				return err
			}
			defer ctrl.Close()
			// Declaring the identity seats the shard by number, not by
			// arrival order, so actor names in the trace are the shard ids.
			if err := ctrl.Send(transport.ShardHello{Addr: ingest.Addr().String(), ID: s, HasID: true}); err != nil {
				return err
			}
			return transport.RunDirectShard(d.wrap(ctrl, roleShard, actor), func(n int) ([]transport.Peer, error) {
				peers, err := transport.AcceptDataPeers(ingest, n, peerTimeout)
				for i := range peers {
					peers[i].Conn = d.wrap(peers[i].Conn, roleShard, actor)
				}
				return peers, err
			})
		})
	}
	for i := 0; i < sh.Clients; i++ {
		actor := fmt.Sprintf("client%d", i)
		d.goRole(actor, func() error {
			conn, err := transport.Dial(coordAddr)
			if err != nil {
				return err
			}
			defer conn.Close()
			return transport.RunClient(d.wrap(conn, roleClient, actor), transport.ClientConfig{
				ID:           i,
				Data:         &in.fed.Clients[i],
				Model:        sh.model,
				LearningRate: learningRate,
				BatchSize:    batchSize,
				Seed:         clientSeed(seed, i),
				DialShard: func(addr string) (transport.Conn, error) {
					c, err := transport.Dial(addr)
					if err != nil {
						return nil, err
					}
					return d.wrap(c, roleClient, actor), nil
				},
			})
		})
	}

	clients, shards, err := transport.AcceptPeers(ln, sh.Clients, sh.Shards, peerTimeout)
	if err != nil {
		return err
	}
	defer closePeers(clients)
	defer closePeers(shards)
	if shards, err = transport.SeatShardPeers(shards); err != nil {
		return err
	}
	for i := range clients {
		clients[i].Conn = d.wrap(clients[i].Conn, roleCoordinator, "coordinator")
	}
	for i := range shards {
		shards[i].Conn = d.wrap(shards[i].Conn, roleCoordinator, "coordinator")
	}
	shardConns, shardAddrs := transport.SplitShardPeers(shards)
	cfg := transport.ServerConfig{
		K:             sh.k(),
		Rounds:        sh.Rounds,
		InitialParams: in.init,
		QuantBits:     sh.QuantBits,
		Observer:      obs,
	}
	if sh.Plane == planeDirect {
		cfg.Direct, cfg.ShardConns, cfg.ShardAddrs = true, shardConns, shardAddrs
	}
	_, err = transport.RunServerPeers(clients, cfg)
	return err
}

// runPopulation deploys the population plane: sh.Hosts virtual hosts,
// each one TCP connection, enrolling sh.Population members between them
// (member m lives on host m mod Hosts and trains on client dataset
// m mod Clients).
func (d *deployment) runPopulation(sh shape, in inputs, seed int64, obs fl.Observer) error {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	coordAddr := ln.Addr().String()

	for h := 0; h < sh.Hosts; h++ {
		actor := fmt.Sprintf("host%d", h)
		d.goRole(actor, func() error {
			roster := make([]int, 0, sh.Population/sh.Hosts+1)
			for m := h; m < sh.Population; m += sh.Hosts {
				roster = append(roster, m)
			}
			conn, err := transport.Dial(coordAddr)
			if err != nil {
				return err
			}
			defer conn.Close()
			return transport.RunVirtualHost(d.wrap(conn, roleClient, actor), transport.HostConfig{
				HostID:       h,
				Members:      roster,
				Data:         func(member int) *dataset.Dataset { return &in.fed.Clients[member%sh.Clients] },
				Model:        sh.model,
				LearningRate: learningRate,
				BatchSize:    batchSize,
				Seed:         seed,
			})
		})
	}

	hosts, _, err := transport.AcceptPeers(ln, sh.Hosts, 0, peerTimeout)
	if err != nil {
		return err
	}
	defer closePeers(hosts)
	for i := range hosts {
		hosts[i].Conn = d.wrap(hosts[i].Conn, roleCoordinator, "coordinator")
	}
	_, err = transport.RunPopulationServer(hosts, transport.ServerConfig{
		K:             sh.k(),
		Rounds:        sh.Rounds,
		InitialParams: in.init,
		Observer:      obs,
		Population:    &transport.PopulationConfig{Cohort: sh.Cohort, DrawRng: in.drawRng},
	})
	return err
}

func closePeers(peers []transport.Peer) {
	for _, p := range peers {
		if p.Conn != nil {
			p.Conn.Close()
		}
	}
}
