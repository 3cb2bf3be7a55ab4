package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsparse/internal/core"
	"fedsparse/internal/fl"
	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/tensor"
)

// shardStrategies is every built-in strategy the shard tier must
// aggregate bit-identically.
func shardStrategies() []gs.Strategy {
	return []gs.Strategy{
		&gs.FABTopK{}, gs.FUBTopK{}, gs.UniTopK{}, gs.PeriodicK{}, gs.SendAll{},
	}
}

// randomRankedUploads builds n rank-ordered top-k uploads over dimension d
// (the producer contract every real uplink satisfies).
func randomRankedUploads(rng *rand.Rand, n, d, k int) []gs.ClientUpload {
	ups := make([]gs.ClientUpload, n)
	for i := range ups {
		dense := make([]float64, d)
		for j := range dense {
			dense[j] = rng.NormFloat64()
		}
		ki := k
		if rng.Intn(3) == 0 {
			ki = 1 + rng.Intn(k) // stragglers with shorter top-k lists
		}
		ups[i] = gs.ClientUpload{Pairs: sparse.TopK(dense, ki), Weight: 1 + rng.Float64()*9}
	}
	return ups
}

// startDirectShards launches nShards RunDirectShard goroutines whose
// coordinator conns come from pair() and whose per-client ingest conns
// come from dataPair(); it returns the coordinator-side conns, the
// client-side ingest conns indexed [shard][client], and a join function
// that closes everything and reports every shard's exit error.
func startDirectShards(t *testing.T, nShards, nClients, dim int,
	pair func() (server, shard Conn)) ([]Conn, [][]Conn, func() []error) {
	t.Helper()
	coordConns := make([]Conn, nShards)
	shardCoordConns := make([]Conn, nShards)
	clientConns := make([][]Conn, nShards)
	shardPeers := make([][]Peer, nShards)
	for s := 0; s < nShards; s++ {
		coordConns[s], shardCoordConns[s] = pair()
		clientConns[s] = make([]Conn, nClients)
		shardPeers[s] = make([]Peer, nClients)
		for ci := 0; ci < nClients; ci++ {
			shardSide, clientSide := pair()
			clientConns[s][ci] = clientSide
			shardPeers[s][ci] = Peer{
				Conn: shardSide,
				Data: &DataHello{ClientID: ci, ShardID: s, NumShards: nShards, Dim: dim, Members: []int{ci}},
			}
		}
	}
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = RunDirectShard(shardCoordConns[s], func(n int) ([]Peer, error) {
				if n != nClients {
					return nil, fmt.Errorf("accept called for %d clients, harness built %d", n, nClients)
				}
				return shardPeers[s], nil
			})
		}(s)
	}
	return coordConns, clientConns, func() []error {
		for _, c := range coordConns {
			_ = c.Close()
		}
		for _, conns := range clientConns {
			for _, c := range conns {
				_ = c.Close()
			}
		}
		wg.Wait()
		return errs
	}
}

// sendSlices splits every upload by the shard partition and sends each
// client's range slice (with explicit local ranks) on its ingest conns —
// the client-side fan-out of the direct data plane.
func sendSlices(t *testing.T, clientConns [][]Conn, uploads []gs.ClientUpload, dim, round int) {
	t.Helper()
	nShards := len(clientConns)
	for ci, u := range uploads {
		idxs := make([][]int, nShards)
		vals := make([][]float64, nShards)
		rnks := make([][]int, nShards)
		for pi, j := range u.Pairs.Idx {
			s := 0
			for j >= 0 {
				lo, hi := tensor.ChunkBounds(dim, nShards, s)
				if j >= lo && j < hi {
					break
				}
				s++
			}
			idxs[s] = append(idxs[s], j)
			vals[s] = append(vals[s], u.Pairs.Val[pi])
			rnks[s] = append(rnks[s], pi)
		}
		for s := 0; s < nShards; s++ {
			up := SliceUpload{ClientID: ci, Round: round, Idx: idxs[s], Val: vals[s], Rank: rnks[s]}
			if err := clientConns[s][ci].Send(up); err != nil {
				t.Fatalf("client %d slice to shard %d: %v", ci, s, err)
			}
		}
	}
}

// TestDirectAggregationDifferential is the wire-level acceptance grid of
// the direct tier: DirectGroup over real RunDirectShard peers — slices
// arriving straight from the "clients", selection from merged reductions
// plus FillQuery round trips — is bit-identical to the single-process
// AggregateInto for shard counts {1, 2, 4} × all strategies × comparator
// worker counts {0, 4}, over in-memory and loopback-TCP conns.
func TestDirectAggregationDifferential(t *testing.T) {
	const n, d, k, rounds = 9, 600, 40, 4
	for _, connKind := range []string{"mem", "tcp"} {
		t.Run(connKind, func(t *testing.T) {
			var pair func() (Conn, Conn)
			if connKind == "tcp" {
				var stop func()
				pair, stop = rawTCPPairFactory(t)
				defer stop()
			} else {
				pair = func() (Conn, Conn) { return NewMemPair() }
			}
			for _, nShards := range []int{1, 2, 4} {
				for _, workers := range []int{0, 4} {
					t.Run(fmt.Sprintf("shards=%d/workers=%d", nShards, workers), func(t *testing.T) {
						rng := rand.New(rand.NewSource(61 + int64(nShards)*10 + int64(workers)))
						weights := make([]float64, n)
						roundUploads := make([][]gs.ClientUpload, rounds)
						for m := range roundUploads {
							roundUploads[m] = randomRankedUploads(rng, n, d, k)
							if m == 0 {
								for ci, u := range roundUploads[m] {
									weights[ci] = u.Weight
								}
							} else {
								for ci := range roundUploads[m] {
									roundUploads[m][ci].Weight = weights[ci]
								}
							}
						}
						for _, strat := range shardStrategies() {
							coordConns, clientConns, join := startDirectShards(t, nShards, n, d, pair)
							group, err := NewDirectGroup(coordConns, d, rounds, weights, 0)
							if err != nil {
								t.Fatal(err)
							}
							single := gs.NewAggScratch(workers)
							for m := 1; m <= rounds; m++ {
								ups := roundUploads[m-1]
								maxLen := 0
								for _, u := range ups {
									maxLen = max(maxLen, u.Pairs.Len())
								}
								sendSlices(t, clientConns, ups, d, m)
								got, err := group.Aggregate(strat.(gs.DirectSelector), m, k, maxLen)
								if err != nil {
									t.Fatalf("%s round %d: %v", strat.Name(), m, err)
								}
								want, _ := strat.(gs.ScratchAggregator).AggregateInto(single, ups, k, 0)
								if len(want.Indices) != len(got.Indices) {
									t.Fatalf("%s round %d: |J| %d vs %d", strat.Name(), m, len(want.Indices), len(got.Indices))
								}
								for i := range want.Indices {
									if want.Indices[i] != got.Indices[i] || want.Values[i] != got.Values[i] {
										t.Fatalf("%s round %d: entry %d: (%d, %v) vs (%d, %v)", strat.Name(), m, i,
											want.Indices[i], want.Values[i], got.Indices[i], got.Values[i])
									}
								}
								// The downlink: every client pulls its broadcast
								// slices (the shards serve until all fetches are
								// answered), and each reassembled B must be the
								// selection bit for bit.
								for ci := 0; ci < n; ci++ {
									rIdx, rVal := fetchAndReassemble(t, clientConns, d, ci, m, len(want.Indices))
									for i := range want.Indices {
										if rIdx[i] != want.Indices[i] || rVal[i] != want.Values[i] {
											t.Fatalf("%s round %d: client %d reassembled entry %d: (%d, %v), want (%d, %v)",
												strat.Name(), m, ci, i, rIdx[i], rVal[i], want.Indices[i], want.Values[i])
										}
									}
								}
							}
							for s, err := range join() {
								if err != nil {
									t.Fatalf("%s: shard %d: %v", strat.Name(), s, err)
								}
							}
						}
					})
				}
			}
		})
	}
}

// fetchAndReassemble runs client ci's downlink for one round through
// the real fetch-gather path (shardFan.fetch) over the harness's
// ingest conns and returns the reassembled B.
func fetchAndReassemble(t *testing.T, clientConns [][]Conn, dim, ci, round, elems int) ([]int, []float64) {
	t.Helper()
	nShards := len(clientConns)
	conns := make([]Conn, nShards)
	bounds := make([]int, nShards+1)
	for s := 0; s < nShards; s++ {
		conns[s] = clientConns[s][ci]
		lo, hi := tensor.ChunkBounds(dim, nShards, s)
		bounds[s], bounds[s+1] = lo, hi
	}
	fan := &shardFan{who: "client", id: ci, conns: conns, bounds: bounds}
	idx, val, err := fan.fetch(round, elems, nil, nil)
	if err != nil {
		t.Fatalf("client %d round %d downlink: %v", ci, round, err)
	}
	return idx, val
}

// rawTCPPairFactory builds plain gob/TCP conn pairs (no handshake —
// the direct harness installs the hellos itself).
func rawTCPPairFactory(t *testing.T) (func() (Conn, Conn), func()) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pair := func() (Conn, Conn) {
		type accepted struct {
			conn Conn
			err  error
		}
		ch := make(chan accepted, 1)
		go func() {
			conn, err := ln.Accept()
			ch <- accepted{conn, err}
		}()
		dialed, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		acc := <-ch
		if acc.err != nil {
			t.Fatal(acc.err)
		}
		return acc.conn, dialed
	}
	return pair, func() { _ = ln.Close() }
}

// directHarness wires a full direct-mode deployment over in-memory
// conns: runServer coordinator (cfg plus the shard tier), RunDirectShard
// shards whose ingest conns are delivered through each client's
// DialShard hook, and RunClient clients. wrapCoord and wrapData
// optionally wrap a client's control conn and data-plane conns (failure
// injection); wrapShard optionally wraps a shard's coordinator control
// conn (failure injection on the shard side); impostor optionally
// replaces one client's RunClient with a custom function.
type directHarness struct {
	serverCs []Conn // coordinator's client conns (hello unconsumed)
	records  []RoundRecord
	srvErr   error
	cliErrs  []error
	shardErr []error
}

func runDirectHarness(t testing.TB, rounds, k, nShards int, cfg ServerConfig,
	wrapCoord func(clientID int, c Conn) Conn,
	wrapData func(clientID, shardID int, c Conn) Conn,
	wrapShard func(shardID int, c Conn) Conn,
	impostor func(id int, coord Conn, dial func(addr string) (Conn, error)) error) *directHarness {
	t.Helper()
	fed, model, initParams := buildWorkload()
	n := fed.NumClients()

	// Shard ingest delivery: the client hook mints a mem pair and hands
	// the shard side to the owning shard's accept queue.
	shardAccept := make([]chan Conn, nShards)
	for s := range shardAccept {
		shardAccept[s] = make(chan Conn, n)
	}
	addrOf := func(s int) string { return fmt.Sprintf("mem-shard-%d", s) }
	dialHook := func(clientID int) func(addr string) (Conn, error) {
		return func(addr string) (Conn, error) {
			for s := 0; s < nShards; s++ {
				if addr == addrOf(s) {
					shardSide, clientSide := NewMemPair()
					var out Conn = clientSide
					if wrapData != nil {
						out = wrapData(clientID, s, clientSide)
					}
					shardAccept[s] <- shardSide
					return out, nil
				}
			}
			return nil, fmt.Errorf("unknown shard address %q", addr)
		}
	}

	h := &directHarness{cliErrs: make([]error, n), shardErr: make([]error, nShards)}
	shardCoordConns := make([]Conn, nShards)
	coordShardConns := make([]Conn, nShards)
	addrs := make([]string, nShards)
	for s := 0; s < nShards; s++ {
		coordShardConns[s], shardCoordConns[s] = NewMemPair()
		if wrapShard != nil {
			shardCoordConns[s] = wrapShard(s, shardCoordConns[s])
		}
		addrs[s] = addrOf(s)
	}
	h.serverCs = make([]Conn, n)
	clientCs := make([]Conn, n)
	for i := range h.serverCs {
		h.serverCs[i], clientCs[i] = NewMemPair()
	}

	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.shardErr[s] = RunDirectShard(shardCoordConns[s], func(nClients int) ([]Peer, error) {
				peers := make([]Peer, 0, nClients)
				for len(peers) < nClients {
					conn := <-shardAccept[s]
					peer, err := AcceptPeer(conn)
					if err != nil {
						return nil, err
					}
					peers = append(peers, peer)
				}
				return peers, nil
			})
		}(s)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			coord := clientCs[id]
			if wrapCoord != nil {
				coord = wrapCoord(id, coord)
			}
			if impostor != nil && id == 0 {
				h.cliErrs[id] = impostor(id, coord, dialHook(id))
			} else {
				h.cliErrs[id] = RunClient(coord, ClientConfig{
					ID:           id,
					Data:         &fed.Clients[id],
					Model:        model,
					LearningRate: 0.1,
					BatchSize:    8,
					Seed:         fl.ClientSeed(5, id),
					DialShard:    dialHook(id),
				})
			}
			_ = clientCs[id].Close()
			_ = h.serverCs[id].Close()
		}(i)
	}
	cfg.K, cfg.Rounds, cfg.InitialParams = k, rounds, initParams
	cfg.ShardConns, cfg.Direct, cfg.ShardAddrs = coordShardConns, true, addrs
	h.records, h.srvErr = runServer(h.serverCs, cfg)
	// Tear everything down so every goroutine joins whether the run
	// succeeded or aborted mid-round.
	for _, c := range h.serverCs {
		_ = c.Close()
	}
	for _, c := range coordShardConns {
		_ = c.Close()
	}
	wg.Wait()
	return h
}

// TestDirectDistributedMatchesReferenceEngine runs the full direct
// protocol — clients uploading range slices straight to two shards, the
// coordinator reduced to control metadata — and requires the training
// trajectory to be bit-identical to the in-process simulation engine
// AND to the unsharded routed deployment with the same seeds.
func TestDirectDistributedMatchesReferenceEngine(t *testing.T) {
	const k, rounds, nShards = 40, 15, 2
	h := runDirectHarness(t, rounds, k, nShards, ServerConfig{}, nil, nil, nil, nil)
	if h.srvErr != nil {
		t.Fatalf("server: %v", h.srvErr)
	}
	for id, err := range h.cliErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	for s, err := range h.shardErr {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}

	fed, model, _ := buildWorkload()
	ref, err := fl.Run(fl.Config{
		Data:         fed,
		Model:        model,
		LearningRate: 0.1,
		BatchSize:    8,
		Rounds:       rounds,
		Seed:         5,
		Strategy:     &gs.FABTopK{},
		Controller:   core.NewFixedK(k),
		Beta:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.records) != len(ref.Stats) {
		t.Fatalf("direct run %d rounds, reference %d", len(h.records), len(ref.Stats))
	}
	for i := range h.records {
		if h.records[i].Loss != ref.Stats[i].Loss {
			t.Fatalf("round %d: direct loss %v != reference %v", i+1, h.records[i].Loss, ref.Stats[i].Loss)
		}
		if h.records[i].DownlinkElems != ref.Stats[i].DownlinkElems {
			t.Fatalf("round %d: downlink %d != %d", i+1, h.records[i].DownlinkElems, ref.Stats[i].DownlinkElems)
		}
	}

	// And against the unsharded routed deployment: same wire protocol
	// family, the aggregation moved onto shards, identical trajectory.
	fed2, model2, initParams2 := buildWorkload()
	routedRecords := runDistributed(t, fed2, model2, initParams2, k, rounds, 0,
		func() (Conn, Conn) { return NewMemPair() })
	for i := range h.records {
		if h.records[i].Loss != routedRecords[i].Loss {
			t.Fatalf("round %d: direct loss %v != routed loss %v", i+1, h.records[i].Loss, routedRecords[i].Loss)
		}
	}
}

// payloadMeter counts, per message type, what a metered endpoint saw,
// and sums the gradient-payload bytes in each direction: uplink payload
// (Upload and SliceUpload carry A_i index/value data) and broadcast
// payload (Broadcast and SliceBroadcast carry B index/value data).
// Everything else is control or selection metadata.
type payloadMeter struct {
	mu             sync.Mutex
	msgs           map[string]int
	payloadBytes   int // uplink A_i payload
	broadcastBytes int // downlink B payload
}

func (m *payloadMeter) observe(msg any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.msgs == nil {
		m.msgs = make(map[string]int)
	}
	switch v := msg.(type) {
	case Upload:
		m.msgs["Upload"]++
		m.payloadBytes += 8*len(v.Idx) + 8*len(v.Val)
	case SliceUpload:
		m.msgs["SliceUpload"]++
		m.payloadBytes += 8*len(v.Idx) + 8*len(v.Val)
	case Broadcast:
		m.msgs["Broadcast"]++
		m.broadcastBytes += 8*len(v.Idx) + 8*len(v.Val)
	case SliceBroadcast:
		m.msgs["SliceBroadcast"]++
		m.broadcastBytes += 8*len(v.Idx) + 8*len(v.Val)
	case RoundMeta:
		m.msgs["RoundMeta"]++
	case ShardResult:
		m.msgs["ShardResult"]++
	case Hello:
		m.msgs["Hello"]++
	case Init:
		m.msgs["Init"]++
	case RoundRelease:
		m.msgs["RoundRelease"]++
	case RoundSeal:
		m.msgs["RoundSeal"]++
	case FillQuery:
		m.msgs["FillQuery"]++
	case SliceFetch:
		m.msgs["SliceFetch"]++
	default:
		m.msgs[fmt.Sprintf("%T", msg)]++
	}
}

// meteredConn meters what the owning endpoint receives (recv) and
// transmits (send); either meter may be nil to leave a direction
// untracked.
type meteredConn struct {
	Conn
	recv *payloadMeter
	send *payloadMeter
}

func (c meteredConn) Recv() (any, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.recv != nil {
		c.recv.observe(msg)
	}
	return msg, err
}

func (c meteredConn) Send(msg any) error {
	err := c.Conn.Send(msg)
	if err == nil && c.send != nil {
		c.send.observe(msg)
	}
	return err
}

// coordMeters is the two-direction metering of one coordinator run:
// what it received (ingress, all peers) and what it transmitted, split
// by peer role.
type coordMeters struct {
	ingress   *payloadMeter
	toClients *payloadMeter
	toShards  *payloadMeter
}

// TestDirectCoordinatorCarriesNoGradientPayload is the acceptance
// criterion of the control-plane demotion, metered in BOTH directions.
// Ingress: the direct coordinator receives zero gradient-payload bytes
// — no Upload, no SliceUpload — only Hello handshakes, per-round
// RoundMeta scalars, and the shard tier's reduction results. Egress: it transmits zero B-payload bytes — no
// Broadcast — only the Init handshake and per-round RoundRelease
// scalars to clients, and the assignment, fill queries, and O(|J|)
// member-index seals to shards. A routed run over the same workload is
// measured as the contrast on both directions.
func TestDirectCoordinatorCarriesNoGradientPayload(t *testing.T) {
	fed, model, initParams := buildWorkload()
	const k, rounds, nShards = 40, 6, 2
	n := fed.NumClients()

	runMetered := func(direct bool) coordMeters {
		meters := coordMeters{ingress: &payloadMeter{}, toClients: &payloadMeter{}, toShards: &payloadMeter{}}
		if direct {
			// Same harness as the trajectory test, but every conn the
			// coordinator reads from or writes to is metered.
			shardAccept := make([]chan Conn, nShards)
			for s := range shardAccept {
				shardAccept[s] = make(chan Conn, n)
			}
			addrs := []string{"mem-shard-0", "mem-shard-1"}
			coordShard := make([]Conn, nShards)
			shardCoord := make([]Conn, nShards)
			for s := 0; s < nShards; s++ {
				a, b := NewMemPair()
				coordShard[s], shardCoord[s] = meteredConn{a, meters.ingress, meters.toShards}, b
			}
			serverCs := make([]Conn, n)
			clientCs := make([]Conn, n)
			for i := range serverCs {
				a, b := NewMemPair()
				serverCs[i], clientCs[i] = meteredConn{a, meters.ingress, meters.toClients}, b
			}
			var wg sync.WaitGroup
			for s := 0; s < nShards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					_ = RunDirectShard(shardCoord[s], func(nClients int) ([]Peer, error) {
						peers := make([]Peer, 0, nClients)
						for len(peers) < nClients {
							peer, err := AcceptPeer(<-shardAccept[s])
							if err != nil {
								return nil, err
							}
							peers = append(peers, peer)
						}
						return peers, nil
					})
				}(s)
			}
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					_ = RunClient(clientCs[id], ClientConfig{
						ID: id, Data: &fed.Clients[id], Model: model,
						LearningRate: 0.1, BatchSize: 8, Seed: fl.ClientSeed(5, id),
						DialShard: func(addr string) (Conn, error) {
							for s, a := range addrs {
								if a == addr {
									shardSide, clientSide := NewMemPair()
									shardAccept[s] <- shardSide
									return clientSide, nil
								}
							}
							return nil, fmt.Errorf("unknown shard %q", addr)
						},
					})
				}(i)
			}
			if _, err := runServer(serverCs, ServerConfig{
				K: k, Rounds: rounds, InitialParams: initParams,
				ShardConns: coordShard, Direct: true, ShardAddrs: addrs,
			}); err != nil {
				t.Fatalf("direct server: %v", err)
			}
			wg.Wait()
			return meters
		}
		serverCs := make([]Conn, n)
		clientCs := make([]Conn, n)
		for i := range serverCs {
			a, b := NewMemPair()
			serverCs[i], clientCs[i] = meteredConn{a, meters.ingress, meters.toClients}, b
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				_ = RunClient(clientCs[id], ClientConfig{
					ID: id, Data: &fed.Clients[id], Model: model,
					LearningRate: 0.1, BatchSize: 8, Seed: fl.ClientSeed(5, id),
				})
			}(i)
		}
		if _, err := runServer(serverCs, ServerConfig{K: k, Rounds: rounds, InitialParams: initParams}); err != nil {
			t.Fatalf("routed server: %v", err)
		}
		wg.Wait()
		return meters
	}

	direct := runMetered(true)
	// Ingress: zero uplink payload.
	if direct.ingress.payloadBytes != 0 {
		t.Fatalf("direct coordinator received %d gradient-payload bytes (messages: %v)",
			direct.ingress.payloadBytes, direct.ingress.msgs)
	}
	for _, forbidden := range []string{"Upload", "SliceUpload"} {
		if c := direct.ingress.msgs[forbidden]; c != 0 {
			t.Fatalf("direct coordinator received %d %s messages: %v", c, forbidden, direct.ingress.msgs)
		}
	}
	if got, want := direct.ingress.msgs["RoundMeta"], n*rounds; got != want {
		t.Fatalf("direct coordinator saw %d RoundMeta messages, want %d", got, want)
	}
	if got, want := direct.ingress.msgs["ShardResult"], nShards*rounds; got != want {
		t.Fatalf("direct coordinator saw %d ShardResult messages, want %d", got, want)
	}
	// Egress to clients: zero B payload — the Init handshake plus one
	// RoundRelease per client per round, nothing else.
	if direct.toClients.broadcastBytes != 0 || direct.toClients.msgs["Broadcast"] != 0 {
		t.Fatalf("direct coordinator sent %d B-payload bytes to clients (messages: %v)",
			direct.toClients.broadcastBytes, direct.toClients.msgs)
	}
	if got, want := direct.toClients.msgs["RoundRelease"], n*rounds; got != want {
		t.Fatalf("direct coordinator sent %d RoundRelease messages, want %d", got, want)
	}
	if got, want := direct.toClients.msgs["Init"], n; got != want {
		t.Fatalf("direct coordinator sent %d Init messages, want %d", got, want)
	}
	if total := countMsgs(direct.toClients); total != n+n*rounds {
		t.Fatalf("direct coordinator sent %d client messages, want %d (Init + releases): %v",
			total, n+n*rounds, direct.toClients.msgs)
	}
	// Egress to shards: member-index seals, never value payload.
	if direct.toShards.broadcastBytes != 0 {
		t.Fatalf("direct coordinator sent %d B-payload bytes to shards (messages: %v)",
			direct.toShards.broadcastBytes, direct.toShards.msgs)
	}
	if got, want := direct.toShards.msgs["RoundSeal"], nShards*rounds; got != want {
		t.Fatalf("direct coordinator sent %d RoundSeal messages, want %d", got, want)
	}

	routed := runMetered(false)
	if routed.ingress.payloadBytes == 0 || routed.ingress.msgs["Upload"] != n*rounds {
		t.Fatalf("contrast broken: routed coordinator saw %d payload bytes, %v",
			routed.ingress.payloadBytes, routed.ingress.msgs)
	}
	if routed.toClients.broadcastBytes == 0 || routed.toClients.msgs["Broadcast"] != n*rounds {
		t.Fatalf("contrast broken: routed coordinator sent %d B-payload bytes, %v",
			routed.toClients.broadcastBytes, routed.toClients.msgs)
	}
}

// countMsgs sums a meter's per-type message counts.
func countMsgs(m *payloadMeter) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, c := range m.msgs {
		total += c
	}
	return total
}

// TestDirectShardDeathFailsRound injects a shard death after a partial
// slice fan-out: every client's data conns to shard 1 die mid-run, so a
// client can have delivered its round slice to shard 0 and then fail on
// shard 1. The run must error out everywhere — coordinator, clients —
// and every goroutine must join; nothing may wedge on the barrier.
func TestDirectShardDeathFailsRound(t *testing.T) {
	h := runDirectHarness(t, 30, 20, 2, ServerConfig{}, nil, func(clientID, shardID int, c Conn) Conn {
		if shardID == 1 {
			// Hello + two round slices succeed, then the link is dead.
			return NewFaultConn(c, FaultFailSend, 3, 1)
		}
		return c
	}, nil, nil)
	if h.srvErr == nil {
		t.Fatal("server completed despite shard-1 links dying")
	}
	anyInjected := false
	for _, err := range h.cliErrs {
		anyInjected = anyInjected || errors.Is(err, ErrInjected)
	}
	if !anyInjected {
		t.Fatalf("no client surfaced the injected data-plane failure: %v", h.cliErrs)
	}
}

// TestDirectClientDeathBetweenSlices kills a client between its per-shard
// slice sends: it uploads its round-1 slice to shard 0, skips shard 1,
// and dies. Shard 1's barrier must error on the dead connection (not
// wedge), and the coordinator must fail the round.
func TestDirectClientDeathBetweenSlices(t *testing.T) {
	h := runDirectHarness(t, 5, 20, 2, ServerConfig{}, nil, nil, nil,
		func(id int, coord Conn, dial func(addr string) (Conn, error)) error {
			if err := coord.Send(Hello{ClientID: id, Members: []int{id}, Weights: []float64{30}}); err != nil {
				return err
			}
			msg, err := coord.Recv()
			if err != nil {
				return err
			}
			init := msg.(Init)
			conns := make([]Conn, len(init.Shards))
			for s, addr := range init.Shards {
				conn, err := dial(addr)
				if err != nil {
					return err
				}
				conns[s] = conn
				if err := conn.Send(DataHello{ClientID: id, ShardID: s, NumShards: len(init.Shards), Dim: len(init.Params), Members: []int{id}}); err != nil {
					return err
				}
			}
			// One slice to shard 0, then die with shard 1 unserved.
			if err := conns[0].Send(SliceUpload{ClientID: id, Round: 1, Idx: []int{0}, Val: []float64{1}, Rank: []int{0}}); err != nil {
				return err
			}
			for _, c := range conns {
				_ = c.Close()
			}
			return errors.New("client died between slices")
		})
	if h.srvErr == nil {
		t.Fatal("server completed despite a client dying between slices")
	}
	if h.shardErr[1] == nil || !strings.Contains(h.shardErr[1].Error(), "recv from client") {
		t.Fatalf("shard 1 did not surface the broken barrier: %v", h.shardErr[1])
	}
}

// TestDirectHostDeathBetweenSlices is the population plane's row of
// TestDirectClientDeathBetweenSlices: one host carries both drawn
// members, uploads member 0's slice and dies before member 1's. The
// shard's cohort barrier must fail the round naming the member and its
// host, not wedge.
func TestDirectHostDeathBetweenSlices(t *testing.T) {
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 2, Weights: []float64{1, 2}}
	err := shardTierNamed("population").run(t, assign, func(members, host []Conn, _ Conn) {
		_ = members[0].Send(SliceUpload{ClientID: 0, Round: 1, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}})
		_ = host[0].Close()
	})
	if want := "shard 0 round 1 recv from member 1: via host 0"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want substring %q", err, want)
	}
}

// sealInterceptor injects a shard death between seal and serve: the
// wrapped control conn delivers every message except the RoundSeal,
// which it converts into a connection failure — the shard dies with the
// round sealed at the coordinator but its downlink never served.
type sealInterceptor struct{ Conn }

func (c sealInterceptor) Recv() (any, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return msg, err
	}
	if _, ok := msg.(RoundSeal); ok {
		return nil, ErrInjected
	}
	return msg, nil
}

// TestDirectShardDeathBetweenSealAndServe kills shard 1 in the gap the
// downlink barrier must cover: the coordinator has sealed the round
// (and released the clients), but the shard dies before serving a
// single slice. Every client must surface the dead downlink as an
// error on its fetch, the coordinator must fail the run, and every
// goroutine must join — nothing may wedge waiting for a slice that
// will never come.
func TestDirectShardDeathBetweenSealAndServe(t *testing.T) {
	h := runDirectHarness(t, 5, 20, 2, ServerConfig{}, nil, nil, func(shardID int, c Conn) Conn {
		if shardID == 1 {
			return sealInterceptor{c}
		}
		return c
	}, nil)
	if h.srvErr == nil {
		t.Fatal("server completed despite shard 1 dying between seal and serve")
	}
	if !errors.Is(h.shardErr[1], ErrInjected) {
		t.Fatalf("shard 1 exit error %v, want the injected seal failure", h.shardErr[1])
	}
	// A client meets the dead link at whichever step of its shard-1 fetch
	// gets there first — the SliceFetch send or the slice recv; which
	// syscall notices is the scheduler's choice, not the contract.
	anyFetch := false
	for _, err := range h.cliErrs {
		anyFetch = anyFetch || (err != nil && (strings.Contains(err.Error(), "fetch to shard 1") ||
			strings.Contains(err.Error(), "slice recv from shard 1")))
	}
	if !anyFetch {
		t.Fatalf("no client surfaced the dead downlink: %v", h.cliErrs)
	}
}

// TestDirectClientDeathMidFetch kills a client halfway through its
// downlink fan-in: it completes the round-1 uplink (slices + metadata),
// receives the release, pulls shard 0's slice, and dies without ever
// fetching from shard 1. Shard 1's downlink serve must error on the
// dead connection (not wedge), and the coordinator must fail the round.
func TestDirectClientDeathMidFetch(t *testing.T) {
	h := runDirectHarness(t, 5, 20, 2, ServerConfig{}, nil, nil, nil,
		func(id int, coord Conn, dial func(addr string) (Conn, error)) error {
			if err := coord.Send(Hello{ClientID: id, Members: []int{id}, Weights: []float64{30}}); err != nil {
				return err
			}
			msg, err := coord.Recv()
			if err != nil {
				return err
			}
			init := msg.(Init)
			conns := make([]Conn, len(init.Shards))
			for s, addr := range init.Shards {
				conn, err := dial(addr)
				if err != nil {
					return err
				}
				conns[s] = conn
				if err := conn.Send(DataHello{ClientID: id, ShardID: s, NumShards: len(init.Shards), Dim: len(init.Params), Members: []int{id}}); err != nil {
					return err
				}
			}
			// A complete round-1 uplink: empty slices are valid uploads.
			for _, c := range conns {
				if err := c.Send(SliceUpload{ClientID: id, Round: 1}); err != nil {
					return err
				}
			}
			if err := coord.Send(RoundMeta{ClientID: id, Round: 1, BatchLoss: 1, UploadLen: 0}); err != nil {
				return err
			}
			if _, err := coord.Recv(); err != nil { // the release
				return err
			}
			// Fetch shard 0's slice, then die with shard 1 unfetched.
			if err := conns[0].Send(SliceFetch{ClientID: id, Round: 1}); err != nil {
				return err
			}
			_, _ = conns[0].Recv()
			for _, c := range conns {
				_ = c.Close()
			}
			return errors.New("client died mid-fetch")
		})
	if h.srvErr == nil {
		t.Fatal("server completed despite a client dying mid-fetch")
	}
	if h.shardErr[1] == nil || !strings.Contains(h.shardErr[1].Error(), "downlink serve recv") {
		t.Fatalf("shard 1 did not surface the broken downlink serve: %v", h.shardErr[1])
	}
}

// TestDirectHostDeathMidFetch is the population plane's row of
// TestDirectClientDeathMidFetch: the host completes round 1's uplink
// for both members, the round seals, and the host dies with this
// shard's slice unfetched. The serve must fail the round naming the
// host, not wedge.
func TestDirectHostDeathMidFetch(t *testing.T) {
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 2, Weights: []float64{1, 2}}
	err := shardTierNamed("population").run(t, assign, func(members, host []Conn, coord Conn) {
		_ = members[0].Send(SliceUpload{ClientID: 0, Round: 1, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}})
		_ = members[1].Send(SliceUpload{ClientID: 1, Round: 1})
		if msg, err := coord.Recv(); err != nil {
			t.Errorf("no round-1 result: %v (%T)", err, msg)
		}
		_ = coord.Send(RoundSeal{Round: 1, Members: []int{3}})
		_ = host[0].Close()
	})
	if want := "shard 0 round 1 downlink serve recv from host 0"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want substring %q", err, want)
	}
}

// directShardHarness drives RunDirectShard directly: send the assign,
// deliver fabricated data peers, then feed scripted client messages and
// return the shard's exit error.
func directShardHarness(t *testing.T, assign ShardAssign, peers func(n int) []Peer,
	script func(clientSides []Conn, coord Conn)) error {
	t.Helper()
	coordServer, coordShard := NewMemPair()
	n := len(assign.Weights)
	var clientSides []Conn
	builtPeers := []Peer(nil)
	if peers != nil {
		builtPeers = peers(n)
	} else {
		for ci := 0; ci < n; ci++ {
			shardSide, clientSide := NewMemPair()
			clientSides = append(clientSides, clientSide)
			builtPeers = append(builtPeers, Peer{
				Conn: shardSide,
				Data: &DataHello{ClientID: ci, ShardID: assign.ShardID, NumShards: assign.NumShards, Dim: assign.Dim, Members: []int{ci}},
			})
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- RunDirectShard(coordShard, func(int) ([]Peer, error) { return builtPeers, nil })
	}()
	if err := coordServer.Send(assign); err != nil {
		t.Fatal(err)
	}
	if script != nil {
		script(clientSides, coordServer)
	}
	err := <-done
	_ = coordServer.Close()
	for _, c := range clientSides {
		_ = c.Close()
	}
	return err
}

// shardTier is one ingest tier of the direct shard as the hostile-input
// tables drive it: the same two-client, shard-0-of-2 deployment behind
// the lockstep barrier, the same barrier one round deep (W = 1), the
// durable re-seating desk, or one population host carrying both
// members. peer and fetcher are the nouns the tier's errors name an
// uploader and a downlink reader by; window is how many rounds a script
// must seal after round 1 before round 1's fetches are served; want
// overrides a row's expected error where the tier's ingest POLICY — not
// the shared round — legitimately answers differently ("" = the row
// cannot be posed on this tier).
type shardTier struct {
	name          string
	peer, fetcher string
	window        int
	want          map[string]string
	// run starts the shard and hands the script its scripted ends:
	// clients[ci] carries client/member ci's uploads, fetchers[ci] its
	// downlink pulls, coord is the coordinator's side. It returns the
	// shard's exit error.
	run func(t *testing.T, assign ShardAssign, script func(clients, fetchers []Conn, coord Conn)) error
}

// awaitShard bounds a scripted shard run: a hostile input must fail the
// round, never wedge it.
func awaitShard(t *testing.T, done <-chan error, closers ...Conn) error {
	t.Helper()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Error("shard wedged on scripted input")
	}
	for _, c := range closers {
		_ = c.Close()
	}
	return err
}

func shardTiers() []shardTier {
	plain := func(window int) func(*testing.T, ShardAssign, func(clients, fetchers []Conn, coord Conn)) error {
		return func(t *testing.T, assign ShardAssign, script func(clients, fetchers []Conn, coord Conn)) error {
			assign.Window = window
			return directShardHarness(t, assign, nil, func(clients []Conn, coord Conn) { script(clients, clients, coord) })
		}
	}
	durable := func(t *testing.T, assign ShardAssign, script func(clients, fetchers []Conn, coord Conn)) error {
		coordServer, coordShard := NewMemPair()
		n := len(assign.Weights)
		acc := make(chan Conn, n)
		clients := make([]Conn, n)
		for ci := range clients {
			shardSide, clientSide := NewMemPair()
			clients[ci] = clientSide
			_ = clientSide.Send(DataHello{ClientID: ci, ShardID: assign.ShardID, NumShards: assign.NumShards, Dim: assign.Dim, Members: []int{ci}})
			acc <- shardSide
		}
		dialed := false
		done := make(chan error, 1)
		go func() {
			done <- RunDurableDirectShard(DurableShardConfig{
				RunID: 7, ShardID: assign.ShardID, Addr: "mem",
				Dial: func() (Conn, error) {
					if dialed {
						return nil, errors.New("scripted coordinator accepts no redial")
					}
					dialed = true
					return coordShard, nil
				},
				AcceptData: func() (Conn, error) {
					conn, ok := <-acc
					if !ok {
						return nil, errors.New("ingest closed")
					}
					return conn, nil
				},
			})
		}()
		if _, err := coordServer.Recv(); err != nil { // the ShardHello
			t.Fatal(err)
		}
		if err := coordServer.Send(assign); err != nil {
			t.Fatal(err)
		}
		script(clients, clients, coordServer)
		err := awaitShard(t, done, append(clients, coordServer)...)
		close(acc)
		return err
	}
	population := func(t *testing.T, assign ShardAssign, script func(clients, fetchers []Conn, coord Conn)) error {
		// One host (id 0) carries both members: uploads travel on the
		// members' enveloped streams, fetches at host level.
		assign.NumHosts = 1
		coordServer, coordShard := NewMemPair()
		shardSide, hostSide := NewMemPair()
		n := len(assign.Weights)
		members := make([]int, n)
		mux := NewMux(hostSide)
		clients, fetchers := make([]Conn, n), make([]Conn, n)
		for ci := range members {
			members[ci] = ci
			clients[ci], fetchers[ci] = mux.Virtual(ci), mux
		}
		peers := []Peer{{Conn: shardSide, Data: &DataHello{ShardID: assign.ShardID, NumShards: assign.NumShards, Dim: assign.Dim, Members: members}}}
		done := make(chan error, 1)
		go func() {
			done <- RunDirectShard(coordShard, func(int) ([]Peer, error) { return peers, nil })
		}()
		if err := coordServer.Send(assign); err != nil {
			t.Fatal(err)
		}
		if err := coordServer.Send(CohortAssign{Round: 1, Members: members}); err != nil {
			t.Fatal(err)
		}
		script(clients, fetchers, coordServer)
		return awaitShard(t, done, coordServer, hostSide)
	}
	return []shardTier{
		{name: "lockstep", peer: "client", fetcher: "client", run: plain(0)},
		{name: "windowed", peer: "client", fetcher: "client", window: 1, run: plain(1), want: map[string]string{
			// One round deep, round 2's upload is owed before round 1's
			// fetch: that is where the duplicate is read.
			"duplicate slice upload": "shard 0 round 2: stale slice from client 0 (round 1)",
		}},
		{name: "durable", peer: "client", fetcher: "client", run: durable, want: map[string]string{
			// A re-seated client replays its ring, so a repeated round-m
			// slice during the round-m serve is a stale resend by design.
			"duplicate slice upload": "",
		}},
		{name: "population", peer: "member", fetcher: "host", run: population, want: map[string]string{
			// Fetches are per host, and this deployment has one.
			"fetch identity forgery": "fetch on host 0's connection claims host 1",
		}},
	}
}

// shardTierNamed returns one tier of shardTiers.
func shardTierNamed(name string) shardTier {
	for _, tier := range shardTiers() {
		if tier.name == name {
			return tier
		}
	}
	panic("no shard tier " + name)
}

// expect resolves a row's expected error for the tier: its override,
// or the shared text with the tier's nouns.
func (tier shardTier) expect(row, want string) (string, bool) {
	if over, ok := tier.want[row]; ok {
		return over, over != ""
	}
	return strings.NewReplacer("{peer}", tier.peer, "{fetcher}", tier.fetcher).Replace(want), true
}

// TestRunDirectShardRejectsMalformed covers the ingest validation on
// every tier: duplicate and overlapping slices, out-of-range
// coordinates, broken rank order, identity forgery, and stale rounds
// must each error the round as the same protocol failure — naming the
// shard, the round, and the client or member — whichever ingest policy
// carried the slice to the shared round.
func TestRunDirectShardRejectsMalformed(t *testing.T) {
	// Shard 0 of 2 over dim 10 owns [0, 5).
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 2, Weights: []float64{1, 2}}
	cases := []struct {
		name string
		up   any
		want string
	}{
		{"overlapping coordinates in one slice", SliceUpload{ClientID: 0, Round: 1, Idx: []int{3, 3}, Val: []float64{1, 2}, Rank: []int{0, 1}}, "shard 0 round 1: {peer} 0 slice: gs: duplicate index 3"},
		{"coordinate outside the owned range", SliceUpload{ClientID: 0, Round: 1, Idx: []int{7}, Val: []float64{1}, Rank: []int{0}}, "shard 0 round 1: {peer} 0 slice: gs: index 7 outside range"},
		{"negative coordinate", SliceUpload{ClientID: 0, Round: 1, Idx: []int{-2}, Val: []float64{1}, Rank: []int{0}}, "shard 0 round 1: {peer} 0 slice: gs: index -2 outside range"},
		{"ranks not ascending", SliceUpload{ClientID: 0, Round: 1, Idx: []int{3, 4}, Val: []float64{1, 2}, Rank: []int{2, 1}}, "shard 0 round 1: {peer} 0 slice: gs: ranks not ascending"},
		{"ragged shape", SliceUpload{ClientID: 0, Round: 1, Idx: []int{3, 4}, Val: []float64{1}, Rank: []int{0, 1}}, "shard 0 round 1: {peer} 0 slice: gs: inconsistent"},
		{"non-finite value", SliceUpload{ClientID: 0, Round: 1, Idx: []int{3, 4}, Val: []float64{1, math.NaN()}, Rank: []int{0, 1}}, "shard 0 round 1: {peer} 0 slice: gs: non-finite value NaN at index 4"},
		{"identity forgery", SliceUpload{ClientID: 1, Round: 1, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}, "shard 0 round 1: slice on {peer} 0's connection claims {peer} 1"},
		{"quantization mismatch", SliceUpload{ClientID: 0, Round: 1, Bits: 8, Scale: 1}, "shard 0 round 1: {peer} 0 slice at 8-bit quantization, run uses 0"},
		{"stale round", SliceUpload{ClientID: 0, Round: 4, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}, "shard 0 round 1: stale slice from {peer} 0 (round 4)"},
		{"non-slice message", Hello{ClientID: 0}, "shard 0 round 1: {peer} 0 sent transport.Hello, want SliceUpload"},
	}
	tiers := shardTiers()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range tiers {
				want, ok := tier.expect(tc.name, tc.want)
				if !ok {
					continue
				}
				t.Run(tier.name, func(t *testing.T) {
					err := tier.run(t, assign, func(clients, _ []Conn, _ Conn) {
						_ = clients[0].Send(tc.up)
						_ = clients[1].Send(SliceUpload{ClientID: 1, Round: 1})
					})
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error %v, want substring %q", err, want)
					}
				})
			}
		})
	}

	t.Run("duplicate slice upload", func(t *testing.T) {
		// A client double-sends its round-1 slice; the duplicate is the
		// next thing on its conn where a fetch (or, one round deep, the
		// round-2 slice) is owed, and must fail as a protocol error, not
		// silently double-count.
		for _, tier := range tiers {
			want, ok := tier.expect("duplicate slice upload", "shard 0 round 1: {fetcher} 0 sent transport.SliceUpload, want SliceFetch")
			if !ok {
				continue
			}
			t.Run(tier.name, func(t *testing.T) {
				err := tier.run(t, assign, func(clients, fetchers []Conn, coord Conn) {
					up := SliceUpload{ClientID: 0, Round: 1, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}}
					_ = clients[0].Send(up)
					_ = clients[1].Send(SliceUpload{ClientID: 1, Round: 1})
					if tier.name == "population" {
						// Member streams are read only at the barrier:
						// the host-level link is where the serve reads.
						_ = fetchers[0].Send(up)
					} else {
						_ = clients[0].Send(up) // the duplicate
					}
					if msg, err := coord.Recv(); err != nil {
						t.Errorf("no round-1 result: %v (%T)", err, msg)
					}
					_ = coord.Send(RoundSeal{Round: 1, Members: []int{3}})
				})
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("error %v, want substring %q", err, want)
				}
			})
		}
	})
}

// TestRunDirectShardRejectsBadSeal covers the shard's trust boundary on
// the downlink, on every tier: a corrupted seal (members outside the
// range, out of order, never uploaded, for the wrong round, or with a
// quantization scale that is not a finite non-negative real) must error
// the round before any client can read a slice built from it, and
// malformed or stale fetches must fail the serve instead of being
// answered.
func TestRunDirectShardRejectsBadSeal(t *testing.T) {
	// Shard 0 of 2 over dim 10 owns [0, 5); client 0 uploads coordinate
	// 3, client 1 nothing.
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 2, Weights: []float64{1, 2}}
	roundOne := func(clients []Conn, coord Conn, t *testing.T) {
		_ = clients[0].Send(SliceUpload{ClientID: 0, Round: 1, Idx: []int{3}, Val: []float64{1}, Rank: []int{0}})
		_ = clients[1].Send(SliceUpload{ClientID: 1, Round: 1})
		if msg, err := coord.Recv(); err != nil {
			t.Errorf("no round-1 result: %v (%T)", err, msg)
		}
	}
	sealCases := []struct {
		name string
		seal any
		want string
	}{
		{"member outside the owned range", RoundSeal{Round: 1, Members: []int{7}}, "shard 0 round 1 seal: gs: sealed member 7 out of order or outside range"},
		{"members out of order", RoundSeal{Round: 1, Members: []int{3, 3}}, "shard 0 round 1 seal: gs: sealed member 3 out of order"},
		{"member never uploaded", RoundSeal{Round: 1, Members: []int{2}}, "shard 0 round 1 seal: gs: sealed member 2 was never uploaded"},
		{"stale seal round", RoundSeal{Round: 2, Members: []int{3}}, "shard 0 round 1: stale round seal (round 2)"},
		{"seal width mismatch", RoundSeal{Round: 1, Members: []int{3}, Bits: 8, Scale: 1}, "shard 0 round 1: seal at 8-bit quantization, run uses 0"},
		{"NaN seal scale", RoundSeal{Round: 1, Members: []int{3}, Scale: math.NaN()}, "shard 0 round 1: seal scale NaN is not a finite non-negative real"},
		{"infinite seal scale", RoundSeal{Round: 1, Members: []int{3}, Scale: math.Inf(1)}, "shard 0 round 1: seal scale +Inf is not a finite non-negative real"},
		{"negative seal scale", RoundSeal{Round: 1, Members: []int{3}, Scale: -1}, "shard 0 round 1: seal scale -1 is not a finite non-negative real"},
		{"non-control message", Hello{ClientID: 0}, "shard 0 round 1: expected FillQuery or RoundSeal, got transport.Hello"},
	}
	fetchCases := []struct {
		name  string
		fetch any
		want  string
	}{
		{"stale fetch round", SliceFetch{ClientID: 0, Round: 9}, "shard 0 round 1: stale fetch from {fetcher} 0 (round 9)"},
		{"fetch identity forgery", SliceFetch{ClientID: 1, Round: 1}, "shard 0 round 1: fetch on {fetcher} 0's connection claims {fetcher} 1"},
		{"non-fetch message", Hello{ClientID: 0}, "shard 0 round 1: {fetcher} 0 sent transport.Hello, want SliceFetch"},
	}
	tiers := shardTiers()
	for _, tc := range sealCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range tiers {
				want, ok := tier.expect(tc.name, tc.want)
				if !ok {
					continue
				}
				t.Run(tier.name, func(t *testing.T) {
					err := tier.run(t, assign, func(clients, _ []Conn, coord Conn) {
						roundOne(clients, coord, t)
						_ = coord.Send(tc.seal)
					})
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error %v, want substring %q", err, want)
					}
				})
			}
		})
	}
	for _, tc := range fetchCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tier := range tiers {
				want, ok := tier.expect(tc.name, tc.want)
				if !ok {
					continue
				}
				t.Run(tier.name, func(t *testing.T) {
					err := tier.run(t, assign, func(clients, fetchers []Conn, coord Conn) {
						roundOne(clients, coord, t)
						_ = coord.Send(RoundSeal{Round: 1, Members: []int{3}})
						// A W-deep shard serves round 1 after sealing W more.
						for r := 2; r <= 1+tier.window; r++ {
							for ci, c := range clients {
								_ = c.Send(SliceUpload{ClientID: ci, Round: r})
							}
							if msg, err := coord.Recv(); err != nil {
								t.Errorf("no round-%d result: %v (%T)", r, err, msg)
							}
							_ = coord.Send(RoundSeal{Round: r})
						}
						_ = fetchers[0].Send(tc.fetch)
					})
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error %v, want substring %q", err, want)
					}
				})
			}
		})
	}
}

// scriptedDownlink runs shardFan.fetch for client 0 over two
// fabricated shards (dim 10, ranges [0, 5) and [5, 10)) whose replies
// are scripted, and returns the client-side error.
func scriptedDownlink(elems int, replies ...any) error {
	nShards := len(replies)
	conns := make([]Conn, nShards)
	bounds := make([]int, nShards+1)
	for s, reply := range replies {
		lo, hi := tensor.ChunkBounds(10, nShards, s)
		bounds[s], bounds[s+1] = lo, hi
		shardSide, clientSide := NewMemPair()
		conns[s] = clientSide
		go func(c Conn, reply any) {
			if _, err := c.Recv(); err != nil { // the fetch
				return
			}
			_ = c.Send(reply)
		}(shardSide, reply)
	}
	fan := &shardFan{who: "client", conns: conns, bounds: bounds}
	_, _, err := fan.fetch(1, elems, nil, nil)
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

// TestFetchBroadcastSlicesRejectsMalformed covers the client's trust
// boundary on the downlink — the per-round epoch guard and the slice
// validation: stale rounds, forged shard identities, ragged or
// truncated slices, and out-of-range or unsorted coordinates must each
// error the round, never silently apply a corrupted broadcast.
func TestFetchBroadcastSlicesRejectsMalformed(t *testing.T) {
	ok0 := SliceBroadcast{Round: 1, ShardID: 0, Idx: []int{2}, Val: []float64{0.5}}
	ok1 := SliceBroadcast{Round: 1, ShardID: 1, Idx: []int{7}, Val: []float64{1.5}}
	if err := scriptedDownlink(2, ok0, ok1); err != nil {
		t.Fatalf("well-formed downlink rejected: %v", err)
	}
	cases := []struct {
		name   string
		reply0 any
		elems  int
		want   string
	}{
		{"stale round", SliceBroadcast{Round: 0, ShardID: 0, Idx: []int{2}, Val: []float64{0.5}}, 2, "stale broadcast slice"},
		{"forged shard identity", SliceBroadcast{Round: 1, ShardID: 1, Idx: []int{2}, Val: []float64{0.5}}, 2, "claims shard"},
		{"ragged slice", SliceBroadcast{Round: 1, ShardID: 0, Idx: []int{2, 3}, Val: []float64{0.5}}, 3, "shape"},
		{"coordinate outside the shard range", SliceBroadcast{Round: 1, ShardID: 0, Idx: []int{7}, Val: []float64{0.5}}, 2, "out of order or range"},
		{"unsorted coordinates", SliceBroadcast{Round: 1, ShardID: 0, Idx: []int{3, 2}, Val: []float64{0.5, 0.5}}, 3, "out of order"},
		{"truncated slice", SliceBroadcast{Round: 1, ShardID: 0, Idx: []int{2}, Val: []float64{0.5}}, 3, "truncated"},
		{"non-broadcast message", Hello{ClientID: 0}, 2, "want SliceBroadcast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := scriptedDownlink(tc.elems, tc.reply0, ok1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunDirectShardRejectsStaleDirectory pins the data-plane handshake:
// a client acting on a stale shard directory — wrong shard count, wrong
// dimension, or a connection aimed at the wrong shard — must be turned
// away before it can corrupt a barrier, as must duplicate or unknown
// client identities.
func TestRunDirectShardRejectsStaleDirectory(t *testing.T) {
	assign := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 1, Weights: []float64{1, 2}}
	mk := func(hellos ...DataHello) func(n int) []Peer {
		return func(int) []Peer {
			peers := make([]Peer, len(hellos))
			for i := range hellos {
				shardSide, _ := NewMemPair()
				h := hellos[i]
				peers[i] = Peer{Conn: shardSide, Data: &h}
			}
			return peers
		}
	}
	good := DataHello{ClientID: 1, ShardID: 0, NumShards: 2, Dim: 10, Members: []int{1}}
	cases := []struct {
		name  string
		peers func(n int) []Peer
		want  string
	}{
		{"wrong shard count", mk(DataHello{ClientID: 0, ShardID: 0, NumShards: 4, Dim: 10, Members: []int{0}}, good), "stale shard directory"},
		{"wrong dimension", mk(DataHello{ClientID: 0, ShardID: 0, NumShards: 2, Dim: 64, Members: []int{0}}, good), "stale shard directory"},
		{"aimed at the wrong shard", mk(DataHello{ClientID: 0, ShardID: 1, NumShards: 2, Dim: 10, Members: []int{0}}, good), "stale shard directory"},
		{"duplicate client", mk(good, good), "duplicate client"},
		{"client id out of range", mk(DataHello{ClientID: 7, ShardID: 0, NumShards: 2, Dim: 10, Members: []int{7}}, good), "out of range"},
		{"missing client", mk(good), "no ingest connection"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := directShardHarness(t, assign, tc.peers, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDirectGroupRejectsBadReplies covers the coordinator-side trust
// boundary: malformed shard results and fill candidates fail as
// protocol errors, never as selection corruption.
func TestDirectGroupRejectsBadReplies(t *testing.T) {
	run := func(shardBehavior func(conn Conn)) error {
		server, fake := NewMemPair()
		go func() {
			if _, err := fake.Recv(); err != nil { // ShardAssign
				return
			}
			shardBehavior(fake)
		}()
		g, err := NewDirectGroup([]Conn{server}, 10, 1, []float64{1, 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = g.Aggregate(&gs.FABTopK{}, 1, 2, 3)
		_ = g.Close()
		return err
	}

	if err := run(func(c Conn) {
		_ = c.Send(ShardResult{Round: 1, ShardID: 0, Idx: []int{2}, Sum: []float64{1}, MinRank: []int{5}})
	}); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("over-maxLen rank accepted: %v", err)
	}

	if err := run(func(c Conn) {
		_ = c.Send(ShardResult{Round: 1, ShardID: 0, Idx: []int{2}, Sum: []float64{1}, MinRank: []int{-1}})
	}); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("negative rank accepted: %v", err)
	}

	if err := run(func(c Conn) {
		_ = c.Send(ShardResult{Round: 1, ShardID: 0, Idx: []int{4, 2}, Sum: []float64{1, 1}, MinRank: []int{0, 0}})
	}); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("unsorted result accepted: %v", err)
	}

	badFill := func(fc FillCandidates) error {
		return run(func(c Conn) {
			// One real coordinate at rank 0 keeps κ = 0 and forces a fill.
			_ = c.Send(ShardResult{Round: 1, ShardID: 0, Idx: []int{2}, Sum: []float64{1}, MinRank: []int{1}})
			if _, err := c.Recv(); err != nil { // FillQuery
				return
			}
			_ = c.Send(fc)
		})
	}
	if err := badFill(FillCandidates{Round: 1, ShardID: 0, Client: []int{5}, Idx: []int{2}, AbsVal: []float64{1}}); err == nil ||
		!strings.Contains(err.Error(), "client") {
		t.Fatalf("out-of-range fill client accepted: %v", err)
	}
	if err := badFill(FillCandidates{Round: 1, ShardID: 0, Client: []int{0}, Idx: []int{99}, AbsVal: []float64{1}}); err == nil ||
		!strings.Contains(err.Error(), "outside its range") {
		t.Fatalf("out-of-range fill index accepted: %v", err)
	}
	if err := badFill(FillCandidates{Round: 1, ShardID: 0, Client: []int{0}, Idx: []int{2}, AbsVal: []float64{-1}}); err == nil ||
		!strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative fill magnitude accepted: %v", err)
	}
	if err := badFill(FillCandidates{Round: 1, ShardID: 0, Client: []int{0, 0}, Idx: []int{2, 3}, AbsVal: []float64{1, 1}}); err == nil ||
		!strings.Contains(err.Error(), "two shards") {
		t.Fatalf("duplicate fill client accepted: %v", err)
	}
}
