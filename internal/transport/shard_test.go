package transport

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedsparse/internal/fl"
)

// TestRunShardRejectsBadAssign covers a shard's validation of its
// assignment (checkAssign, shared by RunDirectShard and the durable
// shard): it must fail before the shard accepts a single client, with
// the same words on both entry points. The durable shard's coordinator
// is lockstep and per-client, so it alone also refuses a window and
// population hosts.
func TestRunShardRejectsBadAssign(t *testing.T) {
	cases := []struct {
		name        string
		assign      ShardAssign
		want        string
		durableOnly bool
	}{
		{"id out of range", ShardAssign{ShardID: 3, NumShards: 2, Dim: 10, Rounds: 1, Weights: []float64{1}}, "shard id 3 out of range [0, 2)", false},
		{"no shards", ShardAssign{ShardID: 0, NumShards: 0, Dim: 10, Rounds: 1, Weights: []float64{1}}, "shard id 0 out of range [0, 0)", false},
		{"no clients", ShardAssign{ShardID: 0, NumShards: 1, Dim: 10, Rounds: 1}, "bad shard assignment", false},
		{"bad dim", ShardAssign{ShardID: 0, NumShards: 1, Dim: 0, Rounds: 1, Weights: []float64{1}}, "bad shard assignment", false},
		{"window past the cap", ShardAssign{ShardID: 0, NumShards: 1, Dim: 10, Rounds: 1, Weights: []float64{1}, Window: fl.MaxStaleness + 1},
			"shard 0 assigned staleness window 9 outside [0, 8]", false},
		{"negative window", ShardAssign{ShardID: 0, NumShards: 1, Dim: 10, Rounds: 1, Weights: []float64{1}, Window: -1},
			"shard 0 assigned staleness window -1 outside [0, 8]", false},
		{"durable with a window", ShardAssign{ShardID: 0, NumShards: 1, Dim: 10, Rounds: 1, Weights: []float64{1}, Window: 1},
			"shard 0: the durable tier requires the synchronous protocol (window 1)", true},
		{"durable with population hosts", ShardAssign{ShardID: 0, NumShards: 1, Dim: 10, Rounds: 1, Weights: []float64{1}, NumHosts: 2},
			"shard 0: the durable tier is per-client, not 2 population hosts", true},
	}
	durable := shardTierNamed("durable")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := map[string]error{"durable": durable.run(t, tc.assign, func(_, _ []Conn, _ Conn) {})}
			if !tc.durableOnly {
				errs["plain"] = directShardHarness(t, tc.assign, func(int) []Peer { return nil }, nil)
			}
			for entry, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s shard: error %v, want substring %q", entry, err, tc.want)
				}
			}
		})
	}
}

// TestRunShardRejectsNonAssignFirst pins the handshake ordering: a
// shard's first control message must be its ShardAssign.
func TestRunShardRejectsNonAssignFirst(t *testing.T) {
	server, shard := NewMemPair()
	done := make(chan error, 1)
	go func() { done <- RunDirectShard(shard, func(int) ([]Peer, error) { return nil, nil }) }()
	if err := server.Send(Hello{ClientID: 0, Members: []int{0}, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "ShardAssign") {
		t.Fatalf("error %v, want ShardAssign complaint", err)
	}
	_ = server.Close()
}

// TestBinConnCloseSemantics pins the wire conn to memConn's contract:
// idempotent Close, ErrClosed sends, io.EOF recvs — both for a local
// close and for a peer close.
func TestBinConnCloseSemantics(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptedCh := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptedCh <- c
		}
	}()
	dialed, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted := <-acceptedCh

	// Local close: Send reports ErrClosed, Recv reports io.EOF, double
	// close is fine.
	if err := dialed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dialed.Send(Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on locally closed conn = %v, want ErrClosed", err)
	}
	if _, err := dialed.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv on locally closed conn = %v, want io.EOF", err)
	}
	if err := dialed.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}

	// Peer close: the surviving endpoint sees io.EOF on Recv.
	if _, err := accepted.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after peer close = %v, want io.EOF", err)
	}
	if err := accepted.Close(); err != nil {
		t.Fatal(err)
	}
	if err := accepted.Send(Hello{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

// TestAcceptPeerClassifies pins the shared-listener demux: each of the
// four hello types lands in its own Peer field, intact, with the other
// three nil; anything else is refused.
func TestAcceptPeerClassifies(t *testing.T) {
	cases := []struct {
		name  string
		hello any
		field func(Peer) any // the field the hello must land in; nil = refused
	}{
		{"client", Hello{ClientID: 2, Members: []int{2}, Weights: []float64{3}}, func(p Peer) any { return p.Hello }},
		{"host", Hello{ClientID: 1, Members: []int{0, 3}, Weights: []float64{1, 2}}, func(p Peer) any { return p.Hello }},
		{"shard", ShardHello{}, func(p Peer) any { return p.Shard }},
		{"data", DataHello{ClientID: 2, ShardID: 1, NumShards: 2, Dim: 8, Members: []int{2}}, func(p Peer) any { return p.Data }},
		{"rejoin", Rejoin{RunID: 7, Kind: RejoinShard, ID: 1}, func(p Peer) any { return p.Rejoin }},
		{"unclassifiable", Broadcast{Round: 1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewMemPair()
			go func() { _ = b.Send(tc.hello) }()
			peer, err := AcceptPeer(a)
			if tc.field == nil {
				if err == nil {
					t.Fatalf("unclassifiable first message accepted: %+v", peer)
				}
				return
			}
			if err != nil || peer.Conn != a {
				t.Fatalf("peer = %+v, %v", peer, err)
			}
			set := 0
			for _, f := range []any{peer.Hello, peer.Shard, peer.Data, peer.Rejoin} {
				if !reflect.ValueOf(f).IsNil() {
					set++
				}
			}
			got := reflect.ValueOf(tc.field(peer))
			if set != 1 || got.IsNil() || !reflect.DeepEqual(got.Elem().Interface(), tc.hello) {
				t.Fatalf("peer = %+v (%d fields set), want exactly %+v", peer, set, tc.hello)
			}
		})
	}
}

// netDial opens a raw TCP connection that never completes a handshake.
func netDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// TestAcceptPeersToleratesStrays pins the concurrent handshake: a silent
// TCP connection and a junk first message must not stall or poison the
// peer collection.
func TestAcceptPeersToleratesStrays(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	// A peer that connects and never speaks (health check, port scan).
	silent, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A peer whose first message classifies as neither role.
	junk, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	if err := junk.Send(Broadcast{Round: 1}); err != nil {
		t.Fatal(err)
	}
	// The real peers.
	go func() {
		conn, err := Dial(addr)
		if err != nil {
			return
		}
		_ = conn.Send(Hello{ClientID: 0, Members: []int{0}, Weights: []float64{3}})
	}()
	go func() {
		_, _ = DialDirectShard(addr, "127.0.0.1:1")
	}()

	clients, shards, err := AcceptPeers(ln, 1, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 1 || clients[0].Hello == nil || clients[0].Hello.ClientID != 0 {
		t.Fatalf("clients = %+v", clients)
	}
	if len(shards) != 1 {
		t.Fatalf("got %d shards, want 1", len(shards))
	}
}

// TestAcceptPeersTimesOut pins the bounded wait: a missing peer surfaces
// as a loud error reporting the partial progress, not a hang.
func TestAcceptPeersTimesOut(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The shard arrives (a small handshake buffers in the kernel even
	// before Accept); the client never does.
	shard, err := DialDirectShard(ln.Addr().String(), "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	_, _, err = AcceptPeers(ln, 1, 1, 300*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if !strings.Contains(err.Error(), "0/1 clients") || !strings.Contains(err.Error(), "1/1 shards") {
		t.Fatalf("timeout error does not report progress: %v", err)
	}
}

// TestAcceptPeersLeavesTheNextConnection: once its quota fills, a
// classifying accept loop takes no further connection, so the next one
// reaches the listener's next taker — as a durable coordinator's rejoin
// desk, which serves the listener its enrolment used.
func TestAcceptPeersLeavesTheNextConnection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hello   any
		collect func(ln *Listener) error
	}{
		{"AcceptPeers", Hello{ClientID: 0, Members: []int{0}, Weights: []float64{1}}, func(ln *Listener) error {
			_, _, err := AcceptPeers(ln, 1, 0, time.Minute)
			return err
		}},
		{"AcceptDataPeers", DataHello{ClientID: 0, ShardID: 0, NumShards: 1, Dim: 1, Members: []int{0}}, func(ln *Listener) error {
			_, err := AcceptDataPeers(ln, 1, time.Minute)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			dialSend := func(msg any) {
				conn, err := Dial(ln.Addr().String())
				if err != nil {
					t.Error(err)
					return
				}
				t.Cleanup(func() { conn.Close() })
				if err := conn.Send(msg); err != nil {
					t.Error(err)
				}
			}
			dialSend(tc.hello)
			if err := tc.collect(ln); err != nil {
				t.Fatal(err)
			}
			dialSend(Rejoin{RunID: 7, Kind: RejoinClient})
			next := make(chan any, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					next <- err
					return
				}
				msg, err := recvHandshake(conn)
				if err != nil {
					next <- err
					return
				}
				next <- msg
			}()
			select {
			case got := <-next:
				if rj, ok := got.(Rejoin); !ok || rj.RunID != 7 {
					t.Fatalf("next connection opened with %v, want the Rejoin", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the connection after the quota never reached the listener's next Accept")
			}
		})
	}
}

// TestRunServerPeersRejectsShardAsClient pins the role split.
func TestRunServerPeersRejectsShardAsClient(t *testing.T) {
	a, _ := NewMemPair()
	_, err := RunServerPeers([]Peer{{Conn: a}}, ServerConfig{K: 2, Rounds: 1, InitialParams: []float64{0}})
	if err == nil || !strings.Contains(err.Error(), "ShardConns") {
		t.Fatalf("shard peer accepted as client: %v", err)
	}
}

// Durable shards declare a stable identity in their hello; the
// coordinator must seat them by declaration, not by the (racy, across
// real processes) order their connections happened to arrive in.
func TestSeatShardPeers(t *testing.T) {
	declared := func(id int) Peer {
		return Peer{Shard: &ShardHello{Addr: "x", ID: id, HasID: true}}
	}
	anon := Peer{Shard: &ShardHello{Addr: "y"}}

	// Reverse arrival order: every declared peer lands on its own index.
	seated, err := SeatShardPeers([]Peer{declared(2), declared(1), declared(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range seated {
		if p.Shard.ID != i {
			t.Fatalf("slot %d seated shard %d", i, p.Shard.ID)
		}
	}

	// Undeclared peers fill the unclaimed slots in arrival order.
	seated, err = SeatShardPeers([]Peer{anon, declared(1), anon})
	if err != nil {
		t.Fatal(err)
	}
	if seated[1].Shard.ID != 1 || seated[0].Shard.HasID || seated[2].Shard.HasID {
		t.Fatalf("mixed seating wrong: %+v", seated)
	}

	if _, err := SeatShardPeers([]Peer{declared(0), declared(0)}); err == nil {
		t.Fatal("duplicate declared id not rejected")
	}
	if _, err := SeatShardPeers([]Peer{declared(3), declared(0)}); err == nil {
		t.Fatal("out-of-range declared id not rejected")
	}
}
