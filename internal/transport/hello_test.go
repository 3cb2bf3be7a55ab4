package transport

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// enrolment is one participant's identity and roster as a hostile-hello
// row states it; both planes' hellos are built from it.
type enrolment struct {
	id      int
	members []int
	weights []float64 // nil = weight 1 per member
}

func (e enrolment) hello() Hello {
	w := e.weights
	if w == nil {
		w = make([]float64, len(e.members))
		for i := range w {
			w[i] = 1
		}
	}
	return Hello{ClientID: e.id, Members: e.members, Weights: w}
}

// weightRefusal is every coordinator reader's refusal of member 0's
// weight w, a sample count that is not finite and positive. A DataHello
// carries no weights, so no shard reader is concerned.
func weightRefusal(w string) map[string]string {
	const want = "%s 0 member 0 weight %s, want a finite sample count > 0"
	return map[string]string{
		"coordinator":            fmt.Sprintf(want, "transport: client", w),
		"durable":                fmt.Sprintf(want, "transport: client", w),
		"population coordinator": fmt.Sprintf(want, "transport: host", w),
	}
}

// TestHostileHello drives the participant hellos through every reader:
// RunServerPeers under the plain, durable and population configs
// (seatHellos), and the plain and population shard ingest (seatData).
// Each row must be refused by name by every reader it is hostile to; a
// reader the row is legal on is not listed (a population host may own
// any members; a DataHello carries no weights). The durable shard's
// desk reads the same check, checkDataHello, one connection at a time:
// the "data" row of deskRules (recovery_test.go) holds its refusals.
func TestHostileHello(t *testing.T) {
	cases := []struct {
		name      string
		enrolled  []enrolment
		numShards int // the DataHellos' echoed shard count; 0 = the deployment's 2
		want      map[string]string
	}{
		{"per-client roster other than [ClientID]", []enrolment{{0, []int{1}, nil}, {1, []int{0}, nil}}, 0, map[string]string{
			"coordinator": "transport: client 0 roster [1], want [0]",
			"durable":     "transport: client 0 roster [1], want [0]",
			"shard":       "transport: shard 0: client 0 roster [1], want [0]",
		}},
		{"roster and weights of different lengths", []enrolment{{0, []int{0}, []float64{1, 2}}}, 0, map[string]string{
			"coordinator":            "transport: client 0 roster shape 1 members / 2 weights",
			"durable":                "transport: client 0 roster shape 1 members / 2 weights",
			"population coordinator": "transport: host 0 roster shape 1 members / 2 weights",
		}},
		{"empty roster", []enrolment{{0, nil, nil}}, 0, map[string]string{
			"coordinator":            "transport: client 0 roster shape 0 members / 0 weights",
			"durable":                "transport: client 0 roster shape 0 members / 0 weights",
			"population coordinator": "transport: host 0 roster shape 0 members / 0 weights",
			"shard":                  "transport: shard 0: client 0 roster [], want [0]",
		}},
		{"non-ascending roster", []enrolment{{0, []int{1, 0}, nil}}, 0, map[string]string{
			"coordinator":            "transport: client 0 roster [1 0], want [0]",
			"durable":                "transport: client 0 roster [1 0], want [0]",
			"population coordinator": "transport: host 0 roster not strictly ascending at member 0",
			"shard":                  "transport: shard 0: client 0 roster [1 0], want [0]",
			"population shard":       "transport: shard 0: host 0 roster not strictly ascending at member 0",
		}},
		{"duplicate ID", []enrolment{{0, []int{0}, nil}, {0, []int{0}, nil}}, 0, map[string]string{
			"coordinator":            "transport: duplicate client id 0",
			"durable":                "transport: duplicate client id 0",
			"population coordinator": "transport: duplicate host id 0",
			"shard":                  "transport: shard 0: duplicate client id 0 on the ingest plane",
			"population shard":       "transport: shard 0: duplicate host id 0 on the ingest plane",
		}},
		{"out-of-range ID", []enrolment{{5, []int{5}, nil}}, 0, map[string]string{
			"coordinator":            "transport: client id 5 out of range [0, 1)",
			"durable":                "transport: client id 5 out of range [0, 1)",
			"population coordinator": "transport: host id 5 out of range [0, 1)",
			"shard":                  "transport: shard 0: client id 5 out of range [0, 1)",
			"population shard":       "transport: shard 0: host id 5 out of range [0, 1)",
		}},
		{"member outside the population", []enrolment{{0, []int{0, 7}, nil}}, 0, map[string]string{
			"population coordinator": "transport: host 0 roster member 7 outside the population [0, 2)",
			"population shard":       "transport: shard 0: host 0 roster member 7 outside the population [0, 2)",
		}},
		{"member claimed twice", []enrolment{{0, []int{0, 1}, nil}, {1, []int{1}, nil}}, 0, map[string]string{
			"coordinator":            "transport: client 0 roster [0 1], want [0]",
			"durable":                "transport: client 0 roster [0 1], want [0]",
			"population coordinator": "transport: member 1 claimed by hosts 0 and 1",
			"shard":                  "transport: shard 0: client 0 roster [0 1], want [0]",
			"population shard":       "transport: shard 0: member 1 claimed by hosts 0 and 1",
		}},
		{"NaN weight", []enrolment{{0, []int{0}, []float64{math.NaN()}}}, 0, weightRefusal("NaN")},
		{"+Inf weight", []enrolment{{0, []int{0}, []float64{math.Inf(1)}}}, 0, weightRefusal("+Inf")},
		{"negative weight", []enrolment{{0, []int{0}, []float64{-1}}}, 0, weightRefusal("-1")},
		{"zero weight", []enrolment{{0, []int{0}, []float64{0}}}, 0, weightRefusal("0")},
		{"stale shard geometry", []enrolment{{0, []int{0}, nil}}, 3, map[string]string{
			"shard":            "transport: shard 0: client 0 presented a stale shard directory (3 shards over dim 10 aimed at shard 0; this deployment is 2 over 10)",
			"population shard": "transport: shard 0: host 0 presented a stale shard directory (3 shards over dim 10 aimed at shard 0; this deployment is 2 over 10)",
		}},
	}

	cfg := ServerConfig{K: 1, Rounds: 1, InitialParams: []float64{0}}
	// closed is a peer's connection, already dead: a hello that is
	// wrongly seated fails the run at its first send or recv instead of
	// parking it.
	closed := func() Conn {
		conn, _ := NewMemPair()
		conn.Close()
		return conn
	}
	// coordinator runs RunServerPeers under one tier's config over the
	// row's Hellos.
	coordinator := func(enrolled []enrolment, cfg ServerConfig) error {
		peers := make([]Peer, len(enrolled))
		for i, e := range enrolled {
			h := e.hello()
			peers[i] = Peer{Conn: closed(), Hello: &h}
		}
		_, err := RunServerPeers(peers, cfg)
		return err
	}
	// assign is the shard-side deployment the row's DataHellos meet:
	// shard 0 of 2 over dim 10, one client per enrolment, or one host per
	// enrolment over the population their rosters add up to.
	assign := func(enrolled []enrolment, hosts bool) ShardAssign {
		a := ShardAssign{ShardID: 0, NumShards: 2, Dim: 10, Rounds: 1, Weights: make([]float64, len(enrolled))}
		if hosts {
			nPop := 0
			for _, e := range enrolled {
				nPop += len(e.members)
			}
			a.NumHosts, a.Weights = len(enrolled), make([]float64, nPop)
		}
		return a
	}
	dataHellos := func(enrolled []enrolment, numShards int) []DataHello {
		hellos := make([]DataHello, len(enrolled))
		for i, e := range enrolled {
			hellos[i] = DataHello{ClientID: e.id, ShardID: 0, NumShards: numShards, Dim: 10, Members: e.members}
		}
		return hellos
	}
	shard := func(t *testing.T, enrolled []enrolment, numShards int, hosts bool) error {
		var peers []Peer
		for _, h := range dataHellos(enrolled, numShards) {
			peers = append(peers, Peer{Conn: closed(), Data: &h})
		}
		return directShardHarness(t, assign(enrolled, hosts), func(int) []Peer { return peers }, nil)
	}

	readers := map[string]func(t *testing.T, enrolled []enrolment, numShards int) error{
		"coordinator": func(t *testing.T, enrolled []enrolment, _ int) error {
			return coordinator(enrolled, cfg)
		},
		"durable": func(t *testing.T, enrolled []enrolment, _ int) error {
			desk := NewRejoinDesk(func() (Conn, error) { return nil, errors.New("no rejoins") })
			defer desk.Close()
			dcfg := cfg
			dcfg.Durable = &DurableServerConfig{RunID: 1, WALPath: filepath.Join(t.TempDir(), "coord.wal"), Desk: desk}
			return coordinator(enrolled, dcfg)
		},
		"population coordinator": func(t *testing.T, enrolled []enrolment, _ int) error {
			pcfg := cfg
			pcfg.Population = &PopulationConfig{}
			return coordinator(enrolled, pcfg)
		},
		"shard": func(t *testing.T, enrolled []enrolment, numShards int) error {
			return shard(t, enrolled, numShards, false)
		},
		"population shard": func(t *testing.T, enrolled []enrolment, numShards int) error {
			return shard(t, enrolled, numShards, true)
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			numShards := tc.numShards
			if numShards == 0 {
				numShards = 2
			}
			for reader, want := range tc.want {
				if err := readers[reader](t, tc.enrolled, numShards); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %v, want substring %q", reader, err, want)
				}
			}
		})
	}
}
