package transport

// This file is the coordinator↔shard control vocabulary of the sharded
// aggregation tier (gs/shard.go): the coordinator partitions the model's
// coordinate space into S contiguous ranges with tensor.ChunkBounds,
// clients upload each range slice straight to its owning shard (the
// direct data plane, direct.go), and every shard reports the min-rank
// histogram of its range-restricted reduction for the coordinator's
// selection. Shards run as processes of their own over Dial/Listen, or
// in the deploying process over any Conn; either way the aggregate is
// bit-identical to the single-process engine at every shard count (the
// differential suites pin in-memory conns and TCP alike).

// Shard-tier message types.
type (
	// ShardHello identifies a connection as an aggregation shard on a
	// shared coordinator listener (clients send Hello instead). Addr is
	// the shard's own client-facing ingest listener, which the
	// coordinator publishes to the clients in Init. A durable shard
	// declares its stable identity in ID (HasID set): the coordinator
	// seats it at that index (SeatShardPeers) instead of by arrival
	// order, which is racy across real processes — without the
	// declaration two shards enrolling out of order would each receive
	// the other's assignment and refuse it. Non-durable shards leave
	// both fields zero and take whatever index arrival order gives them
	// (their ShardAssign tells them who they are).
	ShardHello struct {
		Addr  string
		ID    int
		HasID bool
	}

	// ShardAssign is the coordinator's handshake reply to a shard: its
	// identity, the partition geometry, the run length, and every
	// client's aggregation weight C_i (the shard needs the full weight
	// vector — the total weight C divides every sum, including clients
	// with no pairs in the shard's range). QuantBits is the run's
	// quantization width: the shard validates incoming slices against it
	// and snaps its reconstructed downlink values onto the coordinator's
	// sealed grid.
	ShardAssign struct {
		ShardID   int
		NumShards int
		Dim       int
		Rounds    int
		Weights   []float64
		QuantBits int
		// StartRound is the first round this shard runs (0 means 1 —
		// fresh assigns leave it zero). A durable coordinator re-seating
		// a shard that restarted mid-run sets it to the round in
		// progress so the shard's barrier starts there.
		StartRound int
		// Window is the bounded-staleness window W (0 = synchronous).
		// A shard with W > 0 keeps its per-round barrier and runs it W
		// rounds deep: it serves round m−W's fetches right after sealing
		// round m, so each client link carries SliceUpload(m),
		// SliceFetch(m−W), SliceUpload(m+1), … in that order.
		Window int
		// NumHosts > 0 switches a shard into the population tier's M:N
		// ingest plane: instead of one connection per client it accepts
		// NumHosts virtual-client host connections (each opening with a
		// DataHello that names its member roster), and each round's
		// barrier covers the drawn cohort announced by the coordinator's
		// CohortAssign, with one MuxFrame-enveloped SliceUpload per drawn
		// member. Weights then has one entry per population member. 0 is
		// the classic one-conn-per-client plane.
		NumHosts int
	}

	// ShardResult is a shard's report for one round, shard →
	// coordinator on the control connection once the shard's client
	// barrier for the round is complete. A direct-plane shard sends only
	// Hist, the min-rank histogram of its range reduction (gs.RankHist:
	// Hist[r] counts its reduced coordinates whose minimal upload rank is
	// r, up to the largest), which is all FAB's selection needs from it
	// until the fill; a rank holds at most one coordinate per client, so
	// at N = 8 the int block packs it at ≤ 4 bits an entry. Idx, Sum and
	// MinRank — the whole reduction, gs.RangeAgg on the wire: every
	// distinct uploaded coordinate in its range, ascending, with its
	// exact weighted sum b_j and minimal upload rank — stay empty there;
	// the coordinator refuses them.
	ShardResult struct {
		Round   int
		ShardID int
		Idx     []int
		Sum     []float64
		MinRank []int
		Hist    []int
	}
)
