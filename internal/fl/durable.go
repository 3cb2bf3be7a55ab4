// The durable engine: a WAL of per-round results plus periodic
// whole-state snapshots, so a crashed (or deliberately halted) run
// resumes bit-identically. Durability never touches the trajectory —
// the engine's rng streams are merely counted (wal.CountingSource
// yields the exact stream of rand.NewSource), and recovery is
// snapshot-restore plus deterministic recomputation of the rounds
// after it, each verified against the logged result. A resumed run's
// Stats (and therefore its CSV) are byte-identical to the
// uninterrupted run's.
package fl

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"

	"fedsparse/internal/core"
	"fedsparse/internal/wal"
)

// engineWALName is the log file inside Config.WALDir.
const engineWALName = "engine.wal"

// defaultSnapshotEvery is the snapshot cadence when Config.SnapshotEvery
// is zero.
const defaultSnapshotEvery = 10

// engineWAL is the durable-run state threaded through Run and runGS.
type engineWAL struct {
	runID uint64
	dir   string
	every int
	log   *wal.Log
	ctrl  core.Resumable

	engineSrc  *wal.CountingSource
	clientSrcs []*wal.CountingSource

	// Resume state: logged holds every Finish-backed RoundEvent from the
	// log (rounds 1..F); snapRound is the restored snapshot's round S
	// (0 = no snapshot, recompute from round 1); clock0 the restored
	// cumulative time; restored flags that rng streams were repositioned.
	logged    []RoundEvent
	snapRound int
	clock0    float64
	restored  bool

	// appends/snaps count the Finish appends and snapshot writes this
	// process performed — the cumulative counters stamped onto each
	// round's event for the operational surface. Replay verification
	// appends nothing, so resumed runs restart both at zero.
	appends, snaps uint64
}

// finishFloats is the number of Floats a KindEngine Finish carries.
const finishFloats = 7

// finishRecord maps one round's stats onto the generic Finish record.
// Everything the CSV writers consume must round-trip through here —
// a resumed run reports replayed rounds from these records alone.
func finishRecord(st *RoundEvent) *wal.Finish {
	return &wal.Finish{
		Round: st.Round,
		Ints: []int64{int64(st.K), int64(st.DownlinkElems), int64(st.Participants),
			int64(st.Population), int64(st.CohortSize), int64(st.ChurnEvents)},
		Floats: []float64{st.KCont, st.RoundTime, st.Time, st.Loss, st.TestAcc, st.TestLoss, st.TrainLoss},
	}
}

func statsFromFinish(r *wal.Finish) (RoundEvent, error) {
	if len(r.Ints) != 6 || len(r.Floats) != finishFloats {
		return RoundEvent{}, fmt.Errorf("fl: finish for round %d carries %d ints and %d floats, want 6 and %d",
			r.Round, len(r.Ints), len(r.Floats), finishFloats)
	}
	return RoundEvent{
		Round: r.Round,
		K:     int(r.Ints[0]), DownlinkElems: int(r.Ints[1]), Participants: int(r.Ints[2]),
		Population: int(r.Ints[3]), CohortSize: int(r.Ints[4]), ChurnEvents: int(r.Ints[5]),
		KCont: r.Floats[0], RoundTime: r.Floats[1], Time: r.Floats[2], Loss: r.Floats[3],
		TestAcc: r.Floats[4], TestLoss: r.Floats[5], TrainLoss: r.Floats[6],
	}, nil
}

// sameStats is the bit-exact comparison the replay verification uses
// (NaN == NaN, since unevaluated metrics are NaN on both sides).
func sameStats(got, want *RoundEvent) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Round != want.Round, got.K != want.K,
		got.DownlinkElems != want.DownlinkElems, got.Participants != want.Participants,
		got.Population != want.Population, got.CohortSize != want.CohortSize,
		got.ChurnEvents != want.ChurnEvents:
		return fmt.Errorf("recomputed round=%d k=%d elems=%d parts=%d, log has round=%d k=%d elems=%d parts=%d",
			got.Round, got.K, got.DownlinkElems, got.Participants,
			want.Round, want.K, want.DownlinkElems, want.Participants)
	case !same(got.Loss, want.Loss):
		return fmt.Errorf("recomputed loss %v, log has %v", got.Loss, want.Loss)
	case !same(got.KCont, want.KCont), !same(got.RoundTime, want.RoundTime), !same(got.Time, want.Time),
		!same(got.TestAcc, want.TestAcc), !same(got.TestLoss, want.TestLoss), !same(got.TrainLoss, want.TrainLoss):
		return fmt.Errorf("recomputed scalars diverge from the log (kcont %v vs %v, time %v vs %v)",
			got.KCont, want.KCont, got.Time, want.Time)
	}
	return nil
}

// engineConf is the configuration fingerprint stored in RunStart: every
// knob that shapes the trajectory, as int64s (floats by their bit
// patterns, names by FNV hash). Workers is excluded — results are
// bit-identical across it by construction, and a resumed run may
// legitimately use a different fan-out. The constant 0 sits where the
// removed Config.Direct was fingerprinted, and Cohort where the removed
// Config.Participation was, so logs written with both unset resume
// byte-for-byte.
func engineConf(cfg *Config, d, nClients int, ctrlName string) []int64 {
	hash := func(s string) int64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return int64(h.Sum64())
	}
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	return []int64{
		int64(d), int64(cfg.Rounds), int64(cfg.BatchSize), int64(cfg.QuantBits),
		int64(nClients), 0, int64(cfg.Staleness),
		bits(cfg.LearningRate), int64(cfg.Cohort), bits(cfg.Beta), bits(cfg.MaxTime),
		int64(cfg.EvalEvery), int64(cfg.TrainLossEvery),
		hash(cfg.Strategy.Name()), hash(ctrlName),
	}
}

// open creates the run's log, or — when resuming — reopens it, replays
// the finished rounds, and restores the latest snapshot into params and
// the freshly built clients. Called after client construction so the
// restore can overwrite params/residuals/rng streams in place.
func (dw *engineWAL) open(cfg *Config, clients []*client, params []float64, d int) error {
	path := filepath.Join(dw.dir, engineWALName)
	conf := engineConf(cfg, d, len(clients), dw.ctrl.Name())
	weights := make([]float64, len(clients))
	for i, c := range clients {
		weights[i] = c.weight
	}
	if !cfg.Resume {
		log, err := wal.Create(path, wal.RunStart{RunID: dw.runID, Kind: wal.KindEngine, Conf: conf, Weights: weights})
		if err != nil {
			return fmt.Errorf("fl: creating the WAL: %w", err)
		}
		dw.log = log
		return nil
	}

	log, recs, err := wal.Open(path, dw.runID, true)
	if err != nil {
		return fmt.Errorf("fl: reopening the WAL: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			log.Close()
		}
	}()
	rs := recs[0].(*wal.RunStart) // Open guarantees recs[0] is the RunStart
	if rs.Kind != wal.KindEngine {
		return fmt.Errorf("fl: resume: log written by writer kind %d, not the engine", rs.Kind)
	}
	if len(rs.Conf) != len(conf) {
		return fmt.Errorf("fl: resume: configuration fingerprint has %d fields, log has %d", len(conf), len(rs.Conf))
	}
	for i := range conf {
		if conf[i] != rs.Conf[i] {
			return fmt.Errorf("fl: resume: configuration fingerprint field %d is %d, log has %d — refusing to replay under a different run configuration",
				i, conf[i], rs.Conf[i])
		}
	}
	if len(rs.Weights) != len(weights) {
		return fmt.Errorf("fl: resume: log enrolled %d clients, run has %d", len(rs.Weights), len(weights))
	}
	for i := range weights {
		if rs.Weights[i] != weights[i] {
			return fmt.Errorf("fl: resume: client %d weight %v, log has %v — different dataset", i, weights[i], rs.Weights[i])
		}
	}
	for _, r := range recs[1:] {
		f, isFinish := r.(*wal.Finish)
		if !isFinish {
			return fmt.Errorf("fl: resume: unexpected %T record in an engine log", r)
		}
		if f.Round != len(dw.logged)+1 {
			return fmt.Errorf("fl: resume: finish for round %d out of order (next is %d)", f.Round, len(dw.logged)+1)
		}
		st, err := statsFromFinish(f)
		if err != nil {
			return err
		}
		dw.logged = append(dw.logged, st)
	}

	snap, err := wal.LatestSnapshot(dw.dir, dw.runID)
	if err != nil {
		return fmt.Errorf("fl: resume: %w", err)
	}
	if snap != nil {
		if err := dw.restore(snap, cfg, clients, params, d); err != nil {
			return err
		}
	}
	dw.log = log
	ok = true
	return nil
}

// restore loads one snapshot into the run: the synchronized model
// params, residual accumulators into every client, controller state, rng
// stream positions, and the clock. The strategy slot must be empty: no
// strategy carries state across rounds.
func (dw *engineWAL) restore(snap *wal.Snapshot, cfg *Config, clients []*client, params []float64, d int) error {
	n := len(clients)
	if snap.Round < 1 || snap.Round > len(dw.logged) {
		return fmt.Errorf("fl: resume: snapshot at round %d but the log finishes %d rounds", snap.Round, len(dw.logged))
	}
	if len(snap.Vecs) != n+3 || len(snap.Ints) != n+1 || len(snap.Floats) != 1 {
		return fmt.Errorf("fl: resume: snapshot shape %d/%d/%d does not fit %d clients (want %d/%d/1 vecs/ints/floats)",
			len(snap.Vecs), len(snap.Ints), len(snap.Floats), n, n+3, n+1)
	}
	if len(snap.Vecs[0]) != d {
		return fmt.Errorf("fl: resume: snapshot params have dimension %d, model has %d", len(snap.Vecs[0]), d)
	}
	for i, c := range clients {
		if len(snap.Vecs[1+i]) != d {
			return fmt.Errorf("fl: resume: snapshot residuals for client %d have dimension %d, model has %d", i, len(snap.Vecs[1+i]), d)
		}
		copy(c.Acc, snap.Vecs[1+i])
	}
	copy(params, snap.Vecs[0])
	if err := dw.ctrl.StateRestore(snap.Vecs[n+1]); err != nil {
		return fmt.Errorf("fl: resume: %w", err)
	}
	if len(snap.Vecs[n+2]) != 0 {
		return fmt.Errorf("fl: resume: snapshot carries %d strategy state fields but strategy %s is stateless",
			len(snap.Vecs[n+2]), cfg.Strategy.Name())
	}
	dw.engineSrc = wal.NewCountingSource(cfg.Seed, uint64(snap.Ints[0]))
	for i, c := range clients {
		src := wal.NewCountingSource(ClientSeed(cfg.Seed, i), uint64(snap.Ints[1+i]))
		dw.clientSrcs[i] = src
		c.Rng = rand.New(src)
	}
	dw.snapRound = snap.Round
	dw.clock0 = snap.Floats[0]
	dw.restored = true
	return nil
}

// commit finalizes one computed round: while still inside the logged
// prefix it verifies the recomputation bit-exactly against the log (a
// divergence means the state, code, or inputs changed — refusing beats
// silently forking the trajectory); past the prefix it appends and
// syncs the Finish record. Snapshots are (re)written on cadence either
// way — a crash may have lost the one after the logged rounds.
func (dw *engineWAL) commit(st *RoundEvent, params []float64, clients []*client) error {
	m := st.Round
	if m <= len(dw.logged) {
		if err := sameStats(st, &dw.logged[m-1]); err != nil {
			return fmt.Errorf("fl: divergent resume at round %d: %w", m, err)
		}
	} else {
		if err := dw.log.Append(finishRecord(st)); err != nil {
			return fmt.Errorf("fl: round %d: %w", m, err)
		}
		if err := dw.log.Sync(); err != nil {
			return fmt.Errorf("fl: round %d: %w", m, err)
		}
		dw.appends++
	}
	if m%dw.every == 0 && m > dw.snapRound {
		if err := dw.snapshot(st, params, clients); err != nil {
			return fmt.Errorf("fl: round %d snapshot: %w", m, err)
		}
		dw.snaps++
	}
	return nil
}

// snapshot checkpoints the whole mutable run state after round
// st.Round: the synchronized params once, every residual accumulator,
// controller state, all rng positions, and the clock. The strategy slot
// is written empty: a strategy's only cross-round inputs are the round
// number and the engine rng, whose position the snapshot records.
func (dw *engineWAL) snapshot(st *RoundEvent, params []float64, clients []*client) error {
	n := len(clients)
	vecs := make([][]float64, 0, n+3)
	vecs = append(vecs, append([]float64(nil), params...))
	for _, c := range clients {
		vecs = append(vecs, append([]float64(nil), c.Acc...))
	}
	vecs = append(vecs, dw.ctrl.StateSave(), nil)
	ints := make([]int64, 0, n+1)
	ints = append(ints, int64(dw.engineSrc.Pos()))
	for _, src := range dw.clientSrcs {
		ints = append(ints, int64(src.Pos()))
	}
	return wal.WriteSnapshot(dw.dir, &wal.Snapshot{
		RunID: dw.runID, Round: st.Round,
		Vecs: vecs, Ints: ints, Floats: []float64{st.Time},
	})
}
