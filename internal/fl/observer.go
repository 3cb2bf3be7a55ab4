// Round-event observation: the engine's per-round bookkeeping as a
// typed event stream. RoundEvent is the per-round record, Observer the
// synchronous consumer interface, and Collector the built-in observer
// the engine itself uses to rebuild Result.Stats — so the CSV writers
// in flsim, the metrics.Series builders, and the HTTP admin server are
// all just consumers of the one stream the run publishes.
package fl

// RoundEvent captures one round of training — the canonical per-round
// record published to Observers and collected into Result.Stats.
type RoundEvent struct {
	// Round is m (1-based).
	Round int
	// K is the realized integer sparsity degree; KCont the controller's
	// continuous decision.
	K     int
	KCont float64
	// RoundTime is this round's normalized time; Time is cumulative.
	RoundTime float64
	Time      float64
	// Loss is the C_i/C-weighted minibatch loss at w(m−1) — the global
	// loss estimate the figures plot.
	Loss float64
	// DownlinkElems is |J|.
	DownlinkElems int
	// Participants is how many clients computed and uploaded this round.
	Participants int
	// Population is how many clients were drawable when this round's
	// cohort was drawn — the active population after churn (the full
	// client count when churn is off), at any Staleness. The transport
	// coordinators without a drawn roster report their participant
	// count; FedAvg, which has no roster, reports zero.
	Population int
	// CohortSize is how many clients the cohort draw selected
	// this round, before deadline dropouts removed any. Equal to
	// Participants when no Dropout schedule is set.
	CohortSize int
	// ChurnEvents counts this round's membership changes (joins plus
	// leaves applied between the previous round and this one's draw).
	ChurnEvents int
	// TestAcc/TestLoss/TrainLoss are NaN unless evaluated this round.
	TestAcc   float64
	TestLoss  float64
	TrainLoss float64
	// PerClientUsed is |J ∩ J_i| per client (nil unless recorded).
	PerClientUsed []int

	// WindowDepth is how many later rounds had already entered phase-A
	// compute when this round sealed — the realized pipeline overlap
	// (0 when synchronous).
	WindowDepth int

	// BytesUp/BytesDown are the wire bytes the coordinator received
	// from and sent to its peers during this round. Only transport
	// rounds over byte-counting connections (the binary codec) fill
	// them: in-process engine runs have no wire, and in the direct
	// topology the coordinator counts its control plane only (gradient
	// payloads flow client↔shard and never cross it).
	BytesUp, BytesDown uint64
	// ShardReduceSeconds is the wall-clock time the coordinator spent
	// waiting on each shard's range reduction this round, indexed by
	// shard (nil outside transport shard tiers).
	ShardReduceSeconds []float64
	// WALAppends/WALSnapshots are the cumulative durable-log record
	// appends and snapshot writes as of this round (zero outside
	// durable runs, and for rounds replayed from an existing log).
	WALAppends, WALSnapshots uint64
}

// Observer consumes a run's progress as it happens. The engine, the
// transport coordinator (RunServerPeers and the durable server), and
// the flsim roles all publish to one: OnRoundStart fires before a
// round's fan-out, OnRoundEnd after its stats are final, and OnRunEnd
// exactly once when the run returns (nil on success).
//
// Starts and ends each arrive in round order, every round at most once,
// and a round's end follows its start. Under a bounded-staleness window
// W (Config.Staleness) a round starts at its phase A and ends at its
// seal W steps later, so starts lead ends by at most W: the stream reads
// start 1 … start W+1, end 1, start W+2, end 2, … and W = 0 is the
// strict start/end alternation. A run that completes ends every round it
// started. A run stopped early — MaxTime, HaltAfter, or an error — ends
// with up to W rounds started and never ended: their phase A ran, their
// seal did not, and no RoundEvent exists for them.
//
// Calls are synchronous on the run's coordinator goroutine, at round
// boundaries only — never inside worker loops — so an implementation
// must return promptly, and needs no locking against the run itself.
// Observers are passive: they receive copies of the round record and
// cannot affect the trajectory, the rng streams, or the durable log.
type Observer interface {
	OnRoundStart(round int)
	OnRoundEnd(ev RoundEvent)
	OnRunEnd(err error)
}

// Collector is the built-in Observer that accumulates every round
// event in order. The engine rebuilds Result.Stats with one; attach
// your own to capture the same slice without waiting for Run to
// return.
type Collector struct {
	Events []RoundEvent
}

func (c *Collector) OnRoundStart(int)         {}
func (c *Collector) OnRoundEnd(ev RoundEvent) { c.Events = append(c.Events, ev) }
func (c *Collector) OnRunEnd(error)           {}

// MultiObserver fans one event stream out to several observers,
// invoking them in argument order; nil entries are skipped. The
// result is never nil (with no non-nil arguments it is a no-op
// observer).
func MultiObserver(obs ...Observer) Observer {
	var mo multiObserver
	for _, o := range obs {
		if o != nil {
			mo = append(mo, o)
		}
	}
	return mo
}

type multiObserver []Observer

func (mo multiObserver) OnRoundStart(round int) {
	for _, o := range mo {
		o.OnRoundStart(round)
	}
}

func (mo multiObserver) OnRoundEnd(ev RoundEvent) {
	for _, o := range mo {
		o.OnRoundEnd(ev)
	}
}

func (mo multiObserver) OnRunEnd(err error) {
	for _, o := range mo {
		o.OnRunEnd(err)
	}
}
