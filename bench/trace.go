package main

import (
	"sort"
	"time"

	"fedsparse/internal/fl"
	"fedsparse/internal/transport"
)

// Tracing lives entirely on this side of the program's boundaries: every
// connection end handed to a role is a tracedConn, and the coordinator's
// fl.Observer supplies the round spans. Nothing inside internal/ is
// instrumented.

// role says which part of the deployment holds a connection end.
type role int

const (
	roleCoordinator role = iota
	roleClient           // a RunClient or a RunVirtualHost: the uploading side
	roleShard
	numRoles
)

var roleNames = [numRoles]string{"coordinator", "client", "shard"}

// class sorts wire traffic by what it carries.
type class int

const (
	classHandshake class = iota // enrolment; outside every round
	classUp                     // gradient payload towards the aggregation
	classDown                   // aggregated payload back to the clients
	classCtrl                   // per-round scalars, seals, shard results
	numTrafficClasses
)

// span is one timed interval at a layer boundary. Spans of one round
// share Round; Parent indexes the span that caused this one in the
// written trace (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Actor  string `json:"actor"`
	Round  int    `json:"round"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

var classNames = [numTrafficClasses]string{"handshake", "up", "down", "ctrl"}

// classify names a message's traffic class, the round it belongs to, the
// number of sparse elements (coordinate/value pairs) it carries and the
// number of index-like integers among its payload (coordinates and
// ranks, 4 wire bytes each).
func classify(msg any) (c class, round, elems, indexInts int) {
	switch m := msg.(type) {
	case transport.MuxFrame:
		return classify(m.Msg)
	case transport.Upload:
		return classUp, m.Round, len(m.Idx), len(m.Idx)
	case transport.SliceUpload:
		return classUp, m.Round, len(m.Idx), len(m.Idx) + len(m.Rank)
	case transport.Broadcast:
		return classDown, m.Round, len(m.Idx), len(m.Idx)
	case transport.SliceBroadcast:
		return classDown, m.Round, len(m.Idx), len(m.Idx)
	case transport.RoundMeta:
		return classCtrl, m.Round, 0, 0
	case transport.RoundRelease:
		return classCtrl, m.Round, 0, 0
	case transport.SliceFetch:
		return classCtrl, m.Round, 0, 0
	case transport.ShardResult:
		return classCtrl, m.Round, len(m.Idx), len(m.Idx) + len(m.MinRank)
	case transport.RoundSeal:
		return classCtrl, m.Round, 0, len(m.Members)
	case transport.FillQuery:
		return classCtrl, m.Round, 0, 0
	case transport.FillCandidates:
		return classCtrl, m.Round, len(m.Idx), len(m.Idx) + len(m.Client)
	case transport.CohortAssign:
		return classCtrl, m.Round, 0, len(m.Members)
	}
	return classHandshake, 0, 0, 0
}

// tracedConn is the connection end a role receives. It always sorts the
// bytes it sends by class (that is what makes wire_bytes_per_round an
// exact per-round count with the handshake excluded); with tracing set it
// also records one span per Send and per Recv, named by direction and
// class ("send.up", "recv.ctrl", ...). A connection end is
// driven by one goroutine in every lockstep role, so the counters need
// no locking; they are read after the roles returned.
type tracedConn struct {
	inner transport.Conn
	role  role
	actor string

	bytes     [numTrafficClasses]uint64
	msgs      [numTrafficClasses]uint64
	elems     [numTrafficClasses]uint64
	indexInts [numTrafficClasses]uint64

	tracing   bool
	spans     []span
	muxFrames uint64           // MuxFrame envelopes sent
	members   map[int]struct{} // distinct virtual IDs those envelopes named
}

func (c *tracedConn) Send(msg any) error {
	cl, round, elems, idx := classify(msg)
	bc, _ := c.inner.(transport.ByteCounter)
	var before uint64
	if bc != nil {
		before = bc.BytesSent()
	}
	var t0 time.Time
	if c.tracing {
		t0 = time.Now()
	}
	err := c.inner.Send(msg)
	if c.tracing {
		c.spans = append(c.spans, span{Name: "send." + classNames[cl], Actor: c.actor, Round: round,
			Start: t0.UnixNano(), End: time.Now().UnixNano()})
		if mf, ok := msg.(transport.MuxFrame); ok {
			c.muxFrames++
			if c.members == nil {
				c.members = map[int]struct{}{}
			}
			c.members[mf.VID] = struct{}{}
		}
	}
	if bc != nil {
		c.bytes[cl] += bc.BytesSent() - before
	}
	c.msgs[cl]++
	c.elems[cl] += uint64(elems)
	c.indexInts[cl] += uint64(idx)
	return err
}

func (c *tracedConn) Recv() (any, error) {
	if !c.tracing {
		return c.inner.Recv()
	}
	t0 := time.Now()
	msg, err := c.inner.Recv()
	cl, round, _, _ := classify(msg)
	c.spans = append(c.spans, span{Name: "recv." + classNames[cl], Actor: c.actor, Round: round,
		Start: t0.UnixNano(), End: time.Now().UnixNano()})
	return msg, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// SetReadDeadline keeps the handshake deadlines of the wrapped
// connection working (transport bounds a first Recv only on conns that
// offer it).
func (c *tracedConn) SetReadDeadline(t time.Time) error {
	if rd, ok := c.inner.(interface{ SetReadDeadline(time.Time) error }); ok {
		return rd.SetReadDeadline(t)
	}
	return nil
}

func (c *tracedConn) BytesSent() uint64 {
	if bc, ok := c.inner.(transport.ByteCounter); ok {
		return bc.BytesSent()
	}
	return 0
}

func (c *tracedConn) BytesReceived() uint64 {
	if bc, ok := c.inner.(transport.ByteCounter); ok {
		return bc.BytesReceived()
	}
	return 0
}

// roundObserver is the fl.Observer every workload's coordinator (or
// engine) publishes to: it timestamps the round boundaries, which define
// setup_s, round_ms and the timed section.
type roundObserver struct {
	rounds       int    // configured rounds of the repetition
	onFirstRound func() // runs before the first round's start is stamped
	onLastRound  func() // runs after the last round's end is stamped
	starts       []int64
	ends         []int64
	events       []fl.RoundEvent
}

func (o *roundObserver) OnRoundStart(int) {
	if len(o.starts) == 0 && o.onFirstRound != nil {
		o.onFirstRound()
	}
	o.starts = append(o.starts, time.Now().UnixNano())
}

func (o *roundObserver) OnRoundEnd(ev fl.RoundEvent) {
	o.ends = append(o.ends, time.Now().UnixNano())
	o.events = append(o.events, ev)
	if len(o.ends) == o.rounds && o.onLastRound != nil {
		o.onLastRound()
	}
}

func (o *roundObserver) OnRunEnd(error) {}

// assembleTrace turns one traced repetition into a span tree: per actor
// and round one root span ("<role>.round"), with the actor's send/recv
// spans of that round as children. The coordinator's roots are the
// observer's OnRoundStart→OnRoundEnd intervals; another actor's round m
// runs from the end of its last round m−1 message to the end of its last
// round m message (its first round starts at its first round-1 message).
func assembleTrace(obs *roundObserver, conns []*tracedConn) []span {
	byActor := map[string][]span{}
	roleOf := map[string]role{}
	for _, c := range conns {
		roleOf[c.actor] = c.role
		for _, s := range c.spans {
			if s.Round > 0 {
				byActor[c.actor] = append(byActor[c.actor], s)
			}
		}
	}
	actors := make([]string, 0, len(byActor))
	for a := range byActor {
		actors = append(actors, a)
	}
	sort.Strings(actors)

	var out []span
	for _, actor := range actors {
		ss := byActor[actor]
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Round != ss[j].Round {
				return ss[i].Round < ss[j].Round
			}
			return ss[i].Start < ss[j].Start
		})
		r := roleOf[actor]
		prevEnd := ss[0].Start
		for i := 0; i < len(ss); {
			j := i
			for j < len(ss) && ss[j].Round == ss[i].Round {
				j++
			}
			round := ss[i].Round
			root := span{Name: roleNames[r] + ".round", Actor: actor, Round: round, Parent: -1,
				Start: prevEnd, End: ss[j-1].End}
			if r == roleCoordinator && round <= len(obs.ends) {
				root.Start, root.End = obs.starts[round-1], obs.ends[round-1]
			}
			rootID := len(out)
			out = append(out, root)
			for _, s := range ss[i:j] {
				s.Name = roleNames[r] + "." + s.Name
				s.Parent = rootID
				out = append(out, s)
			}
			prevEnd = ss[j-1].End
			i = j
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it its
// children cover. Children of one parent never overlap here (they are
// consecutive calls on one goroutine), so the covered part is the sum of
// the children clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}
