// The durable coordinator's round bodies and resume preambles: the
// direct-mode and routed-mode round loops of durable.go, each the
// recoverable twin of runServerDirect / RunServerPeers with WAL
// appends at the seal, release, and finish boundaries, plus the
// preambles that finish a crashed round from its logged seal.
package transport

import (
	"fmt"
	"time"

	"fedsparse/internal/gs"
	"fedsparse/internal/sparse"
	"fedsparse/internal/wal"
)

// directRound runs one durable direct-mode round: gather RoundMetas,
// gather shard reductions, select, log the seal, seal the shards, log
// the release, release the clients, log the finish. Every recv/send
// recovers through rejoins; the fill-query round trip inside selection
// does not (a shard death there errors the run — documented scope
// limit).
func (s *durServer) directRound(m int) error {
	g := s.group
	var weightedLoss float64
	maxLen := 0
	for id := range s.clients {
		msg, err := s.recvClientRound(id, m)
		if err != nil {
			return err
		}
		meta, ok := msg.(RoundMeta)
		if !ok {
			return fmt.Errorf("transport: round %d: client %d sent %T, want RoundMeta (gradient payloads go to the shards)", m, id, msg)
		}
		if meta.Round != m || meta.ClientID != id {
			return fmt.Errorf("transport: round %d: stale metadata (round %d from client %d)", m, meta.Round, meta.ClientID)
		}
		if meta.UploadLen < 0 || meta.UploadLen > s.dim {
			return fmt.Errorf("transport: round %d: client %d reported upload length %d outside [0, %d]", m, id, meta.UploadLen, s.dim)
		}
		weightedLoss += s.weights[id] / s.totalWeight * meta.BatchLoss
		maxLen = max(maxLen, meta.UploadLen)
	}

	g.mergedIdx = g.mergedIdx[:0]
	g.mergedSum = g.mergedSum[:0]
	g.mergedRank = g.mergedRank[:0]
	for sid := range g.conns {
		t0 := time.Now()
		res, err := s.recvShardResult(sid, m, maxLen)
		g.reduceSecs[sid] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		g.mergedIdx = append(g.mergedIdx, res.Idx...)
		g.mergedSum = append(g.mergedSum, res.Sum...)
		g.mergedRank = append(g.mergedRank, res.MinRank...)
	}
	merged := gs.RangeAgg{Idx: g.mergedIdx, Sum: g.mergedSum, MinRank: g.mergedRank}
	meta := gs.DirectMeta{
		NumClients: len(s.clients),
		MaxLen:     maxLen,
		Fill: func(kappa int) ([]gs.FillCand, error) {
			return g.fill(m, kappa)
		},
	}
	main, _, err := s.strategy.SelectDirect(g.sel, merged, meta, s.cfg.K, 0)
	if err != nil {
		return err
	}
	var sealScale float64
	if s.cfg.QuantBits > 0 {
		sealScale = sparse.QuantizeInPlace(main.Values, s.cfg.QuantBits)
	}
	g.spans = gs.MemberSpans(main.Indices, g.bounds, g.spans)

	// Seal boundary: the selection is durable before any shard learns
	// it, so a crash between here and the sends re-issues it verbatim.
	// Spans holds len(shards)+1 offsets into Members.
	offs := s.spanOffs[:0]
	offs = append(offs, 0)
	for _, sp := range g.spans {
		offs = append(offs, offs[len(offs)-1]+len(sp))
	}
	s.spanOffs = offs
	if err := s.logSync(&wal.Seal{Round: m, Loss: weightedLoss, Scale: sealScale,
		Bits: s.cfg.QuantBits, Members: main.Indices, Spans: offs}); err != nil {
		return err
	}
	if err := s.crashAt(BoundarySealLogged, m); err != nil {
		return err
	}
	for sid := range g.conns {
		seal := RoundSeal{Round: m, Members: g.spans[sid], Bits: s.cfg.QuantBits, Scale: sealScale}
		if err := s.sendShardSeal(sid, m, seal, true); err != nil {
			return err
		}
	}
	if err := s.crashAt(BoundarySealSent, m); err != nil {
		return err
	}

	elems := len(main.Indices)
	if err := s.logSync(&wal.Release{Round: m, Loss: weightedLoss, Elems: elems}); err != nil {
		return err
	}
	if err := s.crashAt(BoundaryReleaseLogged, m); err != nil {
		return err
	}
	rel := RoundRelease{Round: m, Elems: elems}
	for id := range s.clients {
		if err := s.sendClientGated(id, m, rel); err != nil {
			return err
		}
	}

	if err := s.logSync(&wal.Finish{Round: m, Ints: []int64{int64(elems)}, Floats: []float64{weightedLoss}}); err != nil {
		return err
	}
	if err := s.crashAt(BoundaryFinishLogged, m); err != nil {
		return err
	}
	s.finishRound(RoundRecord{Round: m, Loss: weightedLoss, DownlinkElems: elems})
	return nil
}

// gatherUploads collects and validates every client's round-m Upload
// (the routed data plane, validateUpload as in RunServerPeers), with
// rejoin recovery and stale-discard. It fills s.uploads and returns
// the weighted loss.
func (s *durServer) gatherUploads(m int) (float64, error) {
	var weightedLoss float64
	for id := range s.clients {
		msg, err := s.recvClientRound(id, m)
		if err != nil {
			return 0, err
		}
		up, ok := msg.(Upload)
		if !ok {
			return 0, fmt.Errorf("transport: round %d: expected Upload, got %T", m, msg)
		}
		s.seenToken++
		if err := validateUpload(up, m, id, s.cfg.QuantBits, s.seen, s.seenToken); err != nil {
			return 0, err
		}
		s.uploads[id] = gs.ClientUpload{Pairs: sparse.Vec{Idx: up.Idx, Val: up.Val}, Weight: s.weights[id]}
		weightedLoss += s.weights[id] / s.totalWeight * up.BatchLoss
	}
	return weightedLoss, nil
}

// routedBroadcast aggregates the gathered uploads into the round's
// Broadcast (copied out of the scratch, quantized onto its global
// grid).
func (s *durServer) routedBroadcast(m int) Broadcast {
	agg, _ := s.strategy.AggregateInto(s.scratch, s.uploads, s.cfg.K, 0)
	bc := Broadcast{
		Round: m,
		Idx:   append([]int(nil), agg.Indices...),
		Val:   append([]float64(nil), agg.Values...),
	}
	if s.cfg.QuantBits > 0 {
		bc.Bits = s.cfg.QuantBits
		bc.Scale = sparse.QuantizeInPlace(bc.Val, s.cfg.QuantBits)
	}
	return bc
}

// routedRound runs one durable routed round: gather uploads,
// aggregate, log the seal (member indices and scalars — the values
// are recomputed on resume from re-sent uploads, never logged), send
// the broadcast, log release and finish. The release record carries no
// separate message in routed mode; the boundary exists so the crash
// matrix is uniform across topologies.
func (s *durServer) routedRound(m int) error {
	weightedLoss, err := s.gatherUploads(m)
	if err != nil {
		return err
	}
	bc := s.routedBroadcast(m)
	if err := s.logSync(&wal.Seal{Round: m, Loss: weightedLoss, Scale: bc.Scale,
		Bits: bc.Bits, Members: bc.Idx}); err != nil {
		return err
	}
	if err := s.crashAt(BoundarySealLogged, m); err != nil {
		return err
	}
	for id := range s.clients {
		if err := s.sendClientGated(id, m, bc); err != nil {
			return err
		}
	}
	if err := s.crashAt(BoundarySealSent, m); err != nil {
		return err
	}
	if err := s.logSync(&wal.Release{Round: m, Loss: weightedLoss, Elems: len(bc.Idx)}); err != nil {
		return err
	}
	if err := s.crashAt(BoundaryReleaseLogged, m); err != nil {
		return err
	}
	if err := s.logSync(&wal.Finish{Round: m, Ints: []int64{int64(len(bc.Idx))}, Floats: []float64{weightedLoss}}); err != nil {
		return err
	}
	if err := s.crashAt(BoundaryFinishLogged, m); err != nil {
		return err
	}
	s.finishRound(RoundRecord{Round: m, Loss: weightedLoss, DownlinkElems: len(bc.Idx)})
	return nil
}

// resumeDirectSeal finishes a direct-mode round whose seal is already
// logged: re-release the clients (each rejoining client that already
// holds the round is skipped; duplicates are discarded client-side),
// re-issue the seal to shards that never received it, and close the
// round in the log. Clients are released FIRST: a shard that was
// already sealed is parked serving the downlink and only rejoins once
// its next control-plane send fails, which requires released clients
// to drive it there — releasing first makes both orders converge.
func (s *durServer) resumeDirectSeal(seal *wal.Seal, release *wal.Release) error {
	p := seal.Round
	s.startRound(p)
	elems := len(seal.Members)
	if len(seal.Spans) != len(s.group.conns)+1 || seal.Spans[0] != 0 || seal.Spans[len(seal.Spans)-1] != elems {
		return fmt.Errorf("transport: resume: seal for round %d has %d span offsets over %d members, want %d",
			p, len(seal.Spans), elems, len(s.group.conns)+1)
	}
	for i := 1; i < len(seal.Spans); i++ {
		if seal.Spans[i] < seal.Spans[i-1] {
			return fmt.Errorf("transport: resume: seal for round %d has non-monotone span offsets", p)
		}
	}
	if release == nil {
		if err := s.logSync(&wal.Release{Round: p, Loss: seal.Loss, Elems: elems}); err != nil {
			return err
		}
	}
	rel := RoundRelease{Round: p, Elems: elems}
	for id := range s.clients {
		if err := s.sendClientGated(id, p, rel); err != nil {
			return err
		}
	}
	for sid := range s.group.conns {
		span := seal.Members[seal.Spans[sid]:seal.Spans[sid+1]]
		msg := RoundSeal{Round: p, Members: span, Bits: seal.Bits, Scale: seal.Scale}
		if err := s.sendShardSeal(sid, p, msg, false); err != nil {
			return err
		}
	}
	if err := s.logSync(&wal.Finish{Round: p, Ints: []int64{int64(elems)}, Floats: []float64{seal.Loss}}); err != nil {
		return err
	}
	s.finishRound(RoundRecord{Round: p, Loss: seal.Loss, DownlinkElems: elems})
	s.round = p + 1
	return nil
}

// resumeRoutedSeal finishes a routed round whose seal is logged. The
// log holds indices and scalars only, never the aggregate's values —
// so the round's broadcast is RE-DERIVED: every client's ring resends
// its round-p upload (the ack's NeedFrom is p), the aggregation is
// recomputed, and the result is verified bit-exact against the logged
// seal before anything is re-sent. A mismatch means the recovery
// inputs diverged from the original round and the resume refuses to
// continue.
func (s *durServer) resumeRoutedSeal(seal *wal.Seal, release *wal.Release) error {
	p := seal.Round
	s.startRound(p)
	weightedLoss, err := s.gatherUploads(p)
	if err != nil {
		return err
	}
	bc := s.routedBroadcast(p)
	if len(bc.Idx) != len(seal.Members) {
		return fmt.Errorf("transport: divergent recovery: round %d re-aggregated to %d members, seal logged %d",
			p, len(bc.Idx), len(seal.Members))
	}
	for i, j := range bc.Idx {
		if j != seal.Members[i] {
			return fmt.Errorf("transport: divergent recovery: round %d re-aggregated member %d is %d, seal logged %d",
				p, i, j, seal.Members[i])
		}
	}
	if bc.Scale != seal.Scale || bc.Bits != seal.Bits {
		return fmt.Errorf("transport: divergent recovery: round %d re-aggregated grid (%d, %v), seal logged (%d, %v)",
			p, bc.Bits, bc.Scale, seal.Bits, seal.Scale)
	}
	if weightedLoss != seal.Loss {
		return fmt.Errorf("transport: divergent recovery: round %d re-gathered loss %v, seal logged %v",
			p, weightedLoss, seal.Loss)
	}
	for id := range s.clients {
		if err := s.sendClientGated(id, p, bc); err != nil {
			return err
		}
	}
	if release == nil {
		if err := s.logSync(&wal.Release{Round: p, Loss: weightedLoss, Elems: len(bc.Idx)}); err != nil {
			return err
		}
	}
	if err := s.logSync(&wal.Finish{Round: p, Ints: []int64{int64(len(bc.Idx))}, Floats: []float64{weightedLoss}}); err != nil {
		return err
	}
	s.finishRound(RoundRecord{Round: p, Loss: weightedLoss, DownlinkElems: len(bc.Idx)})
	s.round = p + 1
	return nil
}
