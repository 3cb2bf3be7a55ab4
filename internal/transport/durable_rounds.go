// The durable coordinator's resume preambles: finishing a crashed round
// from its logged seal. The rounds themselves are the shared bodies
// (coordRun.routedRound / directRound, role_coord.go) run over the
// durable server's healing links and journal.
package transport

import (
	"fmt"
	"slices"

	"fedsparse/internal/wal"
)

// resumeDirectSeal finishes a direct-mode round whose seal is already
// logged: re-release the clients (each rejoining client that already
// holds the round is skipped; duplicates are discarded client-side),
// re-issue the seal — the logged cutoff and each shard's fill span — to
// shards that never received it, and close the round in the log.
// Clients are released FIRST: a shard that was already sealed is parked
// serving the downlink and only rejoins once its next control-plane send
// fails, which requires released clients to drive it there — releasing
// first makes both orders converge.
func (s *durServer) resumeDirectSeal(seal *wal.Seal, release *wal.Release, slot *coordSlot) error {
	p := seal.Round
	elems, fill := seal.Elems, len(seal.Members)
	if seal.Kappa < 0 || elems < fill {
		return fmt.Errorf("transport: resume: seal for round %d cuts at rank %d with %d of %d members past it",
			p, seal.Kappa, fill, elems)
	}
	if len(seal.Spans) != len(s.sh.conns)+1 || seal.Spans[0] != 0 || seal.Spans[len(seal.Spans)-1] != fill {
		return fmt.Errorf("transport: resume: seal for round %d has %d span offsets over %d members, want %d",
			p, len(seal.Spans), fill, len(s.sh.conns)+1)
	}
	for i := 1; i < len(seal.Spans); i++ {
		if seal.Spans[i] < seal.Spans[i-1] {
			return fmt.Errorf("transport: resume: seal for round %d has non-monotone span offsets", p)
		}
	}
	if release == nil {
		if err := s.journal.logSync(&wal.Release{Round: p, Loss: seal.Loss, Elems: elems}); err != nil {
			return err
		}
	}
	if err := s.downlink(p, RoundRelease{Round: p, Elems: elems}); err != nil {
		return err
	}
	s.noRedo = true
	for sid := range s.sh.conns {
		span := seal.Members[seal.Spans[sid]:seal.Spans[sid+1]]
		msg := RoundSeal{Round: p, Kappa: seal.Kappa, Members: span, Bits: seal.Bits, Scale: seal.Scale}
		if err := s.sh.send(sid, p, msg); err != nil {
			return err
		}
	}
	s.noRedo = false
	return s.finishResumed(slot, seal.Loss, elems)
}

// resumeRoutedSeal finishes a routed round whose seal is logged. The
// log holds indices and scalars only, never the aggregate's values —
// so the round's broadcast is RE-DERIVED: every client's ring resends
// its round-p upload (the ack's NeedFrom is p), the aggregation is
// recomputed, and the result is verified bit-exact against the logged
// seal before anything is re-sent. A mismatch means the recovery
// inputs diverged from the original round and the resume refuses to
// continue.
func (s *durServer) resumeRoutedSeal(seal *wal.Seal, release *wal.Release, slot *coordSlot) error {
	p := seal.Round
	weightedLoss, err := s.gatherUploads(p, slot)
	if err != nil {
		return err
	}
	bc := s.aggregate(p, slot.dec.K)
	if !slices.Equal(bc.Idx, seal.Members) || seal.Kappa != 0 || seal.Elems != len(bc.Idx) ||
		bc.Bits != seal.Bits || bc.Scale != seal.Scale || weightedLoss != seal.Loss {
		return fmt.Errorf("transport: divergent recovery: round %d re-derived %d members on grid (%d, %v) at loss %v, seal logged %d on (%d, %v) at %v",
			p, len(bc.Idx), bc.Bits, bc.Scale, weightedLoss, len(seal.Members), seal.Bits, seal.Scale, seal.Loss)
	}
	if err := s.downlink(p, bc); err != nil {
		return err
	}
	if release == nil {
		if err := s.journal.logSync(&wal.Release{Round: p, Loss: weightedLoss, Elems: len(bc.Idx)}); err != nil {
			return err
		}
	}
	return s.finishResumed(slot, weightedLoss, len(bc.Idx))
}

// finishResumed closes the re-issued round in the log and the events.
func (s *durServer) finishResumed(slot *coordSlot, loss float64, elems int) error {
	p := slot.dec.Round
	if err := s.journal.logSync(&wal.Finish{Round: p, Ints: []int64{int64(elems)}, Floats: []float64{loss}}); err != nil {
		return err
	}
	s.finish(p, loss, elems, slot)
	return nil
}
