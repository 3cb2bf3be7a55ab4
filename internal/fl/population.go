// The GS engine's roster: the active-set bookkeeping behind
// Config.Cohort, Config.Churn, and Config.Dropout. Every run has one
// popState and every round's participants come from its draw, in phase
// A, at any Staleness. The draw is the legacy rng.Perm(n)[:count]
// sequence (pinned through the tests' pickParticipantsInto), and it
// consumes no rng when nothing is sampled, so full-cohort runs are the
// plain engine. The transport package's population server mirrors
// exactly this logic over the wire — see internal/transport/population.go.
package fl

import (
	"fmt"
	"math/rand"
)

// popState tracks the drawable population across rounds. active stays
// sorted ascending; activeSet is its membership bitmap. Both are
// allocated once per run.
type popState struct {
	cohort  int
	churn   func(round int) (join, leave []int)
	dropout func(client, round int) bool

	active    []int
	activeSet []bool
}

// newPopState builds the roster with everyone active; with no population
// knob set it stays that way and draws everyone.
func newPopState(cfg *Config, nClients int) *popState {
	ps := &popState{
		cohort:    cfg.Cohort,
		churn:     cfg.Churn,
		dropout:   cfg.Dropout,
		active:    make([]int, nClients),
		activeSet: make([]bool, nClients),
	}
	for i := range ps.active {
		ps.active[i] = i
		ps.activeSet[i] = true
	}
	return ps
}

// applyChurn runs the round's membership changes and returns the event
// count (joins + leaves). Join/leave lists are validated strictly —
// duplicate transitions, out-of-range IDs, or an emptied population are
// configuration errors, not silent repairs — so churn schedules stay
// exactly reproducible.
func (ps *popState) applyChurn(round int) (int, error) {
	if ps.churn == nil {
		return 0, nil
	}
	join, leave := ps.churn(round)
	for _, ci := range join {
		if ci < 0 || ci >= len(ps.activeSet) {
			return 0, fmt.Errorf("fl: round %d churn: join of out-of-range client %d", round, ci)
		}
		if ps.activeSet[ci] {
			return 0, fmt.Errorf("fl: round %d churn: client %d joined but is already active", round, ci)
		}
		ps.activeSet[ci] = true
	}
	for _, ci := range leave {
		if ci < 0 || ci >= len(ps.activeSet) {
			return 0, fmt.Errorf("fl: round %d churn: leave of out-of-range client %d", round, ci)
		}
		if !ps.activeSet[ci] {
			return 0, fmt.Errorf("fl: round %d churn: client %d left but is not active", round, ci)
		}
		ps.activeSet[ci] = false
	}
	if len(join)+len(leave) > 0 {
		ps.active = ps.active[:0]
		for ci, on := range ps.activeSet {
			if on {
				ps.active = append(ps.active, ci)
			}
		}
		if len(ps.active) == 0 {
			return 0, fmt.Errorf("fl: round %d churn: every client left — the population may not be emptied", round)
		}
	}
	return len(join) + len(leave), nil
}

// drawCount is the cohort size for a drawable population of n and
// whether picking it takes a shuffle: a Cohort in (0, n) shuffles,
// anything else is everyone and draws nothing.
func (ps *popState) drawCount(n int) (count int, shuffle bool) {
	if 0 < ps.cohort && ps.cohort < n {
		return ps.cohort, true
	}
	return n, false
}

// drawInto draws the round's cohort from the active population into dst
// (sorted client IDs): zero rng draws when nothing is sampled, one
// Fisher–Yates over the active count otherwise.
func (ps *popState) drawInto(dst []int, rng *rand.Rand) []int {
	n := len(ps.active)
	count, shuffle := ps.drawCount(n)
	dst = drawPositions(dst, count, shuffle, n, rng)
	// Map drawn positions to client IDs. active ascends, so the sorted
	// positions map to sorted IDs — no re-sort needed.
	for i, pos := range dst {
		dst[i] = ps.active[pos]
	}
	return dst
}

// draw advances the roster one round: apply the round's churn, draw the
// cohort from the active population into dst, and filter it through the
// dropout schedule. drawn is the pre-dropout draw size; the drawable
// population is len(ps.active) afterwards.
func (ps *popState) draw(dst []int, round int, rng *rand.Rand) (cohort []int, drawn, churnEvents int, err error) {
	if churnEvents, err = ps.applyChurn(round); err != nil {
		return nil, 0, 0, err
	}
	dst = ps.drawInto(dst, rng)
	cohort, err = ps.applyDropout(dst, round)
	return cohort, len(dst), churnEvents, err
}

// CohortSampler is the exported form of the engine's population draw,
// for coordinators that mirror it over the wire (the transport
// package's population server): the same churn validation, the same
// Fisher–Yates consumption, the same dropout filtering — one
// implementation, so the wire draw cannot drift from the engine's.
// Single-goroutine state; the slice returned by Draw stays valid until
// the next Draw call.
type CohortSampler struct {
	ps           *popState
	participants []int
}

// NewCohortSampler builds a sampler over a population of nClients.
// cohort is the per-round draw size (0 = the whole active population);
// churn and dropout follow the fl.Config contracts and may be nil.
func NewCohortSampler(nClients, cohort int, churn func(round int) (join, leave []int), dropout func(client, round int) bool) (*CohortSampler, error) {
	if nClients < 1 {
		return nil, fmt.Errorf("fl: cohort sampler needs a positive population, got %d", nClients)
	}
	if cohort < 0 || cohort > nClients {
		return nil, fmt.Errorf("fl: cohort %d outside [0, %d]", cohort, nClients)
	}
	cfg := Config{Cohort: cohort, Churn: churn, Dropout: dropout}
	return &CohortSampler{ps: newPopState(&cfg, nClients)}, nil
}

// Draw advances one round: apply the round's churn, draw the cohort
// from the active population (consuming rng exactly like the engine —
// zero draws when the whole population participates, one Fisher–Yates
// otherwise), and filter it through the dropout schedule. population
// and drawn are the active count and the pre-dropout draw size (the
// engine's Population/CohortSize stats). The returned cohort is sorted
// ascending and reused across calls.
func (cs *CohortSampler) Draw(round int, rng *rand.Rand) (cohort []int, population, drawn, churnEvents int, err error) {
	cohort, drawn, churnEvents, err = cs.ps.draw(cs.participants[:0], round, rng)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	cs.participants = cohort
	return cohort, len(cs.ps.active), drawn, churnEvents, nil
}

// applyDropout filters the drawn cohort through the deadline-dropout
// schedule in place. It consumes no rng, so downstream draws are
// unperturbed. An emptied round is an error (the aggregation would
// otherwise divide by a zero participant weight).
func (ps *popState) applyDropout(cohort []int, round int) ([]int, error) {
	if ps.dropout == nil {
		return cohort, nil
	}
	kept := cohort[:0]
	for _, ci := range cohort {
		if !ps.dropout(ci, round) {
			kept = append(kept, ci)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("fl: round %d: every drawn participant dropped out", round)
	}
	return kept, nil
}
