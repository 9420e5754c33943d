package ddc

import (
	"errors"
	"slices"

	"ddc/internal/logrec"
)

// ErrClosedScenario is returned when a finished scenario is used again.
var ErrClosedScenario = errors.New("ddc: scenario already committed or rolled back")

// Scenario is a what-if overlay on a cube: hypothetical updates are
// applied to the live structure (so every query sees them at full
// speed) while their inverses are recorded, and Rollback undoes them
// exactly — the interactive "what-if" analysis Section 1 of the paper
// says dynamic updates enable. Scenarios rely on the inverse property
// of addition, the same property the index itself is built on.
//
// A scenario is not isolated: other readers of the cube see the
// hypothetical state until Rollback. Nest scenarios by creating a new
// one after the previous is resolved; interleaved scenarios roll back
// in LIFO order only if their cells do not overlap (deltas commute).
type Scenario struct {
	c      Cube
	undo   []logrec.Mutation // applied Add and RangeAdd records, oldest first
	closed bool
}

// Begin starts a what-if scenario on the cube.
func Begin(c Cube) *Scenario { return &Scenario{c: c} }

// Add applies a hypothetical delta to a cell.
func (s *Scenario) Add(p []int, delta int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: delta})
}

// AddRange applies a hypothetical delta to every cell of the inclusive
// box [lo, hi] — one O(d) lazy update on a DynamicCube — and records the
// exact inverse box for Rollback. On a DynamicCube the undo composes
// with the original pending entry and cancels it without leaving any
// residue in the structure.
func (s *Scenario) AddRange(lo, hi []int, delta int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: delta})
}

// apply applies an additive mutation and records a copy for Rollback.
func (s *Scenario) apply(m logrec.Mutation) error {
	if s.closed {
		return ErrClosedScenario
	}
	if err := m.Apply(s.c); err != nil {
		return err
	}
	m.Lo, m.Hi = slices.Clone(m.Lo), slices.Clone(m.Hi)
	s.undo = append(s.undo, m)
	return nil
}

// Set applies a hypothetical value to a cell.
func (s *Scenario) Set(p []int, value int64) error {
	if s.closed {
		return ErrClosedScenario
	}
	return s.Add(p, value-s.c.Get(p))
}

// Cube returns the underlying cube for querying the hypothetical state.
func (s *Scenario) Cube() Cube { return s.c }

// Pending returns the number of hypothetical updates applied so far.
func (s *Scenario) Pending() int { return len(s.undo) }

// Rollback undoes every hypothetical update, in reverse order, and
// closes the scenario.
//
// Undo is best-effort: a failing inverse (for example a poisoned WAL
// underneath the cube) does not abandon the rest of the log. Every
// entry is attempted, the errors are joined, and only the entries that
// actually failed are kept — in their original order — so the caller
// can retry Rollback after clearing the fault. The scenario closes only
// when every inverse has been applied.
func (s *Scenario) Rollback() error {
	if s.closed {
		return ErrClosedScenario
	}
	var errs []error
	var failed []logrec.Mutation
	for i := len(s.undo) - 1; i >= 0; i-- {
		// The exact inverse: additive kinds undo by negating the delta.
		inv := s.undo[i]
		inv.Delta = -inv.Delta
		if err := inv.Apply(s.c); err != nil {
			errs = append(errs, err)
			failed = append(failed, s.undo[i])
		}
	}
	if len(errs) != 0 {
		// failed was collected newest-first; restore original order so a
		// retry replays the survivors newest-first again.
		slices.Reverse(failed)
		s.undo = failed
		return errors.Join(errs...)
	}
	s.closed = true
	s.undo = nil
	return nil
}

// Commit keeps the hypothetical updates and closes the scenario.
func (s *Scenario) Commit() error {
	if s.closed {
		return ErrClosedScenario
	}
	s.closed = true
	s.undo = nil
	return nil
}
