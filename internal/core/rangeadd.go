package core

import (
	"fmt"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// RangeAdd adds delta to every cell of the inclusive logical box
// [lo, hi] in O(d + pending) — independent of the box volume. The
// update is recorded as a pending box — the lazy-composition trick of
// the segment-tree range-update literature (Mishra arXiv:1311.6093; Lau
// & Ritossa arXiv:2101.02003) applied at the root of the DDC instead of
// per node — and composed into every subsequent query: the tree-only
// corner descents are followed by one pass over the pending list per
// query box, adding delta times the box's intersection with the queried
// region (O(d) per pending box, once per query box, not once per
// corner). Grow, Materialize and Compact push pending deltas down into
// the tree (FlushPending), after which queries pay nothing extra. In
// AutoGrow mode out-of-bounds corners first grow the cube to include
// them (Section 5).
//
// Like Add, RangeAdd requires exclusive access to the tree. Long-running
// cubes interleave RangeAdd bursts with Materialize/Compact at quiet
// moments to keep the pending pass short.
func (t *Tree) RangeAdd(lo, hi grid.Point, delta int64) error {
	_, err := t.RangeAddOps(lo, hi, delta)
	return err
}

// RangeAddOps is RangeAdd returning, in addition, the operation counts
// of this one call; see AddOps.
func (t *Tree) RangeAddOps(lo, hi grid.Point, delta int64) (cube.OpCounter, error) {
	var ops cube.OpCounter
	if len(lo) != t.d || len(hi) != t.d {
		return ops, fmt.Errorf("%w: box has %d/%d dims, cube has %d", grid.ErrDims, len(lo), len(hi), t.d)
	}
	// Bump before applying: even a failed or zero-delta update
	// conservatively invalidates cached corner prefix values.
	t.bumpEpoch()
	if t.cfg.AutoGrow {
		if err := t.checkPoint(lo); err != nil {
			if gerr := t.GrowToInclude(lo); gerr != nil {
				return ops, gerr
			}
		}
		if err := t.checkPoint(hi); err != nil {
			if gerr := t.GrowToInclude(hi); gerr != nil {
				return ops, gerr
			}
		}
	}
	if err := t.checkRange(lo, hi); err != nil {
		return ops, err
	}
	if delta == 0 {
		return ops, nil
	}
	ops.NodeVisits++
	ops.UpdateCells++
	// An identical outstanding box absorbs the update, so an update and
	// its exact inverse (the what-if rollback pattern) leave no pending
	// residue.
	t.pending.Add(lo, hi, delta)
	t.ops.AtomicAdd(ops)
	return ops, nil
}

// PendingBoxes returns the number of outstanding lazy range updates
// (each adds O(d) to every query box until flushed).
func (t *Tree) PendingBoxes() int { return t.pending.Len() }

// FlushPending pushes every outstanding range update down into the
// overlay tree, one point update per covered cell — O(|box| log^d n)
// per box, the cost RangeAdd deferred. Grow, Materialize and Compact
// call it first so structural rebuilds always see materialised storage;
// it requires exclusive access like any mutation.
func (t *Tree) FlushPending() {
	if t.pending.Len() == 0 {
		return
	}
	boxes := t.pending
	t.pending = grid.Boxes{}
	t.bumpEpoch()
	var ops cube.OpCounter
	q := t.pbuf
	for bi := 0; bi < boxes.Len(); bi++ {
		lo, hi, delta := boxes.Box(bi)
		grid.ForEachInBox(lo, hi, func(p grid.Point) {
			t.ensureRoot()
			for i := range q {
				q[i] = p[i] - t.origin[i]
			}
			t.addRec(&ops, t.root, t.zero, t.n, q, delta, 0)
		})
	}
	t.ops.AtomicAdd(ops)
}

// pendingSum adds the pending boxes' share of the range sum over the
// inclusive logical box [lo, hi] — one pass over the list, Σ delta ·
// |box ∩ [lo, hi]| — counting one cell read and one KindPending
// contribution per pending box the query box meets. Signed corner
// clipping would compute the same integer 2^d times over: it is
// inclusion–exclusion of that intersection, exact mod 2^64.
func (t *Tree) pendingSum(lo, hi grid.Point, ops *cube.OpCounter) int64 {
	v, hits := t.pending.Sum(lo, hi)
	ops.QueryCells += uint64(hits)
	ops.Contribs[KindPending] += uint64(hits)
	return v
}
