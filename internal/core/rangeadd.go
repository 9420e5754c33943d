package core

import (
	"fmt"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// pendingBox is one lazily-composed range update: every cell of the
// inclusive logical box [lo, hi] is raised by delta, but the per-cell
// pushdown into the overlay tree is deferred. Queries compose pending
// boxes on the fly (a prefix query adds delta times the volume of the
// box's intersection with the queried region — O(d) per box), so a
// range update costs O(d) regardless of how many cells it covers: the
// lazy-composition trick of the segment-tree range-update literature
// (Mishra arXiv:1311.6093; Lau & Ritossa arXiv:2101.02003) applied at
// the root of the DDC instead of per node.
type pendingBox struct {
	lo, hi grid.Point // inclusive logical corners, always inside bounds
	delta  int64
}

// contains reports whether the box contains the logical point p.
func (b *pendingBox) contains(p grid.Point) bool {
	for i, v := range p {
		if v < b.lo[i] || v > b.hi[i] {
			return false
		}
	}
	return true
}

// RangeAdd adds delta to every cell of the inclusive logical box
// [lo, hi] in O(d + pending) — independent of the box volume. The
// update is recorded as a pending box-delta composed into every
// subsequent query; Grow, Materialize and Compact push pending deltas
// down into the tree (FlushPending), after which queries pay nothing
// extra. In AutoGrow mode out-of-bounds corners first grow the cube to
// include them (Section 5).
//
// Like Add, RangeAdd requires exclusive access to the tree. Each
// outstanding pending box adds O(d) to every prefix query until it is
// flushed, so long-running cubes interleave RangeAdd bursts with
// Materialize/Compact at quiet moments.
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
	// Merge with an identical outstanding box so an update and its exact
	// inverse (the what-if rollback pattern) leave no pending residue.
	for i := range t.pending {
		b := &t.pending[i]
		if b.lo.Equal(lo) && b.hi.Equal(hi) {
			b.delta += delta
			if b.delta == 0 {
				t.pending = append(t.pending[:i], t.pending[i+1:]...)
			}
			t.ops.AtomicAdd(ops)
			return ops, nil
		}
	}
	t.pending = append(t.pending, pendingBox{lo: lo.Clone(), hi: hi.Clone(), delta: delta})
	t.ops.AtomicAdd(ops)
	return ops, nil
}

// PendingBoxes returns the number of outstanding lazy range updates
// (each adds O(d) to every query until flushed).
func (t *Tree) PendingBoxes() int { return len(t.pending) }

// FlushPending pushes every outstanding range update down into the
// overlay tree, one point update per covered cell — O(|box| log^d n)
// per box, the cost RangeAdd deferred. Grow, Materialize and Compact
// call it first so structural rebuilds always see materialised storage;
// it requires exclusive access like any mutation.
func (t *Tree) FlushPending() {
	if len(t.pending) == 0 {
		return
	}
	boxes := t.pending
	t.pending = nil
	t.bumpEpoch()
	var ops cube.OpCounter
	q := t.pbuf
	for _, b := range boxes {
		grid.ForEachInBox(b.lo, b.hi, func(p grid.Point) {
			t.ensureRoot()
			for i := range q {
				q[i] = p[i] - t.origin[i]
			}
			t.addRec(&ops, t.root, t.zero, t.n, q, b.delta, 0)
		})
	}
	t.ops.AtomicAdd(ops)
}

// pendingAt returns the summed pending deltas covering the logical
// point p.
func (t *Tree) pendingAt(p grid.Point) int64 {
	var s int64
	for i := range t.pending {
		if t.pending[i].contains(p) {
			s += t.pending[i].delta
		}
	}
	return s
}

// pendingPrefix returns the pending contribution to the prefix sum at
// the clamped internal point q: for each box, delta times the volume of
// its intersection with the dominated region. Pending boxes never
// extend beyond the current bounds (Grow flushes first), so the
// internal clamp to n-1 cannot cut one off.
func (t *Tree) pendingPrefix(q grid.Point, ops *cube.OpCounter) int64 {
	var sum int64
	for bi := range t.pending {
		b := &t.pending[bi]
		cells := int64(1)
		for i, v := range q {
			hi := b.hi[i]
			if p := v + t.origin[i]; p < hi {
				hi = p
			}
			w := hi - b.lo[i] + 1
			if w <= 0 {
				cells = 0
				break
			}
			cells *= int64(w)
		}
		if cells != 0 {
			sum += b.delta * cells
			ops.QueryCells++
			ops.Contribs[KindPending]++
		}
	}
	return sum
}

// pendingTotal returns the summed pending deltas over their full boxes.
func (t *Tree) pendingTotal() int64 {
	var s int64
	for i := range t.pending {
		b := &t.pending[i]
		s += b.delta * int64(grid.BoxCells(b.lo, b.hi))
	}
	return s
}
