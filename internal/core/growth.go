package core

import (
	"fmt"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// Grow doubles the logical domain, expanding it toward negative
// coordinates in every dimension i with before[i] true and toward
// positive coordinates otherwise — Section 5's growth in any direction.
//
// Growth is O(1): the new root's overlay box over the old data is created
// in delegating mode (its subtotal is the old total; its row-sum values
// are answered by prefix queries on the old subtree until Materialize is
// called). All other boxes of the new root are empty.
func (t *Tree) Grow(before []bool) error {
	if len(before) != t.d {
		return fmt.Errorf("%w: before has %d dims, cube has %d", grid.ErrDims, len(before), t.d)
	}
	if t.n*2 > maxSide {
		return fmt.Errorf("%w: side %d would exceed %d", ErrTooLarge, t.n*2, maxSide)
	}
	// Push pending range deltas down first: the delegating box's subtotal
	// is about to freeze the old region's total, and flushing here keeps
	// the invariant that pending boxes lie inside the current bounds.
	t.FlushPending()
	t.bumpEpoch()
	ci := 0
	for i, bf := range before {
		if bf {
			// Old data occupies the high half of a "grow before" dim.
			ci |= 1 << uint(i)
			t.origin[i] -= t.n
		}
	}
	if t.root != noRec {
		// Re-root in place: the old root record moves into slot ci of a
		// fresh child block and the root address now names the new root.
		total := t.Total()
		rec := t.ar.newBlock(1 << uint(t.d))
		root := t.node(t.root)
		*t.node(rec.child + int32(ci)) = *root
		*t.ar.boxes.at(rec.box + int32(ci)) = boxRec{sub: total, ref: noRec, kind: boxDelegate}
		*root = rec
	}
	t.n *= 2
	t.grown = true
	return nil
}

// GrowToInclude grows the cube (doubling as needed, in whichever
// directions p lies) until the logical point p is inside the bounds.
func (t *Tree) GrowToInclude(p grid.Point) error {
	if len(p) != t.d {
		return fmt.Errorf("%w: point has %d dims, cube has %d", grid.ErrDims, len(p), t.d)
	}
	for {
		lo, hi := t.Bounds()
		fits := true
		before := make([]bool, t.d)
		for i, v := range p {
			if v < lo[i] {
				fits = false
				before[i] = true
			} else if v >= hi[i] {
				fits = false
			}
		}
		if fits {
			return nil
		}
		if err := t.Grow(before); err != nil {
			return err
		}
	}
}

// Materialize rebuilds the row-sum groups of every delegating box (left
// behind by Grow) from its child subtree, restoring full O(log^d n)
// query cost for ranges that cut through grown regions. Cost is
// proportional to the number of nonzero cells below delegating boxes.
func (t *Tree) Materialize() {
	t.FlushPending()
	t.bumpEpoch()
	var ops cube.OpCounter
	if t.root != noRec {
		t.materializeRec(&ops, t.root, make(grid.Point, t.d), t.n)
	}
	t.ops.AtomicAdd(ops)
}

func (t *Tree) materializeRec(ops *cube.OpCounter, nd int32, anchor grid.Point, ext int) {
	n := t.node(nd)
	if ext == t.cfg.Tile || n.box < 0 {
		return
	}
	k := ext / 2
	drop := make([]int, t.d)
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		boxAnchor := anchor.Clone()
		for i := 0; i < t.d; i++ {
			if ci&(1<<uint(i)) != 0 {
				boxAnchor[i] += k
			}
		}
		child := n.child + int32(ci)
		if b := t.ar.boxes.at(n.box + int32(ci)); b.kind == boxDelegate {
			t.initBox(b, k)
			o := make(grid.Point, t.d)
			t.forEachInRangeRec(t.ar, child, boxAnchor, k, nil, nil, func(p grid.Point, v int64) bool {
				for i := 0; i < t.d; i++ {
					o[i] = p[i] - boxAnchor[i]
				}
				t.boxAdd(b, k, o, v, drop, ops)
				return true
			})
		}
		t.materializeRec(ops, child, boxAnchor, k)
	}
}

// HasDelegates reports whether any box is still in delegating mode;
// tests and the experiment harness use it.
func (t *Tree) HasDelegates() bool {
	return t.root != noRec && t.hasDelegatesRec(t.root)
}

func (t *Tree) hasDelegatesRec(nd int32) bool {
	n := t.node(nd)
	if n.box < 0 {
		return false
	}
	for ci := int32(0); ci < 1<<uint(t.d); ci++ {
		if t.ar.boxes.at(n.box+ci).kind == boxDelegate || t.hasDelegatesRec(n.child+ci) {
			return true
		}
	}
	return false
}
