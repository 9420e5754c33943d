package core

import (
	"errors"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// Add adds delta to cell p in O(log^d n) (Theorem 2). In AutoGrow mode an
// out-of-bounds p first grows the cube to include it (Section 5).
//
// Updates require exclusive access to the tree: they mutate nodes, use
// the tree's update scratch, and may reshape group stores. Counts are
// accumulated per call and merged atomically, so queries observing the
// shared counter (from other trees) stay race-free.
func (t *Tree) Add(p grid.Point, delta int64) error {
	_, err := t.AddOps(p, delta)
	return err
}

// AddOps is Add returning, in addition, the operation counts of this
// one call (node visits and cells written, including the per-group
// B_c/nested-cube work). The counts are still merged into the shared
// counter; the copy feeds the telemetry layer's per-update attribution.
func (t *Tree) AddOps(p grid.Point, delta int64) (cube.OpCounter, error) {
	// Bump before applying: even a failed or zero-delta update
	// conservatively invalidates cached corner prefix values.
	t.bumpEpoch()
	var ops cube.OpCounter
	if err := t.addWithOps(p, delta, &ops); err != nil {
		return ops, err
	}
	t.ops.AtomicAdd(ops)
	return ops, nil
}

// addWithOps applies one point update, accumulating operation counts
// into ops instead of the tree's shared counter. Nested group trees use
// this entry point so an entire update merges its counts exactly once.
func (t *Tree) addWithOps(p grid.Point, delta int64, ops *cube.OpCounter) error {
	if err := t.checkPoint(p); err != nil {
		if t.cfg.AutoGrow && errors.Is(err, grid.ErrRange) {
			if gerr := t.GrowToInclude(p); gerr != nil {
				return gerr
			}
		} else {
			return err
		}
	}
	if delta == 0 {
		return nil
	}
	t.ensureRoot()
	q := t.pbuf
	for i := range q {
		q[i] = p[i] - t.origin[i]
	}
	t.addRec(ops, t.root, t.zero, t.n, q, delta, 0)
	return nil
}

// Set changes the value of cell p to value.
func (t *Tree) Set(p grid.Point, value int64) error {
	_, err := t.SetOps(p, value)
	return err
}

// SetOps is Set returning, in addition, the operation counts of the
// underlying delta add; see AddOps.
func (t *Tree) SetOps(p grid.Point, value int64) (cube.OpCounter, error) {
	if err := t.checkPoint(p); err != nil {
		if t.cfg.AutoGrow && errors.Is(err, grid.ErrRange) {
			if gerr := t.GrowToInclude(p); gerr != nil {
				return cube.OpCounter{}, gerr
			}
		} else {
			return cube.OpCounter{}, err
		}
	}
	return t.AddOps(p, value-t.Get(p))
}

// addRec descends the covering child of every level (Figure 12), adding
// the difference to the covering box's subtotal and performing one point
// update in each of its d row-sum groups — O(d log^{d-1} k) per level.
// Records and leaf tiles are allocated on the way down; pages never
// move, so the record pointers held across those allocations stay
// valid. anchor and q are read-only; see prefixRec for the scratch
// discipline (updates use the tree's own scratch, which exclusivity
// makes sound).
func (t *Tree) addRec(ops *cube.OpCounter, nd int32, anchor grid.Point, ext int, q grid.Point, delta int64, depth int) {
	ops.NodeVisits++
	n := t.node(nd)
	if ext == t.cfg.Tile {
		if n.leaf < 0 {
			n.leaf = t.ar.leaves.alloc(t.leafCells)
		}
		off := 0
		for i := 0; i < t.d; i++ {
			off = off*t.cfg.Tile + (q[i] - anchor[i])
		}
		t.ar.leaves.region(n.leaf, 0, t.leafCells)[off] += delta
		ops.UpdateCells++
		return
	}
	if n.box < 0 {
		*n = t.ar.newBlock(1 << uint(t.d))
	}
	fr := t.scr.frame(depth, t.d)
	k := ext / 2
	ci := 0
	childAnchor := fr.boxAnchor
	for i := 0; i < t.d; i++ {
		childAnchor[i] = anchor[i]
		if q[i]-anchor[i] >= k {
			ci |= 1 << uint(i)
			childAnchor[i] += k
		}
	}
	b := t.ar.boxes.at(n.box + int32(ci))
	if b.kind == boxAbsent {
		t.initBox(b, k)
	}
	b.sub += delta
	ops.UpdateCells++
	if b.kind != boxDelegate {
		o := fr.o
		for i := 0; i < t.d; i++ {
			o[i] = q[i] - childAnchor[i]
		}
		t.boxAdd(b, k, o, delta, fr.drop, ops)
	}
	t.addRec(ops, n.child+int32(ci), childAnchor, k, q, delta, depth+1)
}
