package core

import (
	"ddc/internal/cube"
	"ddc/internal/grid"
)

// StorageCells returns the number of int64 values the structure retains
// (subtotals, row-sum group storage, and leaf tiles). Because everything
// is allocated lazily, this is proportional to the data for sparse and
// clustered cubes — the property Section 5 argues for.
func (t *Tree) StorageCells() int {
	if t.root == noRec {
		return 0
	}
	return t.storageRec(t.root, t.n)
}

func (t *Tree) storageRec(nd int32, ext int) int {
	n := t.node(nd)
	if n.leaf >= 0 {
		return t.leafCells
	}
	if n.box < 0 {
		return 0
	}
	c := 0
	for ci := int32(0); ci < 1<<uint(t.d); ci++ {
		c += t.boxStorage(t.ar.boxes.at(n.box+ci), ext/2)
		c += t.storageRec(n.child+ci, ext/2)
	}
	return c
}

// ForEachNonZero calls fn for every cell with a nonzero value, passing
// logical coordinates. Pending range deltas (RangeAdd) are composed on
// the fly, so fn sees the values queries see. The point passed to fn is
// reused between calls.
func (t *Tree) ForEachNonZero(fn func(p grid.Point, v int64)) {
	t.ForEachNonZeroUntil(func(p grid.Point, v int64) bool {
		fn(p, v)
		return true
	})
}

// ForEachNonZeroUntil is ForEachNonZero with early termination: fn
// returning false stops the walk immediately. It reports whether the
// walk ran to completion. Like the other iteration methods it only
// reads the tree and is safe for concurrent callers.
func (t *Tree) ForEachNonZeroUntil(fn func(p grid.Point, v int64) bool) bool {
	logical := make(grid.Point, t.d)
	merged := t.pending.Len() != 0
	cont := t.forEachInRangeRec(t.ar, t.root, make(grid.Point, t.d), t.n, nil, nil, func(q grid.Point, v int64) bool {
		for i := 0; i < t.d; i++ {
			logical[i] = q[i] + t.origin[i]
		}
		if merged {
			pv, _ := t.pending.Sum(logical, logical)
			if v += pv; v == 0 {
				return true
			}
		}
		return fn(logical, v)
	})
	if !cont {
		return false
	}
	return t.forEachPendingOnlyUntil(nil, nil, fn)
}

// forEachPendingOnlyUntil yields, in logical coordinates, every cell
// whose merged value is nonzero purely because of pending range deltas
// (its stored value is zero) — the second pass of a merged iteration.
// rlo/rhi optionally restrict the walk to an inclusive logical box
// (both nil means unbounded). Reports whether the walk ran to
// completion.
func (t *Tree) forEachPendingOnlyUntil(rlo, rhi grid.Point, fn func(p grid.Point, v int64) bool) bool {
	if t.pending.Len() == 0 {
		return true
	}
	s := getQueryScratch(t.d)
	defer putQueryScratch(s)
	blo := make(grid.Point, t.d)
	bhi := make(grid.Point, t.d)
	for bi := 0; bi < t.pending.Len(); bi++ {
		lo, hi, _ := t.pending.Box(bi)
		empty := false
		for i := 0; i < t.d; i++ {
			blo[i], bhi[i] = lo[i], hi[i]
			if rlo != nil {
				blo[i], bhi[i] = max(blo[i], rlo[i]), min(bhi[i], rhi[i])
			}
			if blo[i] > bhi[i] {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		cont := grid.ForEachInBoxUntil(blo, bhi, func(p grid.Point) bool {
			if t.getWithScratch(s, p) != 0 {
				return true // already yielded by the storage pass
			}
			// Yield each pending-only cell from the first box covering
			// it; later boxes see it as already handled.
			for bj := 0; bj < bi; bj++ {
				if t.pending.Cells(bj, p, p) != 0 {
					return true
				}
			}
			v, _ := t.pending.Sum(p, p)
			if v == 0 {
				return true
			}
			return fn(p, v)
		})
		if !cont {
			return false
		}
	}
	return true
}

// NonZeroCells returns the number of nonzero cells.
func (t *Tree) NonZeroCells() int {
	n := 0
	t.ForEachNonZero(func(grid.Point, int64) { n++ })
	return n
}

// Stats summarises the allocated structure, for observability.
type Stats struct {
	Height       int // tree levels from root to leaf tiles
	Nodes        int // allocated primary-tree nodes
	LeafTiles    int // allocated leaf tiles
	Boxes        int // allocated overlay boxes
	Delegates    int // boxes still in delegating (grown) mode
	StorageCells int // total int64 values retained, incl. group stores
}

// TreeStats walks the structure and returns its Stats.
func (t *Tree) TreeStats() Stats {
	s := Stats{StorageCells: t.StorageCells()}
	for n := t.n; n > t.cfg.Tile; n /= 2 {
		s.Height++
	}
	s.Height++ // the leaf-tile level
	if t.root != noRec {
		t.statsRec(t.root, &s)
	}
	return s
}

func (t *Tree) statsRec(nd int32, s *Stats) {
	n := t.node(nd)
	if n.absent() {
		return
	}
	s.Nodes++
	if n.leaf >= 0 {
		s.LeafTiles++
		return
	}
	for ci := int32(0); ci < 1<<uint(t.d); ci++ {
		switch t.ar.boxes.at(n.box + ci).kind {
		case boxAbsent:
		case boxDelegate:
			s.Boxes++
			s.Delegates++
		default:
			s.Boxes++
		}
		t.statsRec(n.child+ci, s)
	}
}

// Compact rebuilds the tree from its nonzero cells into a fresh arena,
// releasing storage retained for cells that have returned to zero (leaf
// tiles, B_c entries, group nodes) and the slack of the old slabs.
// Long-running cubes with churn (values set and later zeroed) call this
// at quiet moments; bounds and configuration are preserved and every
// query answers identically afterwards.
func (t *Tree) Compact() {
	t.FlushPending()
	t.bumpEpoch()
	old, oldRoot := t.ar, t.root
	t.ar, t.root = &arena{}, noRec
	if oldRoot == noRec {
		return
	}
	// Re-add every nonzero cell into the fresh arena with the same
	// bounds.
	q := make(grid.Point, t.d)
	var ops cube.OpCounter
	t.forEachInRangeRec(old, oldRoot, make(grid.Point, t.d), t.n, nil, nil, func(p grid.Point, v int64) bool {
		copy(q, p)
		t.ensureRoot()
		t.addRec(&ops, t.root, t.zero, t.n, q, v, 0)
		return true
	})
	t.ops.AtomicAdd(ops)
}

// ForEachNonZeroInRange calls fn for every nonzero cell inside the
// inclusive logical box [lo, hi]. Subtrees disjoint from the box are
// pruned, so the cost is proportional to the allocated tree inside the
// box, not the whole cube. Pending range deltas are composed like in
// ForEachNonZero. The point passed to fn is reused.
func (t *Tree) ForEachNonZeroInRange(lo, hi grid.Point, fn func(p grid.Point, v int64)) error {
	return t.ForEachNonZeroInRangeUntil(lo, hi, func(p grid.Point, v int64) bool {
		fn(p, v)
		return true
	})
}

// ForEachNonZeroInRangeUntil is ForEachNonZeroInRange with early
// termination: fn returning false stops the walk immediately (the error
// stays nil — only an invalid box errors).
func (t *Tree) ForEachNonZeroInRangeUntil(lo, hi grid.Point, fn func(p grid.Point, v int64) bool) error {
	if err := t.checkRange(lo, hi); err != nil {
		return err
	}
	ilo := t.internalize(lo)
	ihi := t.internalize(hi)
	logical := make(grid.Point, t.d)
	merged := t.pending.Len() != 0
	cont := t.forEachInRangeRec(t.ar, t.root, make(grid.Point, t.d), t.n, ilo, ihi, func(q grid.Point, v int64) bool {
		for i := 0; i < t.d; i++ {
			logical[i] = q[i] + t.origin[i]
		}
		if merged {
			pv, _ := t.pending.Sum(logical, logical)
			if v += pv; v == 0 {
				return true
			}
		}
		return fn(logical, v)
	})
	if cont {
		t.forEachPendingOnlyUntil(lo, hi, fn)
	}
	return nil
}

// forEachInRangeRec walks the nonzero cells below the record nd of
// arena ar inside the inclusive internal box [lo, hi] (nil bounds mean
// the whole subtree), pruning subtrees disjoint from it and reporting
// internal coordinates; fn returning false stops the walk. Reports
// whether the walk ran to completion. The arena is a parameter so
// Compact can walk the old structure while filling a fresh one.
func (t *Tree) forEachInRangeRec(ar *arena, nd int32, anchor grid.Point, ext int, lo, hi grid.Point, fn func(p grid.Point, v int64) bool) bool {
	if nd == noRec {
		return true
	}
	n := ar.nodes.at(nd)
	if n.absent() {
		return true
	}
	// Prune regions disjoint from the box.
	if lo != nil {
		for i := 0; i < t.d; i++ {
			if anchor[i] > hi[i] || anchor[i]+ext-1 < lo[i] {
				return true
			}
		}
	}
	if ext == t.cfg.Tile {
		leaf := ar.leaves.region(n.leaf, 0, t.leafCells)
		p := make(grid.Point, t.d)
		idx := make([]int, t.d)
		for off := 0; ; {
			if v := leaf[off]; v != 0 {
				in := true
				for i := 0; i < t.d; i++ {
					p[i] = anchor[i] + idx[i]
					if lo != nil && (p[i] < lo[i] || p[i] > hi[i]) {
						in = false
						break
					}
				}
				if in && !fn(p, v) {
					return false
				}
			}
			i := t.d - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < t.cfg.Tile {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				return true
			}
			off = 0
			for j := 0; j < t.d; j++ {
				off = off*t.cfg.Tile + idx[j]
			}
		}
	}
	k := ext / 2
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		childAnchor := anchor.Clone()
		for i := 0; i < t.d; i++ {
			if ci&(1<<uint(i)) != 0 {
				childAnchor[i] += k
			}
		}
		if !t.forEachInRangeRec(ar, n.child+int32(ci), childAnchor, k, lo, hi, fn) {
			return false
		}
	}
	return true
}
