package core

import (
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// initBox gives an empty overlay box of side k its d row-sum group
// stores, implementing the recursion of Section 4.2:
//
//   - d = 1: a box needs no row-sum values at all — a one-dimensional
//     target cell is either before, inside (descend) or after (subtotal)
//     the box, so the box holds only its subtotal.
//   - d = 2: each group is one-dimensional and stored in the configured
//     prefix-sum backend occupying the paper's B_c tree slot
//     (Section 4.1 is the classic backend; internal/psum holds the
//     cache-optimized alternatives). Groups that start flat (blocked)
//     are laid out in the cells slab; the rest go to the side table.
//   - d > 2: each group is a (d-1)-dimensional Dynamic Data Cube
//     sharing this tree's arena, kept in the side table.
func (t *Tree) initBox(b *boxRec, k int) {
	kind := psum.Kind(t.cfg.Backend)
	switch {
	case t.d == 1:
		b.kind, b.ref = boxFlat, noRec
	case t.d == 2 && psum.BuildsFlat(kind, nil):
		b.kind, b.ref = boxFlat, t.ar.cells.alloc(2*psum.FlatSize(k))
	case t.d == 2:
		b.kind, b.ref = boxSide, t.ar.allocSide(2)
		gs := t.ar.side.region(b.ref, 0, 2)
		for j := range gs {
			gs[j] = group{ps: psum.New(kind, k, t.cfg.Fanout)}
		}
	default:
		dims := make([]int, t.d-1)
		for i := range dims {
			dims[i] = k
		}
		b.kind, b.ref = boxSide, t.ar.allocSide(t.d)
		gs := t.ar.side.region(b.ref, 0, t.d)
		for j := range gs {
			gs[j] = group{tr: t.newNested(dims)}
		}
	}
}

// boxAdd applies a point update at box-local coordinate o to the box's
// groups: the updated cell changes row o_{-j} of group j by delta. drop
// is a d-1 scratch buffer. A d = 2 side box whose groups have both
// turned flat moves into the cells slab.
func (t *Tree) boxAdd(b *boxRec, k int, o grid.Point, delta int64, drop []int, ops *cube.OpCounter) {
	switch b.kind {
	case boxFlat:
		if b.ref == noRec {
			return // d = 1: no groups
		}
		fs := psum.FlatSize(k)
		for j := 0; j < 2; j++ {
			ops.UpdateCells += psum.FlatAdd(t.ar.cells.region(b.ref, j*fs, fs), k, o[1-j], delta)
		}
	case boxSide:
		gs := t.ar.side.region(b.ref, 0, t.d)
		for j := range gs {
			gs[j].add(dropDimInto(drop, o, j), delta, ops)
		}
		if t.d == 2 {
			t.ar.flatten(b, k)
		}
	}
}

// boxPrefix returns the prefix sum of group j of a box of side k at the
// (d-1)-dimensional local coordinate l, counting cells read into ops.
// Counts flow through the caller's per-call counter, so a read leaves
// the store and every shared counter untouched — concurrent readers
// never write shared state.
func (t *Tree) boxPrefix(b *boxRec, k, j int, l []int, ops *cube.OpCounter) int64 {
	if t.d == 2 {
		return t.rowSum2(b, k, j, l[0], ops)
	}
	return t.ar.side.at(b.ref+int32(j)).tr.prefixWithOps(grid.Point(l), ops)
}

// boxStorage returns the int64 values a box of side k retains: its
// subtotal plus its groups' storage.
func (t *Tree) boxStorage(b *boxRec, k int) int {
	switch {
	case b.kind == boxAbsent:
		return 0
	case b.kind == boxFlat && b.ref != noRec:
		return 1 + 2*psum.FlatSize(k)
	case b.kind == boxSide:
		c := 1
		for _, g := range t.ar.side.region(b.ref, 0, t.d) {
			c += g.storageCells()
		}
		return c
	}
	return 1
}

func (g *group) add(l []int, delta int64, ops *cube.OpCounter) {
	if g.ps != nil {
		ops.UpdateCells += g.ps.Add(l[0], delta)
		return
	}
	// Row-sum coordinates are generated internally and always in range.
	if err := g.tr.addWithOps(grid.Point(l), delta, ops); err != nil {
		panic(err)
	}
}

func (g *group) storageCells() int {
	if g.ps != nil {
		return g.ps.StorageCells()
	}
	return g.tr.StorageCells()
}
