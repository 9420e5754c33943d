package core

import (
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// makeGroups builds the d row-sum group stores for an overlay box of side
// k, implementing the recursion of Section 4.2:
//
//   - d = 1: a box needs no row-sum values at all — a one-dimensional
//     target cell is either before, inside (descend) or after (subtotal)
//     the box, so the group list is empty.
//   - d = 2: each group is one-dimensional and stored in the configured
//     prefix-sum backend occupying the paper's B_c tree slot
//     (Section 4.1 is the classic backend; internal/psum holds the
//     cache-optimized alternatives).
//   - d > 2: each group is a (d-1)-dimensional Dynamic Data Cube.
func (t *Tree) makeGroups(k int) []group {
	switch {
	case t.d == 1:
		return nil
	case t.d == 2:
		kind := psum.Kind(t.cfg.Backend)
		return []group{
			{ps: psum.New(kind, k, t.cfg.Fanout)},
			{ps: psum.New(kind, k, t.cfg.Fanout)},
		}
	default:
		gs := make([]group, t.d)
		dims := make([]int, t.d-1)
		for i := range dims {
			dims[i] = k
		}
		for j := range gs {
			gs[j].tr = newNested(dims, t.cfg, t.ops)
		}
		return gs
	}
}

// prefix returns the group's prefix sum at l. Operation counts flow
// through the caller's per-call counter, so prefix leaves both the store
// and any shared counter untouched — concurrent readers never write
// shared state.
func (g *group) prefix(l []int, ops *cube.OpCounter) int64 {
	if g.ps != nil {
		v, visits := g.ps.PrefixSumVisits(l[0])
		ops.QueryCells += visits
		return v
	}
	return g.tr.prefixWithOps(grid.Point(l), ops)
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
