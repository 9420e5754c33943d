package psum

import "ddc/internal/bctree"

// auto is the density-adaptive default backend. A group starts as the
// sparse classic B_c tree — storage proportional to its nonzero keys,
// the Section 5 property clustered cubes rely on — and rebuilds itself
// once as the flat blocked layout when it becomes dense enough that the
// flat layout is the smaller of the two. Promotion is one-way: a dense
// group stays flat even if values later cancel back to zero.
//
// The switch happens inside Add, which already requires exclusive
// access, so readers need no extra synchronisation.
//
// The dense phase is held inline, so a read of a promoted group goes
// from the auto value straight to its cells. Every sparse group pays
// for the inline fields, so the struct keeps one universe (bl.m) for
// both phases and nothing else: 40 bytes, the 48-byte size class.
type auto struct {
	tr *bctree.Tree // sparse phase; nil once promoted
	bl blocked      // dense phase; bl.cells is nil until promoted
}

// autoDenseShift sets the break-even: a group promotes once its stored
// key count reaches half its universe (universe>>autoDenseShift,
// rounded up).
//
// The threshold is set on live bytes, not cells, as a group costs them
// inside internal/core: a sparse group is its auto struct, its B-tree
// and a 24-byte side-table slot; a flat group is only its cells in the
// tree's cell slab (no auto struct, no slice header). Measured with
// runtime.MemStats over 2000 auto groups in each phase (fanout 16,
// random keys, amd64), bytes per group:
//
//	universe  keys  sparse (Adds)  sparse (bulk)  flat
//	    16       8          341            360     152
//	    32      16          488            485     296
//	    64      32         1629           1013     584
//	   256     128         5376           3365    2344
//	  1024     256        11064           6501    9368
//	  1024     512        21414          13045    9368
//
// A sparse group costs about 41 bytes per key when built by Adds and
// 25 when bulk-built; a flat one about 9.1 bytes per universe slot
// (8/7 int64 cells). At a quarter of the universe a bulk-built B-tree
// is still the smaller; at half, the flat layout is 28-58% smaller at
// every universe measured, so the break-even stays at half. (A group
// promoted while its box's other group is still sparse keeps its auto
// struct until both are flat.) StorageCells counts only int64 cells —
// it omits the B-tree's keys and pointers — so a promoted group may
// report more cells while holding fewer bytes.
const autoDenseShift = 1

// dense reports whether keys stored keys justify the flat layout over
// a universe of the given size (normalized to at least 1).
func dense(keys, universe int) bool {
	return keys > 0 && keys >= (universe+1)>>autoDenseShift
}

func newAuto(universe, fanout int) *auto {
	return sparseAuto(newClassic(universe, fanout))
}

func sparseAuto(c classic) *auto {
	return &auto{tr: c.tr, bl: blocked{m: c.m}}
}

// autoFromSlice picks the layout directly from the slice's nonzero
// count, so bulk builds and snapshot loads never build the B-tree only
// to promote it.
func autoFromSlice(values []int64, fanout int) *auto {
	if BuildsFlat(Auto, values) {
		return &auto{bl: blockedFromSlice(values)}
	}
	return sparseAuto(classicFromSlice(values, fanout))
}

// sparse views the sparse phase as the classic backend it is.
func (a *auto) sparse() *classic { return &classic{tr: a.tr, m: a.bl.m} }

// promote rebuilds the group as blocked in one pass straight from the
// B-tree leaves into the flat level 0 — no universe-sized scratch.
func (a *auto) promote() {
	b := makeBlocked(a.bl.m)
	a.tr.ForEach(func(k int, v int64) { b.cells[k] = v })
	FlatFold(b.cells, b.m)
	a.tr, a.bl = nil, b
}

func (a *auto) PrefixSum(key int) int64 {
	v, _ := a.PrefixSumVisits(key)
	return v
}

func (a *auto) PrefixSumVisits(key int) (int64, uint64) {
	if a.tr == nil {
		return a.bl.PrefixSumVisits(key)
	}
	return a.tr.PrefixSumVisits(key)
}

// Add ignores keys outside the universe, as blocked does, so the kind
// behaves the same on either side of promotion. The promoting Add
// reports the rebuild's cell writes on top of its own.
func (a *auto) Add(key int, delta int64) uint64 {
	if a.tr == nil {
		return a.bl.Add(key, delta)
	}
	if key < 0 || key >= a.bl.m {
		return 0
	}
	w := a.sparse().Add(key, delta)
	if dense(a.tr.Len(), a.bl.m) {
		a.promote()
		w += uint64(a.bl.StorageCells())
	}
	return w
}

func (a *auto) Get(key int) int64 {
	if a.tr == nil {
		return a.bl.Get(key)
	}
	return a.tr.Get(key)
}

func (a *auto) Total() int64 {
	if a.tr == nil {
		return a.bl.Total()
	}
	return a.tr.Total()
}

func (a *auto) Universe() int { return a.bl.m }

// Grow keeps the current layout; a sparse group re-checks its density
// at its next Add.
func (a *auto) Grow(newUniverse int) {
	if a.tr == nil {
		a.bl.Grow(newUniverse)
		return
	}
	a.bl.m = max(a.bl.m, newUniverse)
}

func (a *auto) Len() int {
	if a.tr == nil {
		return a.bl.Len()
	}
	return a.sparse().Len()
}

func (a *auto) StorageCells() int {
	if a.tr == nil {
		return a.bl.StorageCells()
	}
	return a.tr.StorageCells()
}

func (a *auto) ForEach(fn func(key int, value int64)) {
	if a.tr == nil {
		a.bl.ForEach(fn)
		return
	}
	a.sparse().ForEach(fn)
}

func (a *auto) Kind() Kind { return Auto }
