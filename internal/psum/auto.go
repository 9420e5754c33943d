package psum

// auto is the density-adaptive default backend. A group starts as the
// sparse classic B_c tree — storage proportional to its nonzero keys,
// the Section 5 property clustered cubes rely on — and rebuilds itself
// once as the flat blocked layout when it becomes dense enough that the
// flat layout is the smaller of the two. Promotion is one-way: a dense
// group stays flat even if values later cancel back to zero.
//
// The switch happens inside Add, which already requires exclusive
// access, so readers need no extra synchronisation. The classic phase
// is held by value, so a sparse group makes the same allocations as a
// classic one and is one pointer wider.
type auto struct {
	cl classic  // sparse phase; zeroed once promoted
	bl *blocked // dense phase; nil until promoted
}

// autoDenseShift sets the break-even: a group promotes once its stored
// key count reaches half its universe (universe>>autoDenseShift,
// rounded up).
//
// The threshold is set on live bytes, not cells. Measured with
// runtime.MemStats over 2000 groups (fanout 16, random keys, amd64),
// bytes per group:
//
//	universe  keys  classic (Adds)  classic (bulk)  blocked
//	    16       8          288             285        288
//	    32      16          416             413        448
//	    64      32         1557             941        768
//	   256     128         5304            3293       2832
//	  1024     256        10992            6429       9648
//	  1024     512        21342           12973       9648
//
// A classic group costs about 41 bytes per key when built by Adds and
// 25 when bulk-built; blocked costs about 9.4 bytes per universe slot
// (8/7 int64 cells plus headers). At a quarter of the universe a
// bulk-built B-tree is still the smaller; at half, blocked is 18-55%
// smaller from 64 slots up. Below that a B-tree of one or two leaves
// and a flat layout of a few cache lines are within 32 bytes of each
// other, and promoting there too keeps one rule. StorageCells counts
// only int64 cells — it omits the B-tree's keys and pointers — so a
// promoted group may report more cells while holding fewer bytes.
const autoDenseShift = 1

// dense reports whether keys stored keys justify the flat layout over
// a universe of the given size (normalized to at least 1).
func dense(keys, universe int) bool {
	return keys > 0 && keys >= (universe+1)>>autoDenseShift
}

func newAuto(universe, fanout int) *auto {
	return &auto{cl: *newClassic(universe, fanout)}
}

// autoFromSlice picks the layout directly from the slice's nonzero
// count, so bulk builds and snapshot loads never build the B-tree only
// to promote it.
func autoFromSlice(values []int64, fanout int) *auto {
	nonzero := 0
	for _, v := range values {
		if v != 0 {
			nonzero++
		}
	}
	if dense(nonzero, len(values)) {
		return &auto{bl: blockedFromSlice(values)}
	}
	return &auto{cl: *classicFromSlice(values, fanout)}
}

// promote rebuilds the group as blocked in one pass straight from the
// B-tree leaves into the flat level 0 — no universe-sized scratch.
func (a *auto) promote() {
	b := newBlocked(a.cl.m)
	raw := b.levels[0]
	a.cl.tr.ForEach(func(k int, v int64) { raw[k] = v })
	b.fold()
	a.cl, a.bl = classic{}, b
}

func (a *auto) PrefixSum(key int) int64 {
	v, _ := a.PrefixSumVisits(key)
	return v
}

func (a *auto) PrefixSumVisits(key int) (int64, uint64) {
	if a.bl != nil {
		return a.bl.PrefixSumVisits(key)
	}
	return a.cl.tr.PrefixSumVisits(key)
}

// Add ignores keys outside the universe, as blocked does, so the kind
// behaves the same on either side of promotion. The promoting Add
// reports the rebuild's cell writes on top of its own.
func (a *auto) Add(key int, delta int64) uint64 {
	if a.bl != nil {
		return a.bl.Add(key, delta)
	}
	if key < 0 || key >= a.cl.m {
		return 0
	}
	w := a.cl.Add(key, delta)
	if dense(a.cl.tr.Len(), a.cl.m) {
		a.promote()
		w += uint64(a.bl.StorageCells())
	}
	return w
}

func (a *auto) Get(key int) int64 {
	if a.bl != nil {
		return a.bl.Get(key)
	}
	return a.cl.Get(key)
}

func (a *auto) Total() int64 {
	if a.bl != nil {
		return a.bl.Total()
	}
	return a.cl.Total()
}

func (a *auto) Universe() int {
	if a.bl != nil {
		return a.bl.Universe()
	}
	return a.cl.Universe()
}

// Grow keeps the current layout; a sparse group re-checks its density
// at its next Add.
func (a *auto) Grow(newUniverse int) {
	if a.bl != nil {
		a.bl.Grow(newUniverse)
		return
	}
	a.cl.Grow(newUniverse)
}

func (a *auto) Len() int {
	if a.bl != nil {
		return a.bl.Len()
	}
	return a.cl.Len()
}

func (a *auto) StorageCells() int {
	if a.bl != nil {
		return a.bl.StorageCells()
	}
	return a.cl.StorageCells()
}

func (a *auto) ForEach(fn func(key int, value int64)) {
	if a.bl != nil {
		a.bl.ForEach(fn)
		return
	}
	a.cl.ForEach(fn)
}

func (a *auto) Kind() Kind { return Auto }
