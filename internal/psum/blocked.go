package psum

// blocked is a flat-array blocked b-ary tree with branching factor 8:
// every node is exactly one 64-byte cache line of int64 cells, all
// levels live in one backing slice, and both query and update use pure
// shift/mask index arithmetic — no pointers, no searches, no branches
// on data. This is the "bottom-up blocked" layout family of Pibiri &
// Venturini (arXiv:2006.14552) specialized to b = 8, with running
// prefixes stored inside each block.
//
// Every 8-cell block holds the running prefix sums of its underlying
// values, not the values themselves. Level 0's underlying values are
// the raw keys; level l+1's underlying value j is the total of level
// l's block j (its last in-block prefix). Levels shrink by 8x until a
// single cell remains, so the total footprint is < 8/7 of the universe.
//
//	PrefixSum(key): let i = key+1 (the count of covered cells). At
//	each level the partial block contributes one precomputed in-block
//	prefix — a single load — and the complete blocks recurse one level
//	up on i >>= 3. O(log8 k) loads, one cache line each.
//
//	Add(key): at each level, add delta to the containing block's
//	in-block prefixes from the key's offset to the block end — at most
//	8 contiguous writes inside one cache line, branch-free.
//
// The in-block prefixes trade a slightly heavier update (a suffix write
// instead of a single write) for a scan-free query; both paths touch
// exactly one cache line per level.
const (
	bbShift = 3              // branching 8: one cache line of int64 per node
	bbMask  = 1<<bbShift - 1 // within-block index mask
)

type blocked struct {
	m      int       // universe (exclusive key bound)
	levels [][]int64 // levels[0] covers the raw values; views into one allocation
	total  int64
}

// newBlocked returns an all-zero blocked tree over [0, universe).
func newBlocked(universe int) *blocked {
	if universe < 1 {
		universe = 1
	}
	// Level sizes shrink by 8x down to a single top cell.
	sizes := []int{universe}
	for last := universe; last > 1; {
		last = (last + bbMask) >> bbShift
		sizes = append(sizes, last)
	}
	cells := 0
	for _, s := range sizes {
		cells += s
	}
	arr := make([]int64, cells)
	t := &blocked{m: universe, levels: make([][]int64, len(sizes))}
	off := 0
	for l, s := range sizes {
		t.levels[l] = arr[off : off+s : off+s]
		off += s
	}
	return t
}

// blockedFromSlice bulk-builds in one bottom-up pass over the raw
// values.
func blockedFromSlice(values []int64) *blocked {
	t := newBlocked(len(values))
	copy(t.levels[0], values)
	t.fold()
	return t
}

// fold turns level 0, freshly filled with raw values, into in-block
// running prefixes in place and recomputes every upper level and the
// total — one bottom-up pass with no intermediate slice, shared by the
// bulk-build, grow and auto-promotion paths.
func (t *blocked) fold() {
	lvl0 := t.levels[0]
	var run int64
	for j, v := range lvl0 {
		if j&bbMask == 0 {
			run = 0
		}
		run += v
		lvl0[j] = run
	}
	for l := 1; l < len(t.levels); l++ {
		prev, lvl := t.levels[l-1], t.levels[l]
		var run int64
		for j := range lvl {
			if j&bbMask == 0 {
				run = 0
			}
			// Underlying value j is block j's total: its last in-block
			// prefix.
			last := j<<bbShift | bbMask
			if last >= len(prev) {
				last = len(prev) - 1
			}
			run += prev[last]
			lvl[j] = run
		}
	}
	top := t.levels[len(t.levels)-1]
	t.total = top[len(top)-1]
}

func (t *blocked) PrefixSum(key int) int64 {
	v, _ := t.PrefixSumVisits(key)
	return v
}

func (t *blocked) PrefixSumVisits(key int) (int64, uint64) {
	if key < 0 {
		return 0, 0
	}
	if key >= t.m {
		return t.total, 1
	}
	var s int64
	var visits uint64
	i := key + 1
	for l := 0; i > 0; l++ {
		// The i&7 leading cells of the block containing i contribute one
		// precomputed in-block prefix; i&7 == 0 contributes nothing.
		if o := i & bbMask; o != 0 {
			s += t.levels[l][i&^bbMask|(o-1)]
			visits++
		}
		i >>= bbShift
	}
	return s, visits
}

func (t *blocked) Add(key int, delta int64) uint64 {
	if key < 0 || key >= t.m || delta == 0 {
		return 0
	}
	t.total += delta
	var writes uint64
	i := key
	for l := range t.levels {
		lvl := t.levels[l]
		// The containing block's in-block prefixes from the key's offset
		// to the block end all cover the key: a contiguous suffix write
		// inside one cache line.
		end := i&^bbMask + bbMask + 1
		if end > len(lvl) {
			end = len(lvl)
		}
		writes += uint64(end - i)
		for j := i; j < end; j++ {
			lvl[j] += delta
		}
		i >>= bbShift
	}
	return writes
}

func (t *blocked) Get(key int) int64 {
	if key < 0 || key >= t.m {
		return 0
	}
	return t.rawAt(key)
}

// rawAt recovers a raw value from the level-0 in-block prefixes.
func (t *blocked) rawAt(key int) int64 {
	v := t.levels[0][key]
	if key&bbMask != 0 {
		v -= t.levels[0][key-1]
	}
	return v
}

func (t *blocked) Total() int64  { return t.total }
func (t *blocked) Universe() int { return t.m }

// Grow rebuilds into a wider flat layout, recovering the raw values
// straight into the new level 0 and refolding every level — O(new
// universe).
func (t *blocked) Grow(newUniverse int) {
	if newUniverse <= t.m {
		return
	}
	nt := newBlocked(newUniverse)
	raw := nt.levels[0]
	for j := 0; j < t.m; j++ {
		raw[j] = t.rawAt(j)
	}
	nt.fold()
	*t = *nt
}

func (t *blocked) Len() int {
	n := 0
	for j := range t.levels[0] {
		if t.rawAt(j) != 0 {
			n++
		}
	}
	return n
}

func (t *blocked) StorageCells() int {
	cells := 0
	for _, lvl := range t.levels {
		cells += len(lvl)
	}
	return cells
}

func (t *blocked) ForEach(fn func(key int, value int64)) {
	for j := range t.levels[0] {
		if v := t.rawAt(j); v != 0 {
			fn(j, v)
		}
	}
}

func (t *blocked) Kind() Kind { return Blocked }
