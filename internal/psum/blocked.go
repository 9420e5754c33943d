package psum

// blocked is a flat-array blocked b-ary tree with branching factor 8:
// every node is exactly one 64-byte cache line of int64 cells, all
// levels lie back to back in one slice (level 0 first), and both query
// and update find each level's offset and size by shift arithmetic —
// no per-level headers, no pointers, no searches, no branches on data.
// This is the "bottom-up blocked" layout family of Pibiri & Venturini
// (arXiv:2006.14552) specialized to b = 8, with running prefixes stored
// inside each block.
//
// Every 8-cell block holds the running prefix sums of its underlying
// values, not the values themselves. Level 0's underlying values are
// the raw keys; level l+1's underlying value j is the total of level
// l's block j (its last in-block prefix). Levels shrink by 8x until a
// single cell remains — the total, so no separate field holds it — and
// the whole footprint is < 8/7 of the universe.
//
//	PrefixSum(key): let i = key+1 (the count of covered cells). At
//	each level the partial block contributes one precomputed in-block
//	prefix — the single cell i-1 — and the complete blocks recurse one
//	level up on i >>= 3. O(log8 k) loads, one cache line each.
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

// The flat kernel: FlatSize, FlatPrefix, FlatAdd and FlatFold operate
// on one layout held in a caller-owned []int64 of exactly
// FlatSize(universe) cells. blocked wraps them around its own slice;
// internal/core calls them directly on regions of its per-tree cell
// slab, so the layout and its arithmetic exist once.

// FlatSize returns the number of cells the flat layout over
// [0, universe) occupies: level 0 plus every level above it, < 8/7 of
// the universe. A universe below 1 is treated as 1.
func FlatSize(universe int) int {
	universe = max(universe, 1)
	n := universe
	for size := universe; size > 1; {
		size = nextLevel(size)
		n += size
	}
	return n
}

// nextLevel returns the size of the level above one of the given size:
// one cell per (possibly partial) 8-cell block.
func nextLevel(size int) int { return (size + bbMask) >> bbShift }

// FlatPrefix returns the sum of the raw values with index <= key in the
// flat layout cells over [0, universe), and the number of cells it
// read. Negative keys yield 0; keys at or beyond the universe yield the
// total (one read).
func FlatPrefix(cells []int64, universe, key int) (int64, uint64) {
	if key < 0 {
		return 0, 0
	}
	if key >= universe {
		return cells[len(cells)-1], 1
	}
	var s int64
	var visits uint64
	for i, off, size := key+1, 0, universe; i > 0; i >>= bbShift {
		// The i&7 leading cells of the block containing i contribute
		// their in-block prefix, cell i-1; i&7 == 0 contributes nothing.
		if i&bbMask != 0 {
			s += cells[off+i-1]
			visits++
		}
		off += size
		size = nextLevel(size)
	}
	return s, visits
}

// FlatAdd adds delta to the raw value at key (keys outside
// [0, universe) and a zero delta are ignored) and returns the number of
// cells written.
func FlatAdd(cells []int64, universe, key int, delta int64) uint64 {
	if key < 0 || key >= universe || delta == 0 {
		return 0
	}
	var writes uint64
	for i, off, size := key, 0, universe; ; i >>= bbShift {
		// The containing block's in-block prefixes from the key's offset
		// to the block end all cover the key: a contiguous suffix write
		// inside one cache line.
		end := min((i|bbMask)+1, size)
		writes += uint64(end - i)
		for j := off + i; j < off+end; j++ {
			cells[j] += delta
		}
		if size == 1 {
			return writes
		}
		off += size
		size = nextLevel(size)
	}
}

// FlatFold turns level 0 of cells, freshly filled with raw values, into
// in-block running prefixes in place and recomputes every upper level —
// one bottom-up pass with no intermediate slice, shared by the
// bulk-build, grow and promotion paths.
func FlatFold(cells []int64, universe int) {
	lvl := cells[:universe]
	var run int64
	for j, v := range lvl {
		if j&bbMask == 0 {
			run = 0
		}
		run += v
		lvl[j] = run
	}
	for off := 0; len(lvl) > 1; {
		prev := lvl
		off += len(prev)
		lvl = cells[off : off+nextLevel(len(prev))]
		var run int64
		for j := range lvl {
			if j&bbMask == 0 {
				run = 0
			}
			// Underlying value j is block j's total: its last in-block
			// prefix.
			run += prev[min(j<<bbShift|bbMask, len(prev)-1)]
			lvl[j] = run
		}
	}
}

// blocked is held by value inside auto, so an auto group reaches its
// cells through one slice header with no pointer in between.
type blocked struct {
	m     int     // universe (exclusive key bound); level 0's size
	cells []int64 // every level back to back, level 0 first
}

// makeBlocked returns an all-zero layout over [0, universe).
func makeBlocked(universe int) blocked {
	universe = max(universe, 1)
	return blocked{m: universe, cells: make([]int64, FlatSize(universe))}
}

// blockedFromSlice bulk-builds in one bottom-up pass over the raw
// values.
func blockedFromSlice(values []int64) blocked {
	t := makeBlocked(len(values))
	copy(t.cells, values)
	FlatFold(t.cells, t.m)
	return t
}

func (t *blocked) PrefixSum(key int) int64 {
	v, _ := t.PrefixSumVisits(key)
	return v
}

func (t *blocked) PrefixSumVisits(key int) (int64, uint64) {
	return FlatPrefix(t.cells, t.m, key)
}

func (t *blocked) Add(key int, delta int64) uint64 {
	return FlatAdd(t.cells, t.m, key, delta)
}

func (t *blocked) Get(key int) int64 {
	if key < 0 || key >= t.m {
		return 0
	}
	return t.rawAt(key)
}

// rawAt recovers a raw value from the level-0 in-block prefixes.
func (t *blocked) rawAt(key int) int64 {
	v := t.cells[key]
	if key&bbMask != 0 {
		v -= t.cells[key-1]
	}
	return v
}

// Total reads the top level's single cell.
func (t *blocked) Total() int64  { return t.cells[len(t.cells)-1] }
func (t *blocked) Universe() int { return t.m }

// Grow rebuilds into a wider flat layout, recovering the raw values
// straight into the new level 0 and refolding every level — O(new
// universe).
func (t *blocked) Grow(newUniverse int) {
	if newUniverse <= t.m {
		return
	}
	nt := makeBlocked(newUniverse)
	for j := 0; j < t.m; j++ {
		nt.cells[j] = t.rawAt(j)
	}
	FlatFold(nt.cells, nt.m)
	*t = nt
}

func (t *blocked) Len() int {
	n := 0
	for j := 0; j < t.m; j++ {
		if t.rawAt(j) != 0 {
			n++
		}
	}
	return n
}

func (t *blocked) StorageCells() int { return len(t.cells) }

func (t *blocked) ForEach(fn func(key int, value int64)) {
	for j := 0; j < t.m; j++ {
		if v := t.rawAt(j); v != 0 {
			fn(j, v)
		}
	}
}

func (t *blocked) Kind() Kind { return Blocked }
