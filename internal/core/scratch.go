package core

import (
	"sync"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// scratch provides per-depth reusable buffers for the *update* hot path,
// eliminating the per-level allocations that otherwise dominate its
// cost. Buffers are indexed by recursion depth, so the single-descending-
// path recursion (addRec) never aliases a level's buffers with its
// parent's. Updates require exclusive access to the tree (documented on
// the public API), so a single update scratch per tree is sound; nested
// group trees have their own.
type scratch struct {
	frames []scratchFrame
}

type scratchFrame struct {
	boxAnchor grid.Point
	l         grid.Point
	qq        grid.Point
	o         grid.Point
	drop      []int
	idx       []int
	hi        []int
}

func newScratchFrame(d int) scratchFrame {
	return scratchFrame{
		boxAnchor: make(grid.Point, d),
		l:         make(grid.Point, d),
		qq:        make(grid.Point, d),
		o:         make(grid.Point, d),
		drop:      make([]int, d-1+1), // d-1, +1 so d=1 stays non-nil
		idx:       make([]int, d),
		hi:        make([]int, d),
	}
}

// frame returns the buffers for one recursion depth, growing the stack
// as needed.
func (s *scratch) frame(depth, d int) *scratchFrame {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, newScratchFrame(d))
	}
	return &s.frames[depth]
}

// queryScratch holds the complete per-call state of one prefix query:
// the clamped query point, the depth-indexed recursion buffers, and a
// private operation counter that is merged into the tree's shared
// counter once, at the end of the call. Because every query draws its
// own state from qsPool, any number of goroutines can run queries on
// one tree simultaneously — the tree itself is only read.
type queryScratch struct {
	q      grid.Point
	frames []scratchFrame
	ops    cube.OpCounter

	// lv counts outer-tree node visits per recursion depth when lvOn is
	// set (the EXPLAIN/span-tracing path); the normal query path leaves
	// it off, so the hot recursion pays one predictable branch.
	lv   []uint64
	lvOn bool
}

// qsPool recycles query states across calls and across trees (outer
// trees and their nested group trees share it; dimensionalities differ,
// so frame() re-checks buffer sizes).
var qsPool = sync.Pool{New: func() interface{} { return new(queryScratch) }}

// getQueryScratch returns a query state with a d-sized query point and a
// zeroed op counter.
func getQueryScratch(d int) *queryScratch {
	s := qsPool.Get().(*queryScratch)
	if cap(s.q) < d {
		s.q = make(grid.Point, d)
	}
	s.q = s.q[:d]
	s.ops = cube.OpCounter{}
	s.lvOn = false
	return s
}

func putQueryScratch(s *queryScratch) { qsPool.Put(s) }

// visit counts one outer-tree node visit at the given depth.
func (s *queryScratch) visit(depth int) {
	s.ops.NodeVisits++
	if s.lvOn {
		for len(s.lv) <= depth {
			s.lv = append(s.lv, 0)
		}
		s.lv[depth]++
	}
}

// frame returns the buffers for one recursion depth. Pooled states are
// shared across trees of different dimensionality, so a frame whose
// buffers are too small for d is reallocated; larger buffers are
// re-sliced down so range loops (e.g. dropDimInto's) see exactly d
// elements.
func (s *queryScratch) frame(depth, d int) *scratchFrame {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, newScratchFrame(d))
	}
	fr := &s.frames[depth]
	if cap(fr.boxAnchor) < d {
		*fr = newScratchFrame(d)
		return fr
	}
	fr.boxAnchor = fr.boxAnchor[:d]
	fr.l = fr.l[:d]
	fr.qq = fr.qq[:d]
	fr.o = fr.o[:d]
	fr.idx = fr.idx[:d]
	fr.hi = fr.hi[:d]
	return fr
}

// dropDimInto writes l without dimension j into dst[:d-1] and returns
// the slice — the allocation-free variant of dropDim.
func dropDimInto(dst []int, l grid.Point, j int) []int {
	out := dst[:0]
	for i, v := range l {
		if i != j {
			out = append(out, v)
		}
	}
	return out
}
