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
// the public API), so a single update scratch per tree is sound.
//
// An update reaches a nested group tree only from inside its outer
// tree's descent, and one group at a time, so every group tree of one
// nesting level shares that level's scratch: next, made with the first
// group tree. So the first add to reach a group tree of a freshly built
// d > 2 cube allocates no update buffers for it.
type scratch struct {
	frames []scratchFrame
	next   *scratch
}

// nested returns the scratch of the group trees one nesting level down.
func (s *scratch) nested() *scratch {
	if s.next == nil {
		s.next = &scratch{}
	}
	return s.next
}

type scratchFrame struct {
	boxAnchor grid.Point
	o         grid.Point
	drop      []int
}

func newScratchFrame(d int) scratchFrame {
	return scratchFrame{
		boxAnchor: make(grid.Point, d),
		o:         make(grid.Point, d),
		drop:      make([]int, d-1+1), // d-1, +1 so d=1 stays non-nil
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

// queryScratch holds the complete per-call state of one read: the
// clamped query point, the general descent's buffers, and a private
// operation counter that is merged into the tree's shared counter once,
// at the end of the call. Because every read draws its own state from
// qsPool, any number of goroutines can run queries on one tree
// simultaneously — the tree itself is only read. A RangeSum runs all of
// its corners on one state.
type queryScratch struct {
	q   grid.Point
	ops cube.OpCounter

	// The general descent (prefixRec: d = 1 and the outer levels of
	// d >= 3) walks with a mutable anchor per delegation depth: the
	// descent from the root owns anchors[0], and a delegating box met
	// at depth i starts its sub-descent on anchors[i+1] and qs[i+1].
	// l is a row-sum index (d-1 coordinates); idx and hi walk a leaf
	// tile. The d = 2 loop keeps everything in registers and uses none
	// of them.
	anchors []grid.Point
	qs      []grid.Point
	l       []int
	idx     []int
	hi      []int

	// lv counts outer-tree node visits per recursion depth when lvOn is
	// set (the EXPLAIN/span-tracing path); the normal query path leaves
	// it off, so the hot descent pays one predictable branch.
	lv   []uint64
	lvOn bool
}

// qsPool recycles query states across calls and across trees (outer
// trees and their nested group trees share it, so getQueryScratch and
// frame re-size buffers for the caller's dimensionality).
var qsPool = sync.Pool{New: func() interface{} { return new(queryScratch) }}

// getQueryScratch returns a query state sized for d dimensions with a
// zeroed op counter.
func getQueryScratch(d int) *queryScratch {
	s := qsPool.Get().(*queryScratch)
	s.q = resize(s.q, d)
	s.l = resize(s.l, d-1)
	s.idx = resize(s.idx, d)
	s.hi = resize(s.hi, d)
	s.ops = cube.OpCounter{}
	s.lvOn = false
	return s
}

func putQueryScratch(s *queryScratch) { qsPool.Put(s) }

// resize returns buf with length n, reallocating only when it is too
// small.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// frame returns the anchor and query buffers of one delegation depth,
// each of length d.
func (s *queryScratch) frame(depth, d int) (anchor, q grid.Point) {
	for len(s.anchors) <= depth {
		s.anchors = append(s.anchors, nil)
		s.qs = append(s.qs, nil)
	}
	s.anchors[depth] = resize(s.anchors[depth], d)
	s.qs[depth] = resize(s.qs[depth], d)
	return s.anchors[depth], s.qs[depth]
}

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
