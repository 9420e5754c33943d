package core

import (
	"sync"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// Prefix returns the sum of all cells dominated by the logical point p
// in O(log^d n) (Theorem 2). Coordinates beyond the current bounds are
// clamped; a coordinate below the lower bound makes the region empty and
// the result 0.
//
// Prefix only reads the tree: all per-call state (the clamped point, the
// recursion buffers, the operation counts) lives in a pooled query
// scratch, and the counts are merged into the shared counter atomically.
// Any number of goroutines may therefore query one tree concurrently,
// provided no update runs at the same time.
func (t *Tree) Prefix(p grid.Point) int64 {
	v, _ := t.PrefixOps(p)
	return v
}

// PrefixOps is Prefix returning, in addition, the operation counts of
// this one call (node visits, cells read, per-kind contribution counts).
// The counts are still merged into the shared counter; the copy lets
// the telemetry layer attribute work to individual queries without
// re-reading shared state.
func (t *Tree) PrefixOps(p grid.Point) (int64, cube.OpCounter) {
	var ops cube.OpCounter
	v := t.prefixWithOps(p, &ops, nil)
	t.ops.AtomicAdd(ops)
	return v, ops
}

// prefixWithOps answers a prefix query, accumulating operation counts
// into ops instead of the tree's shared counter. Nested group trees use
// this entry point so an entire query merges its counts exactly once.
//
// When lv is non-nil the call also counts the outer tree's node visits
// per recursion depth into *lv (grown as needed). Nested row-sum group
// descents count into ops.NodeVisits as usual but not into lv — the
// per-level profile tracks the Theorem 1 descent of the outer tree,
// which the EXPLAIN budget check compares against one visit per level
// per corner. Only the tracing path passes lv; the normal query path
// never sets the level flag.
func (t *Tree) prefixWithOps(p grid.Point, ops *cube.OpCounter, lv *[]uint64) int64 {
	if len(p) != t.d || (t.root == noRec && len(t.pending) == 0) {
		return 0
	}
	s := getQueryScratch(t.d)
	if lv != nil {
		s.lvOn = true
		s.lv = s.lv[:0]
	}
	q := s.q
	for i, v := range p {
		v -= t.origin[i]
		if v < 0 {
			putQueryScratch(s)
			return 0
		}
		if v >= t.n {
			v = t.n - 1
		}
		q[i] = v
	}
	var sum int64
	if t.root != noRec {
		sum = t.prefixRec(s, t.root, t.zero, t.n, q, 0)
	}
	sum += t.pendingPrefix(q, &s.ops)
	ops.Add(s.ops)
	if lv != nil {
		for i, n := range s.lv {
			for len(*lv) <= i {
				*lv = append(*lv, 0)
			}
			(*lv)[i] += n
		}
	}
	putQueryScratch(s)
	return sum
}

// Levels returns the number of tree levels a query descent can touch:
// the root (side n) halving down to the leaf tile, inclusive — the
// paper's O(log n) height plus the tile level. The theoretical visit
// budget of one prefix query is one node per level (Theorem 1), so
// Levels bounds the outer-tree visits of a single corner descent.
func (t *Tree) Levels() int {
	levels := 1
	for ext := t.n; ext > t.cfg.Tile; ext /= 2 {
		levels++
	}
	return levels
}

// prefixRec returns SUM over the region [anchor : min(q, anchor+ext-1)]
// of the subtree rooted at the node record nd. The caller guarantees
// q_i >= anchor_i for every dimension (internal coordinates). anchor and
// q are read-only; per-level buffers come from the call's depth-indexed
// query scratch, so exactly one invocation per depth may be live — which
// holds because the recursion descends one child (or one delegating
// box) at a time.
func (t *Tree) prefixRec(s *queryScratch, nd int32, anchor grid.Point, ext int, q grid.Point, depth int) int64 {
	ar := t.ar
	n := ar.nodes.at(nd)
	if ext == t.cfg.Tile {
		if n.leaf < 0 {
			return 0
		}
		s.visit(depth)
		return t.leafPrefix(s, n.leaf, anchor, q, depth)
	}
	if n.box < 0 {
		return 0
	}
	s.visit(depth)
	fr := s.frame(depth, t.d)
	boxAnchor, l := fr.boxAnchor, fr.l
	k := ext / 2
	var sum int64
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		before := false
		afterAll := true
		faceDim := -1
		for i := 0; i < t.d; i++ {
			boxAnchor[i] = anchor[i]
			if ci&(1<<uint(i)) != 0 {
				boxAnchor[i] += k
			}
			rel := q[i] - boxAnchor[i]
			switch {
			case rel < 0:
				before = true
			case rel >= k:
				l[i] = k - 1
				faceDim = i
			default:
				l[i] = rel
				afterAll = false
			}
			if before {
				break
			}
		}
		if before {
			continue // box precedes the target region: contributes 0
		}
		b := ar.boxes.at(n.box + int32(ci))
		switch {
		case afterAll:
			// Target region includes the whole box: the subtotal cell.
			if b.kind != boxAbsent {
				sum += b.sub
				s.ops.QueryCells++
				s.ops.Contribs[KindSubtotal]++
			}
		case faceDim >= 0:
			// Partial intersection: one row sum value (Section 3.1).
			switch b.kind {
			case boxFlat, boxSide:
				s.ops.Contribs[KindRowSum]++
				sum += t.boxPrefix(b, k, faceDim, dropDimInto(fr.drop, l, faceDim), &s.ops)
			case boxDelegate:
				// Growth left this box without materialised groups:
				// answer through the child subtree (Section 5).
				s.ops.Contribs[KindDelegated]++
				qq := fr.qq
				for i := 0; i < t.d; i++ {
					qq[i] = boxAnchor[i] + l[i]
				}
				sum += t.prefixRec(s, n.child+int32(ci), boxAnchor, k, qq, depth+1)
			}
		default:
			// The box covers the target cell: descend (Theorem 1 —
			// exactly one child per level).
			sum += t.prefixRec(s, n.child+int32(ci), boxAnchor, k, q, depth+1)
		}
	}
	return sum
}

// leafPrefix sums the raw cells of the leaf tile at address leaf inside
// the target region.
func (t *Tree) leafPrefix(s *queryScratch, leaf int32, anchor, q grid.Point, depth int) int64 {
	s.ops.Contribs[KindLeaf]++
	cells := t.ar.leaves.region(leaf, 0, t.leafCells)
	fr := s.frame(depth, t.d)
	tile := t.cfg.Tile
	hi := fr.hi
	for i := 0; i < t.d; i++ {
		hi[i] = q[i] - anchor[i]
		if hi[i] >= tile {
			hi[i] = tile - 1
		}
	}
	var sum int64
	idx := fr.idx
	for i := range idx {
		idx[i] = 0
	}
	for {
		off := 0
		for i := 0; i < t.d; i++ {
			off = off*tile + idx[i]
		}
		sum += cells[off]
		s.ops.QueryCells++
		i := t.d - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] <= hi[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return sum
		}
	}
}

// dropDim returns l with dimension j removed — the (d-1)-dimensional
// index into a row-sum group (allocating variant; hot paths use
// dropDimInto).
func dropDim(l grid.Point, j int) []int {
	return dropDimInto(make([]int, 0, len(l)-1), l, j)
}

// prefixOracle adapts prefixWithOps to grid.PrefixSummer so RangeSum's
// corner reduction merges its operation counts exactly once. Oracles
// are pooled and passed by pointer: boxing a pointer into the interface
// allocates nothing, which keeps the steady-state RangeSum path at zero
// allocations per call (the allocation-regression tests pin this).
type prefixOracle struct {
	t   *Tree
	ops cube.OpCounter
}

var prefixOraclePool = sync.Pool{New: func() interface{} { return new(prefixOracle) }}

func (o *prefixOracle) Prefix(p grid.Point) int64 { return o.t.prefixWithOps(p, &o.ops, nil) }

// LowerBound implements grid.LowerBounded: a corner with any coordinate
// below the tree's logical origin dominates an empty region, so the
// corner reduction skips it without paying for a scratch checkout and a
// clamp pass. The origin is only written by Grow, which requires
// exclusive access, so returning it without copying is safe here.
func (o *prefixOracle) LowerBound() grid.Point { return o.t.origin }

// RangeSum returns the sum over the inclusive logical box [lo, hi] via
// the corner reduction of Figure 4 (at most 2^d prefix queries). Like
// Prefix, it is safe for any number of concurrent callers.
func (t *Tree) RangeSum(lo, hi grid.Point) (int64, error) {
	v, _, err := t.RangeSumOps(lo, hi)
	return v, err
}

// RangeSumOps is RangeSum returning, in addition, the operation counts
// of this one call (summed over the 2^d corner prefix queries); see
// PrefixOps.
func (t *Tree) RangeSumOps(lo, hi grid.Point) (int64, cube.OpCounter, error) {
	if err := t.checkRange(lo, hi); err != nil {
		return 0, cube.OpCounter{}, err
	}
	o := prefixOraclePool.Get().(*prefixOracle)
	o.t = t
	o.ops.Reset()
	v := grid.RangeSum(o, lo, hi)
	ops := o.ops
	o.t = nil
	prefixOraclePool.Put(o)
	t.ops.AtomicAdd(ops)
	return v, ops, nil
}

// checkRange validates an inclusive logical query box.
func (t *Tree) checkRange(lo, hi grid.Point) error {
	if err := t.checkPoint(lo); err != nil {
		return err
	}
	if err := t.checkPoint(hi); err != nil {
		return err
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return grid.ErrEmptyRange
		}
	}
	return nil
}

// Get returns the value of cell p (0 outside the current bounds) by
// descending to its leaf tile in O(log n), plus any pending range
// deltas covering p. Per-call state comes from the pooled query scratch
// and no operations are counted, so it is safe for concurrent callers
// and allocation-free.
func (t *Tree) Get(p grid.Point) int64 {
	if len(p) != t.d {
		return 0
	}
	var v int64
	if t.root != noRec {
		s := getQueryScratch(t.d)
		v = t.getWithScratch(s, p)
		putQueryScratch(s)
	}
	if len(t.pending) != 0 {
		v += t.pendingAt(p)
	}
	return v
}

func (t *Tree) getWithScratch(s *queryScratch, p grid.Point) int64 {
	if t.root == noRec {
		return 0
	}
	q := s.q
	for i, v := range p {
		v -= t.origin[i]
		if v < 0 || v >= t.n {
			return 0
		}
		q[i] = v
	}
	n := t.node(t.root)
	anchor := s.frame(0, t.d).boxAnchor
	for i := range anchor {
		anchor[i] = 0
	}
	ext := t.n
	for ext > t.cfg.Tile {
		if n.box < 0 {
			return 0
		}
		k := ext / 2
		ci := 0
		for i := 0; i < t.d; i++ {
			if q[i]-anchor[i] >= k {
				ci |= 1 << uint(i)
				anchor[i] += k
			}
		}
		n = t.node(n.child + int32(ci))
		ext = k
	}
	if n.leaf < 0 {
		return 0
	}
	off := 0
	for i := 0; i < t.d; i++ {
		off = off*t.cfg.Tile + (q[i] - anchor[i])
	}
	return t.ar.leaves.region(n.leaf, 0, t.leafCells)[off]
}
