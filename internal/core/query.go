package core

import (
	"fmt"
	"math/bits"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// Prefix returns the sum of all cells dominated by the logical point p
// in O(log^d n) (Theorem 2). Coordinates beyond the current bounds are
// clamped; a coordinate below the lower bound makes the region empty and
// the result 0.
//
// Prefix only reads the tree: all per-call state (the clamped point, the
// descent buffers, the operation counts) lives in a pooled query
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
	v := t.prefixWithOps(p, &ops)
	t.ops.AtomicAdd(ops)
	return v, ops
}

// prefixWithOps answers a prefix query, accumulating operation counts
// into ops instead of the tree's shared counter. Nested group trees use
// this entry point so an entire query merges its counts exactly once.
func (t *Tree) prefixWithOps(p grid.Point, ops *cube.OpCounter) int64 {
	if len(p) != t.d || (t.root == noRec && t.pending.Len() == 0) {
		return 0
	}
	for i, v := range p {
		if v < t.origin[i] {
			return 0 // the dominated region is empty
		}
	}
	s := getQueryScratch(t.d)
	for i, v := range p {
		s.q[i] = min(v-t.origin[i], t.n-1)
	}
	sum := t.prefixAt(s)
	if t.pending.Len() != 0 {
		// Pending boxes lie inside the bounds, so clipping them to
		// [origin, p] needs no clamp.
		sum += t.pendingSum(t.origin, p, &s.ops)
	}
	ops.Add(s.ops)
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

// prefixAt returns the tree-only prefix sum at the clamped internal
// point s.q: the overlay descent, without the pending range updates
// (callers add those once per query box; see pendingSum).
func (t *Tree) prefixAt(s *queryScratch) int64 {
	switch q := s.q; {
	case t.root == noRec:
		return 0
	case t.d == 2:
		return t.prefix2(s, t.root, 0, 0, t.n, q[0], q[1], 0)
	default:
		anchor, _ := s.frame(0, t.d)
		clear(anchor)
		return t.prefixRec(s, t.root, anchor, t.n, q, 0)
	}
}

// descend returns SUM over the region [anchor : q] of the subtree of
// side ext rooted at the node record nd, where anchor <= q <=
// anchor+ext-1 in every dimension (internal coordinates). Two-
// dimensional trees take the scalar loop prefix2; every other
// dimensionality takes prefixRec, which advances anchor in place.
// prefixAt dispatches the same way.
func (t *Tree) descend(s *queryScratch, nd int32, anchor grid.Point, ext int, q grid.Point, depth int) int64 {
	if t.d == 2 {
		return t.prefix2(s, nd, anchor[0], anchor[1], ext, q[0], q[1], depth)
	}
	return t.prefixRec(s, nd, anchor, ext, q, depth)
}

// Both descents do only the Theorem 1 work. At a node of side ext the
// target cell q lies in child c (bit i set when q is in the high half
// of dimension i), and the only boxes whose region the target region
// meets are the subsets ci of c; every other box lies "before" q in
// some dimension and contributes nothing. Box ci lies wholly below q in
// the dimensions of after = c &^ ci and contains q's coordinate in the
// rest, so:
//
//   - ci = c (after = 0): the box covers the target cell — descend;
//   - after = every dimension: the whole box is dominated — its
//     subtotal;
//   - otherwise one row-sum value, from the group of the highest "after"
//     dimension, at the box-local offset whose "after" coordinates are
//     k-1 and whose others are q's; a box growth left delegating answers
//     through its child subtree instead (Section 5).
//
// The proper subsets of c are enumerated by ci = (ci-1) & c, from
// (c-1) & c down to 0.

// prefix2 is the descent for two-dimensional trees — the outer tree at
// d = 2 and every nested group tree at d = 3. The anchor (a0, a1) and
// target (q0, q1) are plain ints, the descent is a loop, and at most
// three boxes are read per level: a row sum in each dimension the
// target lies in the high half of, and the subtotal when it does in
// both. Only delegating boxes recurse, into this same loop.
func (t *Tree) prefix2(s *queryScratch, nd int32, a0, a1, ext, q0, q1, depth int) int64 {
	ar := t.ar
	var sum int64
	for ; ext > t.cfg.Tile; ext >>= 1 {
		n := ar.nodes.at(nd)
		if n.box < 0 {
			return sum
		}
		s.visit(depth)
		k := ext >> 1
		c := 0
		if q0-a0 >= k {
			c = 1
		}
		if q1-a1 >= k {
			c |= 2
		}
		if c != 0 {
			for ci := (c - 1) & c; ; ci = (ci - 1) & c {
				b := ar.boxes.at(n.box + int32(ci))
				b0, b1 := a0+k*(ci&1), a1+k*(ci>>1)
				switch after := c &^ ci; {
				case b.kind == boxAbsent:
				case after == 3:
					sum += b.sub
					s.ops.QueryCells++
					s.ops.Contribs[KindSubtotal]++
				case b.kind == boxDelegate:
					s.ops.Contribs[KindDelegated]++
					e0, e1 := q0, q1
					if after == 1 {
						e0 = b0 + k - 1
					} else {
						e1 = b1 + k - 1
					}
					sum += t.prefix2(s, n.child+int32(ci), b0, b1, k, e0, e1, depth+1)
				case after == 1:
					// Below in dimension 0: group 0 at dimension 1's offset.
					s.ops.Contribs[KindRowSum]++
					sum += t.rowSum2(b, k, 0, q1-b1, &s.ops)
				default:
					s.ops.Contribs[KindRowSum]++
					sum += t.rowSum2(b, k, 1, q0-b0, &s.ops)
				}
				if ci == 0 {
					break
				}
			}
		}
		a0 += k * (c & 1)
		a1 += k * (c >> 1)
		nd = n.child + int32(c)
		depth++
	}
	n := ar.nodes.at(nd)
	if n.leaf < 0 {
		return sum
	}
	s.visit(depth)
	return sum + t.leafPrefix2(s, n.leaf, q0-a0, q1-a1)
}

// rowSum2 returns the prefix sum at x of group j of a d = 2 box of side
// k, counting cells read into ops.
func (t *Tree) rowSum2(b *boxRec, k, j, x int, ops *cube.OpCounter) int64 {
	var v int64
	var visits uint64
	if b.kind == boxFlat {
		fs := psum.FlatSize(k)
		v, visits = psum.FlatPrefix(t.ar.cells.region(b.ref, j*fs, fs), k, x)
	} else {
		v, visits = t.ar.side.at(b.ref + int32(j)).ps.PrefixSumVisits(x)
	}
	ops.QueryCells += visits
	return v
}

// leafPrefix2 sums the cells [0:h0] x [0:h1] of a d = 2 leaf tile.
func (t *Tree) leafPrefix2(s *queryScratch, leaf int32, h0, h1 int) int64 {
	tile := t.cfg.Tile
	cells := t.ar.leaves.region(leaf, 0, t.leafCells)
	var sum int64
	for off := 0; off <= h0*tile; off += tile {
		for _, v := range cells[off : off+h1+1] {
			sum += v
		}
	}
	s.ops.Contribs[KindLeaf]++
	s.ops.QueryCells += uint64((h0 + 1) * (h1 + 1))
	return sum
}

// prefixRec is the descent for every dimensionality but two: d = 1 and
// the outer levels of d >= 3 (whose row-sum groups are nested d = 2
// trees, read through prefix2). It advances anchor in place and reads
// q only. A delegating box met at depth i runs its sub-descent on the
// scratch's depth i+1 buffers; a sub-descent started at depth i+1
// delegates only from depth i+1 on, into buffers i+2 and deeper, so no
// two live descents share a buffer.
func (t *Tree) prefixRec(s *queryScratch, nd int32, anchor grid.Point, ext int, q grid.Point, depth int) int64 {
	ar := t.ar
	d := t.d
	full := 1<<uint(d) - 1
	var sum int64
	for ; ext > t.cfg.Tile; ext >>= 1 {
		n := ar.nodes.at(nd)
		if n.box < 0 {
			return sum
		}
		s.visit(depth)
		k := ext >> 1
		c := 0
		for i := 0; i < d; i++ {
			if q[i]-anchor[i] >= k {
				c |= 1 << uint(i)
			}
		}
		if c != 0 {
			for ci := (c - 1) & c; ; ci = (ci - 1) & c {
				b := ar.boxes.at(n.box + int32(ci))
				switch after := c &^ ci; {
				case b.kind == boxAbsent:
				case after == full:
					sum += b.sub
					s.ops.QueryCells++
					s.ops.Contribs[KindSubtotal]++
				case b.kind == boxDelegate:
					s.ops.Contribs[KindDelegated]++
					ba, bq := s.frame(depth+1, d)
					for i := 0; i < d; i++ {
						ba[i] = anchor[i] + k*(ci>>uint(i)&1)
						bq[i] = q[i]
						if after>>uint(i)&1 != 0 {
							bq[i] = ba[i] + k - 1
						}
					}
					sum += t.prefixRec(s, n.child+int32(ci), ba, k, bq, depth+1)
				default:
					s.ops.Contribs[KindRowSum]++
					j := bits.Len(uint(after)) - 1
					l := s.l[:0]
					for i := 0; i < d; i++ {
						switch {
						case i == j:
						case after>>uint(i)&1 != 0:
							l = append(l, k-1)
						default:
							l = append(l, q[i]-anchor[i]-k*(ci>>uint(i)&1))
						}
					}
					sum += t.boxPrefix(b, k, j, l, &s.ops)
				}
				if ci == 0 {
					break
				}
			}
		}
		for i := 0; i < d; i++ {
			anchor[i] += k * (c >> uint(i) & 1)
		}
		nd = n.child + int32(c)
		depth++
	}
	n := ar.nodes.at(nd)
	if n.leaf < 0 {
		return sum
	}
	s.visit(depth)
	return sum + t.leafPrefix(s, n.leaf, anchor, q)
}

// leafPrefix sums the raw cells of the leaf tile at address leaf inside
// the target region [anchor : q], one contiguous row of the last
// dimension at a time.
func (t *Tree) leafPrefix(s *queryScratch, leaf int32, anchor, q grid.Point) int64 {
	tile := t.cfg.Tile
	cells := t.ar.leaves.region(leaf, 0, t.leafCells)
	hi, idx := s.hi, s.idx
	count := uint64(1)
	for i := range hi {
		hi[i] = q[i] - anchor[i]
		idx[i] = 0
		count *= uint64(hi[i] + 1)
	}
	s.ops.Contribs[KindLeaf]++
	s.ops.QueryCells += count
	last := t.d - 1
	var sum int64
	for {
		off := 0
		for i := 0; i < last; i++ {
			off = off*tile + idx[i]
		}
		off *= tile
		for _, v := range cells[off : off+hi[last]+1] {
			sum += v
		}
		i := last - 1
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

// RangeSum returns the sum over the inclusive logical box [lo, hi] via
// the corner reduction of Figure 4 (at most 2^d prefix queries). Like
// Prefix, it is safe for any number of concurrent callers.
func (t *Tree) RangeSum(lo, hi grid.Point) (int64, error) {
	v, _, err := t.RangeSumOps(lo, hi)
	return v, err
}

// RangeSumOps is RangeSum returning, in addition, the operation counts
// of this one call (summed over the 2^d tree-only corner descents and
// the one pending pass); see PrefixOps.
//
// The corner reduction is the signed sum over the 2^d corners that
// take hi_i or lo_i - 1 in each dimension. A corner below the origin
// in any dimension dominates an empty region and is skipped before it
// costs anything; the others run on the one query scratch the call
// checks out. checkRange has bounded hi by the domain, so no corner
// needs clamping to the padded side. Pending range updates are added
// once, over [lo, hi] itself, after the corners.
func (t *Tree) RangeSumOps(lo, hi grid.Point) (int64, cube.OpCounter, error) {
	if err := t.checkRange(lo, hi); err != nil {
		return 0, cube.OpCounter{}, err
	}
	if t.root == noRec && t.pending.Len() == 0 {
		return 0, cube.OpCounter{}, nil
	}
	s := getQueryScratch(t.d)
	var total int64
corners:
	for mask := 0; mask < 1<<uint(t.d); mask++ {
		neg := false
		for i := 0; i < t.d; i++ {
			v := hi[i]
			if mask>>uint(i)&1 != 0 {
				v = lo[i] - 1
				neg = !neg
			}
			v -= t.origin[i]
			if v < 0 {
				continue corners
			}
			s.q[i] = v
		}
		if v := t.prefixAt(s); neg {
			total -= v
		} else {
			total += v
		}
	}
	if t.pending.Len() != 0 {
		total += t.pendingSum(lo, hi, &s.ops)
	}
	ops := s.ops
	putQueryScratch(s)
	t.ops.AtomicAdd(ops)
	return total, ops, nil
}

// checkRange validates an inclusive logical query box: dimensionality,
// the bounds of lo, the bounds of hi, then emptiness.
func (t *Tree) checkRange(lo, hi grid.Point) error {
	if len(lo) != t.d || len(hi) != t.d {
		return fmt.Errorf("%w: box has %d/%d dims, cube has %d", grid.ErrDims, len(lo), len(hi), t.d)
	}
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
	if t.pending.Len() != 0 {
		pv, _ := t.pending.Sum(p, p)
		v += pv
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
	anchor, _ := s.frame(0, t.d)
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
