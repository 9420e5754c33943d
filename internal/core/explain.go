package core

import (
	"fmt"

	"ddc/internal/grid"
)

// ContributionKind classifies how an overlay box contributed to a
// prefix query.
type ContributionKind int

// Contribution kinds, in the order Section 3.2 discusses them.
const (
	// KindSubtotal: the target region includes the whole box.
	KindSubtotal ContributionKind = iota
	// KindRowSum: the target region cuts through the box; one cumulative
	// row sum value was taken from a group store.
	KindRowSum
	// KindDelegated: a grown, unmaterialised box answered through its
	// child subtree.
	KindDelegated
	// KindLeaf: raw cells summed inside the final leaf tile.
	KindLeaf
	// KindPending: a lazy range update (RangeAdd) composed into the
	// query — delta times the volume of the pending box's intersection
	// with the dominated region.
	KindPending
	// KindDelta: an undrained entry of the buffered write front (the
	// in-memory delta in front of the tree) composed into the query.
	KindDelta
)

// String names the kind.
func (k ContributionKind) String() string {
	switch k {
	case KindSubtotal:
		return "subtotal"
	case KindRowSum:
		return "row sum"
	case KindDelegated:
		return "delegated"
	case KindLeaf:
		return "leaf"
	case KindPending:
		return "pending"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Contribution is one value collected during a prefix query's descent —
// the machine-readable form of the walk in Figures 10-11a.
type Contribution struct {
	Level     int        // tree level, 0 = root
	BoxAnchor grid.Point // logical anchor of the contributing box
	K         int        // box side
	Kind      ContributionKind
	Value     int64
}

// ExplainPrefix returns the prefix sum at p together with every nonzero
// contribution collected on the way down — the full structure's
// counterpart of the basic tree's PrefixTrace. It is built for
// debugging and education, not hot paths (it allocates per level).
// Like Prefix, it only reads the tree and is safe for concurrent
// callers. It counts no operations: the tree's shared counter moves
// only for the queries that answer callers, so a traced query that is
// re-walked here is not counted twice.
func (t *Tree) ExplainPrefix(p grid.Point) (int64, []Contribution) {
	if len(p) != t.d || (t.root == noRec && t.pending.Len() == 0) {
		return 0, nil
	}
	q := make(grid.Point, t.d)
	for i, v := range p {
		v -= t.origin[i]
		if v < 0 {
			return 0, nil
		}
		if v >= t.n {
			v = t.n - 1
		}
		q[i] = v
	}
	var parts []Contribution
	s := getQueryScratch(t.d)
	var sum int64
	if t.root != noRec {
		sum = t.explainRec(s, t.root, make(grid.Point, t.d), t.n, q, 0, &parts)
	}
	// Pending range updates contribute at the top of the descent: one
	// entry per box meeting [origin, p] (Level 0; K reports the box's
	// longest side since pending boxes need not be cubes). Pending
	// boxes lie inside the bounds, so p needs no clamp.
	for bi := 0; bi < t.pending.Len(); bi++ {
		cells := t.pending.Cells(bi, t.origin, p)
		if cells == 0 {
			continue
		}
		lo, hi, delta := t.pending.Box(bi)
		side := 0
		for i := range lo {
			side = max(side, hi[i]-lo[i]+1)
		}
		v := delta * cells
		sum += v
		parts = append(parts, Contribution{
			Level: 0, BoxAnchor: lo.Clone(), K: side, Kind: KindPending, Value: v,
		})
	}
	putQueryScratch(s)
	return sum, parts
}

func (t *Tree) explainRec(s *queryScratch, nd int32, anchor grid.Point, ext int, q grid.Point, level int, parts *[]Contribution) int64 {
	n := t.node(nd)
	if ext == t.cfg.Tile {
		if n.leaf < 0 {
			return 0
		}
		v := t.leafPrefix(s, n.leaf, anchor, q)
		if v != 0 {
			*parts = append(*parts, Contribution{
				Level: level, BoxAnchor: t.logical(anchor), K: ext, Kind: KindLeaf, Value: v,
			})
		}
		return v
	}
	if n.box < 0 {
		return 0
	}
	k := ext / 2
	var sum int64
	boxAnchor := make(grid.Point, t.d)
	l := make(grid.Point, t.d)
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
			continue
		}
		b := t.ar.boxes.at(n.box + int32(ci))
		child := n.child + int32(ci)
		switch {
		case afterAll:
			if b.kind != boxAbsent && b.sub != 0 {
				*parts = append(*parts, Contribution{
					Level: level, BoxAnchor: t.logical(boxAnchor), K: k, Kind: KindSubtotal, Value: b.sub,
				})
				sum += b.sub
			}
		case faceDim >= 0:
			if b.kind == boxAbsent {
				break
			}
			if b.kind == boxDelegate {
				qq := make(grid.Point, t.d)
				for i := 0; i < t.d; i++ {
					qq[i] = boxAnchor[i] + l[i]
				}
				v := t.descend(s, child, boxAnchor.Clone(), k, qq, level+1)
				if v != 0 {
					*parts = append(*parts, Contribution{
						Level: level, BoxAnchor: t.logical(boxAnchor), K: k, Kind: KindDelegated, Value: v,
					})
				}
				sum += v
				break
			}
			v := t.boxPrefix(b, k, faceDim, dropDim(l, faceDim), &s.ops)
			if v != 0 {
				*parts = append(*parts, Contribution{
					Level: level, BoxAnchor: t.logical(boxAnchor), K: k, Kind: KindRowSum, Value: v,
				})
			}
			sum += v
		default:
			sum += t.explainRec(s, child, boxAnchor.Clone(), k, q, level+1, parts)
		}
	}
	return sum
}

// logical converts an internal point to logical coordinates.
func (t *Tree) logical(q grid.Point) grid.Point {
	out := make(grid.Point, t.d)
	for i := 0; i < t.d; i++ {
		out[i] = q[i] + t.origin[i]
	}
	return out
}
