package core

import (
	"fmt"
	"sort"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// CheckInvariants walks the whole structure and cross-validates every
// derived value against the raw leaf data:
//
//   - the arena is well formed: every address lies inside the used part
//     of its slab, record fields match the node's level, each flat box
//     region is 2*FlatSize(k) cells, nested trees share the arena, and
//     no two live regions (record blocks, leaf tiles, flat groups,
//     side-table blocks, freed side blocks) overlap — so no record is
//     reachable twice;
//   - each overlay box's subtotal equals the sum of the raw cells it
//     covers;
//   - each non-delegating box's row-sum groups answer, for every local
//     coordinate, exactly the cumulative row sums Section 3.1 defines;
//   - padding outside the declared bounds holds no data.
//
// It is O(n^d) per tree level (a dense prefix table per box) and
// intended for tests, not production paths.
func (t *Tree) CheckInvariants() error {
	var c claims
	for _, a := range t.ar.free {
		if err := claimIn(&c, "side", &t.ar.side, a, 2); err != nil {
			return err
		}
	}
	if err := t.claimTree(&c); err != nil {
		return err
	}
	if err := c.disjoint(); err != nil {
		return err
	}
	if t.root == noRec {
		return nil
	}
	_, err := t.checkNode(t.root, make(grid.Point, t.d), t.n)
	return err
}

// claim is one live region of a slab page: [off, end).
type claim struct {
	slab           string
	page, off, end int
}

type claims []claim

// claimIn records the region [a, a+n) of slab s, failing if it does
// not lie inside the slab's used pages.
func claimIn[T any](c *claims, name string, s *slab[T], a int32, n int) error {
	if !s.valid(a, n) {
		return fmt.Errorf("arena: %s region %d (+%d) outside its slab", name, a, n)
	}
	off := int(a & pageMask)
	*c = append(*c, claim{slab: name, page: int(a >> pageShift), off: off, end: off + n})
	return nil
}

// disjoint fails if any two claimed regions overlap.
func (c claims) disjoint() error {
	sort.Slice(c, func(i, j int) bool {
		if c[i].slab != c[j].slab {
			return c[i].slab < c[j].slab
		}
		if c[i].page != c[j].page {
			return c[i].page < c[j].page
		}
		return c[i].off < c[j].off
	})
	for i := 1; i < len(c); i++ {
		p, q := c[i-1], c[i]
		if p.slab == q.slab && p.page == q.page && q.off < p.end {
			return fmt.Errorf("arena: %s regions overlap in page %d: [%d,%d) and [%d,%d)",
				p.slab, p.page, p.off, p.end, q.off, q.end)
		}
	}
	return nil
}

// claimTree claims every region the tree (and its nested group trees)
// holds.
func (t *Tree) claimTree(c *claims) error {
	if t.root == noRec {
		return nil
	}
	if err := claimIn(c, "node", &t.ar.nodes, t.root, 1); err != nil {
		return err
	}
	return t.claimRec(c, t.root, t.n)
}

func (t *Tree) claimRec(c *claims, nd int32, ext int) error {
	n := *t.node(nd)
	if ext == t.cfg.Tile {
		if n.child != noRec || n.box != noRec {
			return fmt.Errorf("arena: leaf-level node %d has inner fields %+v", nd, n)
		}
		if n.leaf == noRec {
			return nil
		}
		return claimIn(c, "leaf", &t.ar.leaves, n.leaf, t.leafCells)
	}
	if n.leaf != noRec || (n.box < 0) != (n.child < 0) {
		return fmt.Errorf("arena: inner node %d has fields %+v", nd, n)
	}
	if n.box < 0 {
		return nil
	}
	nc := 1 << uint(t.d)
	if err := claimIn(c, "node", &t.ar.nodes, n.child, nc); err != nil {
		return err
	}
	if err := claimIn(c, "box", &t.ar.boxes, n.box, nc); err != nil {
		return err
	}
	k := ext / 2
	for ci := int32(0); ci < int32(nc); ci++ {
		b := *t.ar.boxes.at(n.box + ci)
		var err error
		switch {
		case b.kind == boxAbsent || (b.kind == boxFlat && t.d == 1) || b.kind == boxDelegate:
			if b.kind != boxAbsent && b.ref != noRec {
				err = fmt.Errorf("arena: box %d of node %d (kind %d) has ref %d", ci, nd, b.kind, b.ref)
			}
		case b.kind == boxFlat && t.d == 2:
			err = claimIn(c, "cells", &t.ar.cells, b.ref, 2*psum.FlatSize(k))
		case b.kind == boxSide:
			err = t.claimSide(c, b.ref)
		default:
			err = fmt.Errorf("arena: box %d of node %d has kind %d at d=%d", ci, nd, b.kind, t.d)
		}
		if err != nil {
			return err
		}
		if err := t.claimRec(c, n.child+ci, k); err != nil {
			return err
		}
	}
	return nil
}

// claimSide claims a box's side-table block and whatever its groups
// hold in the arena.
func (t *Tree) claimSide(c *claims, ref int32) error {
	if err := claimIn(c, "side", &t.ar.side, ref, t.d); err != nil {
		return err
	}
	for j, g := range t.ar.side.region(ref, 0, t.d) {
		switch {
		case t.d == 2 && g.ps != nil && g.tr == nil:
		case t.d > 2 && g.ps == nil && g.tr != nil && g.tr.ar == t.ar:
			if err := g.tr.claimTree(c); err != nil {
				return err
			}
		default:
			return fmt.Errorf("arena: side slot %d+%d holds a malformed group", ref, j)
		}
	}
	return nil
}

// checkNode validates the subtree and returns the raw sum of its region.
func (t *Tree) checkNode(nd int32, anchor grid.Point, ext int) (int64, error) {
	n := t.node(nd)
	if ext == t.cfg.Tile {
		var s int64
		if n.leaf >= 0 {
			for _, v := range t.ar.leaves.region(n.leaf, 0, t.leafCells) {
				s += v
			}
		}
		return s, nil
	}
	if n.box < 0 {
		return 0, nil
	}
	k := ext / 2
	var total int64
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		boxAnchor := anchor.Clone()
		for i := 0; i < t.d; i++ {
			if ci&(1<<uint(i)) != 0 {
				boxAnchor[i] += k
			}
		}
		child := n.child + int32(ci)
		childSum, err := t.checkNode(child, boxAnchor, k)
		if err != nil {
			return 0, err
		}
		total += childSum
		b := t.ar.boxes.at(n.box + int32(ci))
		if b.kind == boxAbsent {
			if childSum != 0 {
				return 0, fmt.Errorf("box at %v (k=%d) missing but child holds %d", boxAnchor, k, childSum)
			}
			continue
		}
		if b.sub != childSum {
			return 0, fmt.Errorf("box at %v (k=%d): subtotal %d != raw sum %d", boxAnchor, k, b.sub, childSum)
		}
		if b.kind == boxDelegate || t.d == 1 {
			continue // nothing stored: answered through the child, or no groups
		}
		if err := t.checkGroups(child, b, boxAnchor, k); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// checkGroups verifies every face value the box can be asked for
// against the raw cells below its child.
func (t *Tree) checkGroups(child int32, b *boxRec, boxAnchor grid.Point, k int) error {
	// Collect the raw cells below the child once, row-major in the box,
	// then run a sum along each dimension: pre[m] becomes
	// SUM(A[boxAnchor] : A[boxAnchor+m]).
	cells := 1
	for i := 0; i < t.d; i++ {
		cells *= k
	}
	pre := make([]int64, cells)
	t.forEachInRangeRec(t.ar, child, boxAnchor, k, nil, nil, func(p grid.Point, v int64) bool {
		off := 0
		for i := 0; i < t.d; i++ {
			off = off*k + p[i] - boxAnchor[i]
		}
		pre[off] = v
		return true
	})
	for i, stride := t.d-1, 1; i >= 0; i, stride = i-1, stride*k {
		for off := range pre {
			if off/stride%k != 0 {
				pre[off] += pre[off-stride]
			}
		}
	}
	// For each dimension j and each local face coordinate l, compare the
	// group's prefix answer to the raw prefix at m_j = k-1 and the other
	// components of m given by l.
	var ops cube.OpCounter
	for j := 0; j < t.d; j++ {
		l := make([]int, t.d-1)
		for {
			off, li := 0, 0
			for i := 0; i < t.d; i++ {
				m := k - 1
				if i != j {
					m, li = l[li], li+1
				}
				off = off*k + m
			}
			want := pre[off]
			got := t.boxPrefix(b, k, j, l, &ops)
			if got != want {
				return fmt.Errorf("box at %v k=%d: group %d prefix(%v) = %d, want %d",
					boxAnchor, k, j, l, got, want)
			}
			// Advance the mixed-radix counter over [0,k)^{d-1}.
			i := len(l) - 1
			for ; i >= 0; i-- {
				l[i]++
				if l[i] < k {
					break
				}
				l[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return nil
}
