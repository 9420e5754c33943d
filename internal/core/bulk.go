package core

import (
	"sync"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// BuildFromArray bulk-loads a Dynamic Data Cube from a dense array,
// constructing the tree bottom-up instead of replaying one Add per
// nonzero cell. Each tree level scans the array once (row-sum groups are
// accumulated into dense buffers and bulk-built), so construction is
// O(n^d log n) cell reads with no per-update group maintenance — the
// batch-load path Section 1 contrasts with incremental updates.
//
// The resulting tree answers exactly like FromArray's (tests assert
// equality); FromArray remains available as the incremental path and the
// two are compared in the ablation-bulk experiment.
func BuildFromArray(a *cube.Array, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(a.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	t.root = t.buildRec(a, make(grid.Point, t.d), t.n)
	return t, nil
}

// BuildFromArrayParallel is BuildFromArray with the 2^d root subtrees
// (and their overlay boxes) constructed concurrently. The subtrees are
// disjoint and nested group trees merely share the parent's operation
// counter pointer (not written during construction), so the fan-out is
// race-free; the resulting tree is identical to the sequential build.
func BuildFromArrayParallel(a *cube.Array, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(a.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	if t.n == t.cfg.Tile {
		// Single-tile domain: nothing to fan out.
		t.root = t.buildRec(a, make(grid.Point, t.d), t.n)
		return t, nil
	}
	k := t.n / 2
	nd := &node{
		boxes:    make([]*box, 1<<uint(t.d)),
		children: make([]*node, 1<<uint(t.d)),
	}
	// The construction paths (buildRec, buildBox, buildGroupsFromDense)
	// allocate all working state locally and never touch the tree's
	// query scratch, so disjoint subtrees can be built concurrently.
	var wg sync.WaitGroup
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			childAnchor := make(grid.Point, t.d)
			for i := 0; i < t.d; i++ {
				if ci&(1<<uint(i)) != 0 {
					childAnchor[i] = k
				}
			}
			child := t.buildRec(a, childAnchor, k)
			if child == nil {
				return
			}
			nd.children[ci] = child
			nd.boxes[ci] = t.buildBox(a, childAnchor, k)
		}(ci)
	}
	wg.Wait()
	for _, c := range nd.children {
		if c != nil {
			t.root = nd
			return t, nil
		}
	}
	return t, nil // all-zero array: nil root
}

// buildRec constructs the subtree for the region [anchor, anchor+ext)
// of the source array, returning nil for all-zero regions (which keeps
// bulk-loaded cubes as sparse as incrementally-built ones).
func (t *Tree) buildRec(a *cube.Array, anchor grid.Point, ext int) *node {
	// Regions entirely outside the declared domain are padding: zero.
	for i := 0; i < t.d; i++ {
		if anchor[i] >= a.Extent().Dim(i) {
			return nil
		}
	}
	if ext == t.cfg.Tile {
		return t.buildLeaf(a, anchor)
	}
	k := ext / 2
	nd := &node{
		boxes:    make([]*box, 1<<uint(t.d)),
		children: make([]*node, 1<<uint(t.d)),
	}
	any := false
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		childAnchor := anchor.Clone()
		for i := 0; i < t.d; i++ {
			if ci&(1<<uint(i)) != 0 {
				childAnchor[i] += k
			}
		}
		child := t.buildRec(a, childAnchor, k)
		if child == nil {
			continue
		}
		any = true
		nd.children[ci] = child
		nd.boxes[ci] = t.buildBox(a, childAnchor, k)
	}
	if !any {
		return nil
	}
	return nd
}

// buildLeaf copies one tile of raw values; nil if the tile is all zero.
func (t *Tree) buildLeaf(a *cube.Array, anchor grid.Point) *node {
	tile := t.cfg.Tile
	sz := 1
	for i := 0; i < t.d; i++ {
		sz *= tile
	}
	vals := make([]int64, sz)
	any := false
	p := make(grid.Point, t.d)
	idx := make([]int, t.d)
	for off := 0; ; off++ {
		for i := 0; i < t.d; i++ {
			p[i] = anchor[i] + idx[i]
		}
		if v := a.Get(p); v != 0 {
			vals[off] = v
			any = true
		}
		i := t.d - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < tile {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if !any {
		return nil
	}
	return &node{leaf: vals}
}

// buildBox computes one overlay box's subtotal and row-sum groups with a
// single scan of the covered region, then bulk-builds the group stores.
func (t *Tree) buildBox(a *cube.Array, boxAnchor grid.Point, k int) *box {
	b := &box{}
	// Dense row-sum buffers, one per dimension, each of size k^{d-1}.
	faceSize := 1
	for i := 1; i < t.d; i++ {
		faceSize *= k
	}
	gs := make([][]int64, t.d)
	for j := range gs {
		gs[j] = make([]int64, faceSize)
	}
	// Scan the covered region once (clamped to the declared domain).
	lo := boxAnchor.Clone()
	hi := make(grid.Point, t.d)
	for i := 0; i < t.d; i++ {
		hi[i] = boxAnchor[i] + k - 1
		if m := a.Extent().Dim(i) - 1; hi[i] > m {
			hi[i] = m
		}
	}
	o := make(grid.Point, t.d)
	grid.ForEachInBox(lo, hi, func(p grid.Point) {
		v := a.Get(p)
		if v == 0 {
			return
		}
		b.sub += v
		for i := 0; i < t.d; i++ {
			o[i] = p[i] - boxAnchor[i]
		}
		for j := 0; j < t.d; j++ {
			off := 0
			for i := 0; i < t.d; i++ {
				if i != j {
					off = off*k + o[i]
				}
			}
			gs[j][off] += v
		}
	})
	b.groups = t.buildGroupsFromDense(k, gs)
	return b
}

// buildGroupsFromDense bulk-constructs the group stores from dense
// row-sum buffers (mirrors makeGroups' recursion).
func (t *Tree) buildGroupsFromDense(k int, gs [][]int64) []group {
	switch {
	case t.d == 1:
		return nil
	case t.d == 2:
		kind := psum.Kind(t.cfg.Backend)
		return []group{
			{ps: psum.FromSlice(kind, gs[0], t.cfg.Fanout)},
			{ps: psum.FromSlice(kind, gs[1], t.cfg.Fanout)},
		}
	default:
		dims := make([]int, t.d-1)
		for i := range dims {
			dims[i] = k
		}
		out := make([]group, t.d)
		for j := 0; j < t.d; j++ {
			ga, err := cube.FromValues(dims, gs[j])
			if err != nil {
				panic(err) // dims/buffer sizes are internally consistent
			}
			// Share the parent's operation counter *before* building, so
			// every nested group observes the same counter.
			nested := newNested(dims, t.cfg, t.ops)
			nested.root = nested.buildRec(ga, make(grid.Point, nested.d), nested.n)
			out[j].tr = nested
		}
		return out
	}
}
