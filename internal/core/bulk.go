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
// Records and cells are laid out depth first into fresh slabs. The
// resulting tree answers exactly like FromArray's (tests assert
// equality); FromArray remains available as the incremental path and the
// two are compared in the ablation-bulk experiment.
func BuildFromArray(a *cube.Array, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(a.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	t.buildRoot(a)
	return t, nil
}

// BuildFromArrayParallel is BuildFromArray with the 2^d root subtrees
// (and their overlay boxes) constructed concurrently. Each subtree is
// built into an arena of its own, so the builders share nothing but the
// read-only source array and the operation counter pointer (not written
// during construction); the root then adopts the subtree arenas' pages,
// rebasing their addresses, without copying a cell. The resulting tree
// answers identically to the sequential build.
func BuildFromArrayParallel(a *cube.Array, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(a.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	if t.n == t.cfg.Tile {
		// Single-tile domain: nothing to fan out.
		t.buildRoot(a)
		return t, nil
	}
	k := t.n / 2
	nc := 1 << uint(t.d)
	arenas := make([]*arena, nc)
	kids := make([]nodeRec, nc)
	boxes := make([]boxRec, nc)
	var wg sync.WaitGroup
	for ci := 0; ci < nc; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			childAnchor := make(grid.Point, t.d)
			for i := 0; i < t.d; i++ {
				if ci&(1<<uint(i)) != 0 {
					childAnchor[i] = k
				}
			}
			w := newNested(t.dims, t.cfg, &arena{}, t.ops)
			kids[ci] = w.buildRec(a, childAnchor, k)
			if !kids[ci].absent() {
				boxes[ci] = w.buildBox(a, childAnchor, k)
			}
			arenas[ci] = w.ar
		}(ci)
	}
	wg.Wait()
	rec := absentNode
	for ci := 0; ci < nc; ci++ {
		if kids[ci].absent() {
			continue
		}
		if rec.absent() {
			rec = t.ar.newBlock(nc)
		}
		b := t.ar.adopt(arenas[ci])
		*t.node(rec.child + int32(ci)) = b.node(kids[ci])
		*t.ar.boxes.at(rec.box + int32(ci)) = b.box(boxes[ci])
	}
	if !rec.absent() {
		t.root = t.ar.newRecord(rec)
	}
	return t, nil // all-zero array: empty root
}

// buildRoot bulk-builds the whole tree from a (sequentially).
func (t *Tree) buildRoot(a *cube.Array) {
	if rec := t.buildRec(a, make(grid.Point, t.d), t.n); !rec.absent() {
		t.root = t.ar.newRecord(rec)
	}
}

// buildRec constructs the subtree for the region [anchor, anchor+ext)
// of the source array and returns its record, absent for all-zero
// regions (which keeps bulk-loaded cubes as sparse as incrementally
// built ones). Subtrees are laid out depth first: a node's child and
// box blocks follow everything below it.
func (t *Tree) buildRec(a *cube.Array, anchor grid.Point, ext int) nodeRec {
	// Regions entirely outside the declared domain are padding: zero.
	for i := 0; i < t.d; i++ {
		if anchor[i] >= a.Extent().Dim(i) {
			return absentNode
		}
	}
	if ext == t.cfg.Tile {
		return t.buildLeaf(a, anchor)
	}
	k := ext / 2
	nc := 1 << uint(t.d)
	kids := make([]nodeRec, nc)
	boxes := make([]boxRec, nc)
	any := false
	for ci := 0; ci < nc; ci++ {
		childAnchor := anchor.Clone()
		for i := 0; i < t.d; i++ {
			if ci&(1<<uint(i)) != 0 {
				childAnchor[i] += k
			}
		}
		kids[ci] = t.buildRec(a, childAnchor, k)
		if kids[ci].absent() {
			continue
		}
		any = true
		boxes[ci] = t.buildBox(a, childAnchor, k)
	}
	if !any {
		return absentNode
	}
	rec := t.ar.newBlock(nc)
	copy(t.ar.nodes.region(rec.child, 0, nc), kids)
	copy(t.ar.boxes.region(rec.box, 0, nc), boxes)
	return rec
}

// buildLeaf copies one tile of raw values into the leaves slab; the
// record is absent if the tile is all zero.
func (t *Tree) buildLeaf(a *cube.Array, anchor grid.Point) nodeRec {
	tile := t.cfg.Tile
	rec := absentNode
	var vals []int64
	p := make(grid.Point, t.d)
	idx := make([]int, t.d)
	for off := 0; ; off++ {
		for i := 0; i < t.d; i++ {
			p[i] = anchor[i] + idx[i]
		}
		if v := a.Get(p); v != 0 {
			if vals == nil {
				rec.leaf = t.ar.leaves.alloc(t.leafCells)
				vals = t.ar.leaves.region(rec.leaf, 0, t.leafCells)
			}
			vals[off] = v
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
			return rec
		}
	}
}

// buildBox computes one overlay box's subtotal and row-sum groups with a
// single scan of the covered region, then bulk-builds the group stores.
func (t *Tree) buildBox(a *cube.Array, boxAnchor grid.Point, k int) boxRec {
	var b boxRec
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
	t.buildGroupsFromDense(&b, k, gs)
	return b
}

// buildGroupsFromDense bulk-constructs a box's group stores from dense
// row-sum buffers (mirrors initBox's recursion): flat groups are folded
// in place in the cells slab, the rest built into the side table.
func (t *Tree) buildGroupsFromDense(b *boxRec, k int, gs [][]int64) {
	kind := psum.Kind(t.cfg.Backend)
	switch {
	case t.d == 1:
		b.kind, b.ref = boxFlat, noRec
	case t.d == 2 && psum.BuildsFlat(kind, gs[0]) && psum.BuildsFlat(kind, gs[1]):
		fs := psum.FlatSize(k)
		b.kind, b.ref = boxFlat, t.ar.cells.alloc(2*fs)
		for j := range gs {
			cells := t.ar.cells.region(b.ref, j*fs, fs)
			copy(cells, gs[j])
			psum.FlatFold(cells, k)
		}
	case t.d == 2:
		b.kind, b.ref = boxSide, t.ar.allocSide(2)
		side := t.ar.side.region(b.ref, 0, 2)
		for j := range side {
			side[j] = group{ps: psum.FromSlice(kind, gs[j], t.cfg.Fanout)}
		}
	default:
		dims := make([]int, t.d-1)
		for i := range dims {
			dims[i] = k
		}
		b.kind, b.ref = boxSide, t.ar.allocSide(t.d)
		for j := 0; j < t.d; j++ {
			ga, err := cube.FromValues(dims, gs[j])
			if err != nil {
				panic(err) // dims/buffer sizes are internally consistent
			}
			nested := newNested(dims, t.cfg, t.ar, t.ops)
			nested.buildRoot(ga)
			*t.ar.side.at(b.ref + int32(j)) = group{tr: nested}
		}
	}
}
