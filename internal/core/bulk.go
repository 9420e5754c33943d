package core

import (
	"fmt"
	"math/bits"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// BuildFromArray bulk-loads a Dynamic Data Cube from a dense array; see
// BuildFromValues.
func BuildFromArray(a *cube.Array, cfg Config) (*Tree, error) {
	return BuildFromValues(a.Dims(), a.Raw(), cfg)
}

// BuildFromValues bulk-loads a Dynamic Data Cube from dense row-major
// values (len(values) must equal the product of dims), which it reads in
// place and does not retain. The tree is built bottom-up in one pass
// over the cells instead of replaying one Add per nonzero cell — the
// batch-load path Section 1 contrasts with incremental updates.
//
// An overlay box's d row-sum groups are the faces of the region it
// covers (Section 4): group j holds the region's sums along dimension j.
// A region's face along j is the sum of its children's faces, placed at
// the children's offsets. So a leaf tile fills its faces while its cells
// are copied, and an inner node builds box ci's groups from child ci's
// faces and then adds them into its own; at d = 1 the one face is the
// region's total. Construction costs O(n^d) cell reads plus the group
// builds, with no per-update group maintenance.
//
// Records and cells are laid out depth first into fresh slabs, and
// all-zero regions stay absent, so a bulk-loaded cube is as sparse as an
// incrementally built one. The tree answers exactly like FromArray's
// (tests assert equality); FromArray remains the incremental path and
// the two are compared in the ablation-bulk experiment.
func BuildFromValues(dims []int, values []int64, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(dims, cfg)
	if err != nil {
		return nil, err
	}
	cells := 1
	for _, sz := range dims {
		cells *= sz
	}
	if len(values) != cells {
		return nil, fmt.Errorf("%w: %d values for domain of %d cells", grid.ErrDims, len(values), cells)
	}
	t.build(&builder{}, values)
	return t, nil
}

// builder is the bulk build's scratch for the trees of one nesting
// level, which are built one at a time. Each level of a tree has its
// buffers: the d faces a region fills for its parent, and an inner
// node's child records, boxes and child anchor. Siblings reuse their
// level's faces, because a child's faces are consumed (its box built,
// the faces added into the parent's) before the next child is built.
// Group trees one nesting level down are built with next.
type builder struct {
	vals   []int64      // the tree's row-major source values
	stride []int        // row-major strides of vals
	levels []buildLevel // by log2 of the region's side
	idx, w []int        // row walks over a leaf tile or a face
	next   *builder
}

type buildLevel struct {
	faces  [][]int64 // d faces of side^(d-1) cells, row-major
	kids   []nodeRec
	boxes  []boxRec
	anchor grid.Point
}

// build bulk-loads the empty tree t from vals.
func (t *Tree) build(bd *builder, vals []int64) {
	bd.vals = vals
	bd.stride = resize(bd.stride, t.d)
	for i, s := t.d-1, 1; i >= 0; i-- {
		bd.stride[i] = s
		s *= t.dims[i]
	}
	bd.idx = resize(bd.idx, t.d)
	bd.w = resize(bd.w, t.d)
	for e := len(bd.levels); e <= bits.TrailingZeros(uint(t.n)); e++ {
		faceCells := 1
		for i := 1; i < t.d; i++ {
			faceCells <<= e
		}
		lv := buildLevel{
			faces:  make([][]int64, t.d),
			kids:   make([]nodeRec, 1<<uint(t.d)),
			boxes:  make([]boxRec, 1<<uint(t.d)),
			anchor: make(grid.Point, t.d),
		}
		for j := range lv.faces {
			lv.faces[j] = make([]int64, faceCells)
		}
		bd.levels = append(bd.levels, lv)
	}
	if rec := t.buildRec(bd, t.zero, t.n); !rec.absent() {
		t.root = t.ar.newRecord(rec)
	}
}

// buildRec constructs the subtree for the region [anchor, anchor+ext),
// leaves the region's faces in its level's buffers and returns its
// record, absent for all-zero regions. Subtrees are laid out depth
// first: a child's box follows everything below the child, and a node's
// child and box blocks follow everything below it.
func (t *Tree) buildRec(bd *builder, anchor grid.Point, ext int) nodeRec {
	// Regions entirely outside the declared domain are padding: zero.
	for i := 0; i < t.d; i++ {
		if anchor[i] >= t.dims[i] {
			return absentNode
		}
	}
	if ext == t.cfg.Tile {
		return t.buildLeaf(bd, anchor)
	}
	k := ext / 2
	lv := &bd.levels[bits.TrailingZeros(uint(ext))]
	cf := bd.levels[bits.TrailingZeros(uint(k))].faces
	for _, f := range lv.faces {
		clear(f)
	}
	any := false
	for ci := range lv.kids {
		for i := 0; i < t.d; i++ {
			lv.anchor[i] = anchor[i] + (ci>>uint(i)&1)*k
		}
		lv.kids[ci], lv.boxes[ci] = t.buildRec(bd, lv.anchor, k), boxRec{}
		if lv.kids[ci].absent() {
			continue
		}
		any = true
		b := &lv.boxes[ci]
		for _, v := range cf[0] {
			b.sub += v
		}
		t.buildGroupsFromDense(bd, b, k, cf)
		bd.addFaces(lv.faces, ext, cf, k, ci)
	}
	if !any {
		return absentNode
	}
	rec := t.ar.newBlock(len(lv.kids))
	copy(t.ar.nodes.region(rec.child, 0, len(lv.kids)), lv.kids)
	copy(t.ar.boxes.region(rec.box, 0, len(lv.boxes)), lv.boxes)
	return rec
}

// buildLeaf copies one tile of source values into the leaves slab, one
// row of the last dimension at a time, and fills the tile's faces on
// the way; the record is absent if the tile is all zero.
func (t *Tree) buildLeaf(bd *builder, anchor grid.Point) nodeRec {
	tile, last := t.cfg.Tile, t.d-1
	faces := bd.levels[bits.TrailingZeros(uint(tile))].faces
	for _, f := range faces {
		clear(f)
	}
	// w clips the tile to the declared domain; idx walks its rows.
	w, idx := bd.w, bd.idx[:last]
	for i := range w {
		w[i] = min(tile, t.dims[i]-anchor[i])
	}
	clear(idx)
	rec := absentNode
	var leaf []int64
	for {
		src, row := anchor[last], 0
		for i, x := range idx {
			src += (anchor[i] + x) * bd.stride[i]
			row = row*tile + x
		}
		vals := bd.vals[src : src+w[last]]
		var sum, nz int64
		for _, v := range vals {
			sum += v
			nz |= v
		}
		if nz != 0 {
			if leaf == nil {
				rec.leaf = t.ar.leaves.alloc(t.leafCells)
				leaf = t.ar.leaves.region(rec.leaf, 0, t.leafCells)
			}
			copy(leaf[row*tile:], vals)
			// The face along the last dimension holds one sum per row;
			// every other face j takes the row at its position without
			// idx[j].
			faces[last][row] = sum
			for j := range idx {
				off := 0
				for i, x := range idx {
					if i != j {
						off = off*tile + x
					}
				}
				f := faces[j][off*tile : off*tile+len(vals)]
				for x, v := range vals {
					f[x] += v
				}
			}
		}
		i := last - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < w[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return rec
		}
	}
}

// addFaces adds the faces cf of child ci (side k) into its parent's
// faces pf (side ext = 2k). The child sits at offset k along every
// dimension whose bit is set in ci; face j drops dimension j and is
// added one row of its last dimension at a time.
func (bd *builder) addFaces(pf [][]int64, ext int, cf [][]int64, k, ci int) {
	d := len(pf)
	if d == 1 {
		pf[0][0] += cf[0][0]
		return
	}
	idx := bd.idx[:d-2] // the face's outer coordinates
	for j := range pf {
		pos := 0
		for i := 0; i < d; i++ {
			if i != j {
				pos = pos*ext + (ci>>uint(i)&1)*k
			}
		}
		clear(idx)
		src, dst := cf[j], pf[j]
		for r := 0; r < len(src); r += k {
			row := dst[pos : pos+k]
			for x, v := range src[r : r+k] {
				row[x] += v
			}
			for f, step := len(idx)-1, ext; f >= 0; f, step = f-1, step*ext {
				idx[f]++
				pos += step
				if idx[f] < k {
					break
				}
				idx[f] = 0
				pos -= k * step
			}
		}
	}
}

// buildGroupsFromDense bulk-constructs a box's group stores from dense
// row-sum buffers (mirrors initBox's recursion): flat groups are folded
// in place in the cells slab, the rest built into the side table, a
// nested cube (d > 2) reading its buffer in place with bd's next level.
func (t *Tree) buildGroupsFromDense(bd *builder, b *boxRec, k int, gs [][]int64) {
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
		if bd.next == nil {
			bd.next = &builder{}
		}
		for j := range gs {
			nested := t.newNested(dims)
			nested.build(bd.next, gs[j])
			*t.ar.side.at(b.ref + int32(j)) = group{tr: nested}
		}
	}
}
