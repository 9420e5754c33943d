package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// The reference descent below is the recursive prefix query the
// straight-line descents replaced: at every node it classifies each of
// the 2^d boxes dimension by dimension as before, wholly dominated,
// cut by one face, or covering the target, and recurses into the
// covering child. Pending range updates are composed the way the tree
// composed them before they moved to one pass per query box: clipped
// at every corner (refPendingPrefix), with the terms counted once per
// pending box meeting the query box (refPendingHits). It shares nothing
// with the production code except the tree itself, so
// TestDescentMatchesReference pins the descent's answers and op counts
// to it.

type refFrame struct {
	boxAnchor, l, qq grid.Point
	drop, idx, hi    []int
}

type refScratch struct {
	frames []refFrame
	ops    cube.OpCounter
	lv     []uint64
	lvOn   bool
}

func (s *refScratch) frame(depth, d int) *refFrame {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, refFrame{
			boxAnchor: make(grid.Point, d), l: make(grid.Point, d), qq: make(grid.Point, d),
			drop: make([]int, d), idx: make([]int, d), hi: make([]int, d),
		})
	}
	return &s.frames[depth]
}

func (s *refScratch) visit(depth int) {
	s.ops.NodeVisits++
	if s.lvOn {
		for len(s.lv) <= depth {
			s.lv = append(s.lv, 0)
		}
		s.lv[depth]++
	}
}

// refPrefixWithOps is the reference counterpart of prefixWithOps: the
// tree-only reference descent plus the pending boxes clipped at p, with
// one pending term per box meeting [origin, p].
func refPrefixWithOps(t *Tree, p grid.Point, ops *cube.OpCounter, lv *[]uint64) int64 {
	v := refTreePrefix(t, p, ops, lv)
	refPendingHits(t, t.origin, p, ops)
	return v + refPendingPrefix(t, p)
}

// refTreePrefix is the reference counterpart of prefixAt: the prefix
// sum of the overlay tree alone at the logical point p.
func refTreePrefix(t *Tree, p grid.Point, ops *cube.OpCounter, lv *[]uint64) int64 {
	if len(p) != t.d || t.root == noRec {
		return 0
	}
	s := &refScratch{lvOn: lv != nil}
	q := make(grid.Point, t.d)
	for i, v := range p {
		v -= t.origin[i]
		if v < 0 {
			return 0
		}
		if v >= t.n {
			v = t.n - 1
		}
		q[i] = v
	}
	sum := refPrefixRec(t, s, t.root, make(grid.Point, t.d), t.n, q, 0)
	ops.Add(s.ops)
	if lv != nil {
		for i, n := range s.lv {
			for len(*lv) <= i {
				*lv = append(*lv, 0)
			}
			(*lv)[i] += n
		}
	}
	return sum
}

// refPendingPrefix is the per-corner pending composition: for each
// pending box, delta times the volume of the box clipped to the region
// dominated by the logical point p.
func refPendingPrefix(t *Tree, p grid.Point) int64 {
	var sum int64
	for bi := 0; bi < t.pending.Len(); bi++ {
		lo, hi, delta := t.pending.Box(bi)
		cells := int64(1)
		for i, v := range p {
			w := min(hi[i], v) - lo[i] + 1
			if w <= 0 {
				cells = 0
				break
			}
			cells *= int64(w)
		}
		sum += delta * cells
	}
	return sum
}

// refPendingHits counts, into ops, one pending term (a cell read and a
// KindPending contribution) per pending box that meets the inclusive
// logical box [lo, hi].
func refPendingHits(t *Tree, lo, hi grid.Point, ops *cube.OpCounter) {
	for bi := 0; bi < t.pending.Len(); bi++ {
		blo, bhi, _ := t.pending.Box(bi)
		meets := true
		for i := range lo {
			meets = meets && blo[i] <= hi[i] && lo[i] <= bhi[i]
		}
		if meets {
			ops.QueryCells++
			ops.Contribs[KindPending]++
		}
	}
}

func refPrefixRec(t *Tree, s *refScratch, nd int32, anchor grid.Point, ext int, q grid.Point, depth int) int64 {
	ar := t.ar
	n := ar.nodes.at(nd)
	if ext == t.cfg.Tile {
		if n.leaf < 0 {
			return 0
		}
		s.visit(depth)
		return refLeafPrefix(t, s, n.leaf, anchor, q, depth)
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
			continue
		}
		b := ar.boxes.at(n.box + int32(ci))
		switch {
		case afterAll:
			if b.kind != boxAbsent {
				sum += b.sub
				s.ops.QueryCells++
				s.ops.Contribs[KindSubtotal]++
			}
		case faceDim >= 0:
			switch b.kind {
			case boxFlat, boxSide:
				s.ops.Contribs[KindRowSum]++
				sum += refBoxPrefix(t, b, k, faceDim, dropDimInto(fr.drop, l, faceDim), &s.ops)
			case boxDelegate:
				s.ops.Contribs[KindDelegated]++
				qq := fr.qq
				for i := 0; i < t.d; i++ {
					qq[i] = boxAnchor[i] + l[i]
				}
				sum += refPrefixRec(t, s, n.child+int32(ci), boxAnchor, k, qq, depth+1)
			}
		default:
			sum += refPrefixRec(t, s, n.child+int32(ci), boxAnchor, k, q, depth+1)
		}
	}
	return sum
}

func refBoxPrefix(t *Tree, b *boxRec, k, j int, l []int, ops *cube.OpCounter) int64 {
	if b.kind == boxFlat {
		fs := psum.FlatSize(k)
		v, visits := psum.FlatPrefix(t.ar.cells.region(b.ref, j*fs, fs), k, l[0])
		ops.QueryCells += visits
		return v
	}
	g := t.ar.side.at(b.ref + int32(j))
	if g.ps != nil {
		v, visits := g.ps.PrefixSumVisits(l[0])
		ops.QueryCells += visits
		return v
	}
	return refTreePrefix(g.tr, grid.Point(l), ops, nil)
}

func refLeafPrefix(t *Tree, s *refScratch, leaf int32, anchor, q grid.Point, depth int) int64 {
	s.ops.Contribs[KindLeaf]++
	cells := t.ar.leaves.region(leaf, 0, t.leafCells)
	fr := s.frame(depth, t.d)
	tile := t.cfg.Tile
	hi := fr.hi
	for i := 0; i < t.d; i++ {
		hi[i] = min(q[i]-anchor[i], tile-1)
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

// TestDescentMatchesReference compares the production descent with the
// reference descent point by point — the tree-only corner's value, op
// counts and per-level visit profile, and Prefix's value and op counts
// with the pending boxes composed, exactly — for d = 1..4, tiles 1, 2,
// 4 and 8 and every backend, on empty, sparse and dense trees, with
// pending RangeAdd boxes, after growth in before and after directions
// (the root boxes over the old data delegate) and after Materialize.
// Each state also checks that RangeSumOps counts exactly the reference
// ops of its in-range corners plus one pending term per pending box
// meeting the query box.
func TestDescentMatchesReference(t *testing.T) {
	dimsByD := [][]int{{23}, {13, 9}, {7, 5, 6}, {3, 4, 2, 3}}
	for _, dims := range dimsByD {
		for _, tile := range []int{1, 2, 4, 8} {
			for _, kind := range psum.Kinds() {
				cfg := Config{Tile: tile, Backend: string(kind)}
				name := fmt.Sprintf("d%d/tile%d/%s", len(dims), tile, kind)
				t.Run(name, func(t *testing.T) { descentCase(t, dims, cfg) })
			}
		}
	}
}

func descentCase(t *testing.T, dims []int, cfg Config) {
	d := len(dims)
	r := rand.New(rand.NewSource(int64(d*100 + cfg.Tile)))
	randPoint := func(tr *Tree) grid.Point {
		lo, hi := tr.Bounds()
		p := make(grid.Point, d)
		for i := range p {
			p[i] = lo[i] + r.Intn(hi[i]-lo[i])
		}
		return p
	}
	addPoints := func(tr *Tree, n int) {
		for i := 0; i < n; i++ {
			if err := tr.Add(randPoint(tr), int64(r.Intn(19)-9)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rangeAdd := func(tr *Tree) {
		lo, hi := randPoint(tr), randPoint(tr)
		for i := range lo {
			lo[i], hi[i] = min(lo[i], hi[i]), max(lo[i], hi[i])
		}
		if err := tr.RangeAdd(lo, hi, int64(r.Intn(5)+1)); err != nil {
			t.Fatal(err)
		}
	}
	grow := func(tr *Tree, firstBefore bool) {
		before := make([]bool, d)
		for i := range before {
			before[i] = (i%2 == 0) == firstBefore
		}
		if err := tr.Grow(before); err != nil {
			t.Fatal(err)
		}
	}

	empty, err := NewWithConfig(dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDescent(t, "empty", empty, r)

	sparse, err := NewWithConfig(dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addPoints(sparse, 6)
	checkDescent(t, "sparse", sparse, r)
	grow(sparse, true)
	addPoints(sparse, 3)
	checkDescent(t, "sparse/grown", sparse, r)

	dense, err := BuildFromArray(randomArray(t, dims, int64(17*d+cfg.Tile)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDescent(t, "dense", dense, r)
	rangeAdd(dense)
	rangeAdd(dense)
	checkDescent(t, "dense/pending", dense, r)
	grow(dense, true)
	checkDescent(t, "dense/grown-before", dense, r)
	addPoints(dense, 5)
	rangeAdd(dense)
	checkDescent(t, "dense/grown-before/updated", dense, r)
	grow(dense, false)
	addPoints(dense, 5)
	checkDescent(t, "dense/grown-twice", dense, r)
	if !dense.HasDelegates() {
		t.Fatal("grown tree has no delegating box")
	}
	dense.Materialize()
	rangeAdd(dense)
	checkDescent(t, "dense/materialized", dense, r)
}

// checkDescent compares every point of tr's bounds (a random sample
// when there are more than 4096), plus points below and beyond them.
func checkDescent(t *testing.T, state string, tr *Tree, r *rand.Rand) {
	t.Helper()
	lo, hi := tr.Bounds()
	d := tr.D()
	var points []grid.Point
	if cells := grid.BoxCells(lo, hiIncl(hi)); cells <= 4096 {
		grid.ForEachInBox(lo, hiIncl(hi), func(p grid.Point) { points = append(points, p.Clone()) })
	} else {
		for i := 0; i < 1500; i++ {
			p := make(grid.Point, d)
			for j := range p {
				p[j] = lo[j] + r.Intn(hi[j]-lo[j])
			}
			points = append(points, p)
		}
	}
	below, beyond := lo.Clone(), hi.Clone()
	below[d-1]--
	beyond[0] += 3
	points = append(points, below, beyond)
	for _, p := range points {
		var plainOps, wantOps, wantTreeOps cube.OpCounter
		var wantLv []uint64
		plain := tr.prefixWithOps(p, &plainOps)
		got, gotOps, gotLv := tracedPrefix(tr, p)
		wantTree := refTreePrefix(tr, p, &wantTreeOps, &wantLv)
		if got != wantTree || gotOps != wantTreeOps || !reflect.DeepEqual(gotLv, wantLv) {
			t.Fatalf("%s: tree-only corner %v = %d ops %+v lv %v; reference %d ops %+v lv %v",
				state, p, got, gotOps, gotLv, wantTree, wantTreeOps, wantLv)
		}
		want := refPrefixWithOps(tr, p, &wantOps, nil)
		if plain != want || plainOps != wantOps {
			t.Fatalf("%s: Prefix(%v) = %d ops %+v; reference %d ops %+v",
				state, p, plain, plainOps, want, wantOps)
		}
	}
	for i := 0; i < 50; i++ {
		a, b := points[r.Intn(len(points)-2)], points[r.Intn(len(points)-2)]
		blo, bhi := make(grid.Point, d), make(grid.Point, d)
		for j := range blo {
			blo[j], bhi[j] = min(a[j], b[j]), max(a[j], b[j])
		}
		got, gotOps, err := tr.RangeSumOps(blo, bhi)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		var wantOps cube.OpCounter
		corner := make(grid.Point, d)
		for mask := 0; mask < 1<<uint(d); mask++ {
			neg := false
			for j := range corner {
				corner[j] = bhi[j]
				if mask>>uint(j)&1 != 0 {
					corner[j] = blo[j] - 1
					neg = !neg
				}
			}
			v := refTreePrefix(tr, corner, &wantOps, nil) + refPendingPrefix(tr, corner)
			if neg {
				v = -v
			}
			want += v
		}
		refPendingHits(tr, blo, bhi, &wantOps)
		if got != want || gotOps != wantOps {
			t.Fatalf("%s: RangeSum(%v, %v) = %d ops %+v; reference %d ops %+v",
				state, blo, bhi, got, gotOps, want, wantOps)
		}
	}
}

// tracedPrefix answers the tree-only prefix at p the way a traced
// batch runs a corner — on a cornerScratch with the per-level visit
// profile on — and returns the value, the op counts and the profile
// (nil when the descent visits nothing).
func tracedPrefix(t *Tree, p grid.Point) (int64, cube.OpCounter, []uint64) {
	var ops cube.OpCounter
	if t.root == noRec {
		return 0, ops, nil
	}
	s := t.cornerScratch([]uint64{})
	defer s.release(&ops, nil)
	for i, v := range p {
		if v < t.origin[i] {
			return 0, ops, nil
		}
		s.q[i] = min(v-t.origin[i], t.n-1)
	}
	v := t.prefixAt(s)
	return v, s.ops, append([]uint64(nil), s.lv...)
}

// hiIncl turns an exclusive high corner into an inclusive one.
func hiIncl(hi grid.Point) grid.Point {
	out := hi.Clone()
	for i := range out {
		out[i]--
	}
	return out
}

// TestRangeSumCornerBelowOriginIsFree pins the corner reduction's
// short cut: a corner below the origin in any dimension dominates an
// empty region and is skipped before it reaches a descent — no node
// visit, no cell read — so a box anchored at the origin costs exactly
// its high corner's prefix query, on fixed and on grown
// (negative-origin) trees. (The whole RangeSum runs on one query
// scratch, so no corner checks one out.)
func TestRangeSumCornerBelowOriginIsFree(t *testing.T) {
	for _, dims := range [][]int{{9}, {12, 10}, {6, 5, 7}} {
		tr, err := BuildFromArray(randomArray(t, dims, 5), Config{Tile: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, grown := range []bool{false, true} {
			if grown {
				before := make([]bool, len(dims))
				for i := range before {
					before[i] = true
				}
				if err := tr.Grow(before); err != nil {
					t.Fatal(err)
				}
			}
			lo, hi := tr.Bounds()
			hi = hiIncl(hi)
			wantV, wantOps := tr.PrefixOps(hi)
			gotV, gotOps, err := tr.RangeSumOps(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if gotV != wantV || gotOps != wantOps {
				t.Fatalf("dims %v grown %v: RangeSum(origin, %v) = %d ops %+v; Prefix = %d ops %+v",
					dims, grown, hi, gotV, gotOps, wantV, wantOps)
			}
		}
	}
}
