package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
	"ddc/internal/workload"
)

func TestBuildFromArrayMatchesIncremental(t *testing.T) {
	dimSets := [][]int{{9}, {16}, {8, 8}, {5, 9}, {4, 4, 4}, {3, 5, 2}, {2, 3, 2, 3}}
	for _, dims := range dimSets {
		for _, cfg := range []Config{
			{Tile: 1, Fanout: 3},
			{Tile: 2, Fanout: 4},
			{},
		} {
			a := randomArray(t, dims, 55)
			bulk, err := BuildFromArray(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			incr, err := FromArray(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a.Extent().ForEach(func(p grid.Point) {
				if got, want := bulk.Prefix(p), a.Prefix(p); got != want {
					t.Fatalf("dims %v cfg %+v: bulk Prefix(%v) = %d, want %d", dims, cfg, p, got, want)
				}
				if bulk.Get(p) != a.Get(p) {
					t.Fatalf("dims %v: bulk Get(%v) = %d, want %d", dims, p, bulk.Get(p), a.Get(p))
				}
			})
			if bulk.Total() != incr.Total() {
				t.Fatalf("dims %v: totals differ: %d vs %d", dims, bulk.Total(), incr.Total())
			}
			if bulk.HasDelegates() {
				t.Fatalf("dims %v: bulk build left delegating boxes", dims)
			}
		}
	}
}

func TestBuildFromArrayThenUpdate(t *testing.T) {
	// The bulk-built tree must remain fully maintainable: updates after
	// construction keep every group consistent.
	a := randomArray(t, []int{8, 8, 8}, 91)
	tr, err := BuildFromArray(a, Config{Tile: 2, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := []grid.Point{{0, 0, 0}, {7, 7, 7}, {3, 4, 5}, {1, 6, 2}}
	for i, p := range pts {
		v := int64(100 + i)
		if err := tr.Set(p, v); err != nil {
			t.Fatal(err)
		}
		if err := a.Set(p, v); err != nil {
			t.Fatal(err)
		}
	}
	a.Extent().ForEach(func(p grid.Point) {
		if got, want := tr.Prefix(p), a.Prefix(p); got != want {
			t.Fatalf("after updates, Prefix(%v) = %d, want %d", p, got, want)
		}
	})
}

func TestBuildFromArraySparseStaysSparse(t *testing.T) {
	a := cube.MustNew(512, 512)
	_ = a.Set(grid.Point{100, 200}, 5)
	_ = a.Set(grid.Point{400, 30}, 7)
	tr, err := BuildFromArray(a, Config{Tile: 4})
	if err != nil {
		t.Fatal(err)
	}
	incr, err := FromArray(a, Config{Tile: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.StorageCells() > 2*incr.StorageCells()+100 {
		t.Fatalf("bulk build allocated %d cells vs incremental %d — zero regions materialised",
			tr.StorageCells(), incr.StorageCells())
	}
	if tr.Total() != 12 {
		t.Fatalf("Total = %d", tr.Total())
	}
}

func TestBuildFromArrayEmpty(t *testing.T) {
	a := cube.MustNew(16, 16)
	tr, err := BuildFromArray(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.root != noRec {
		t.Fatal("empty array should build a nil root")
	}
	if tr.Total() != 0 || tr.Prefix(grid.Point{15, 15}) != 0 {
		t.Fatal("empty bulk cube should read zero")
	}
	if err := tr.Add(grid.Point{3, 3}, 5); err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 5 {
		t.Fatalf("Total after add = %d", tr.Total())
	}
}

func TestBuildFromArrayPaddedDomain(t *testing.T) {
	// Non-power-of-two dims: padding beyond the declared domain must not
	// be scanned into boxes or leaves.
	a := randomArray(t, []int{5, 11}, 123)
	tr, err := BuildFromArray(a, Config{Tile: 2, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	a.Extent().ForEach(func(p grid.Point) {
		if got, want := tr.Prefix(p), a.Prefix(p); got != want {
			t.Fatalf("Prefix(%v) = %d, want %d", p, got, want)
		}
	})
	if got := tr.Prefix(grid.Point{100, 100}); got != a.Total() {
		t.Fatalf("clamped Prefix = %d, want %d", got, a.Total())
	}
}

func TestBuildFromArrayRejectsBadConfig(t *testing.T) {
	a := cube.MustNew(4, 4)
	if _, err := BuildFromArray(a, Config{Tile: 3}); err == nil {
		t.Fatal("expected config error")
	}
}

// refBuild is the bulk builder the face recurrence replaced, kept as the
// reference BuildFromArray's arena must equal: a depth-first recursion
// that rescans the array under every overlay box (one pass per tree
// level) and builds nested group cubes the same way.
func refBuild(a *cube.Array, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(a.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	t.refBuildRoot(a)
	return t, nil
}

func (t *Tree) refBuildRoot(a *cube.Array) {
	if rec := t.refBuildRec(a, make(grid.Point, t.d), t.n); !rec.absent() {
		t.root = t.ar.newRecord(rec)
	}
}

func (t *Tree) refBuildRec(a *cube.Array, anchor grid.Point, ext int) nodeRec {
	for i := 0; i < t.d; i++ {
		if anchor[i] >= a.Extent().Dim(i) {
			return absentNode
		}
	}
	if ext == t.cfg.Tile {
		return t.refBuildLeaf(a, anchor)
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
		kids[ci] = t.refBuildRec(a, childAnchor, k)
		if kids[ci].absent() {
			continue
		}
		any = true
		boxes[ci] = t.refBuildBox(a, childAnchor, k)
	}
	if !any {
		return absentNode
	}
	rec := t.ar.newBlock(nc)
	copy(t.ar.nodes.region(rec.child, 0, nc), kids)
	copy(t.ar.boxes.region(rec.box, 0, nc), boxes)
	return rec
}

func (t *Tree) refBuildLeaf(a *cube.Array, anchor grid.Point) nodeRec {
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
			if idx[i] < t.cfg.Tile {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return rec
		}
	}
}

func (t *Tree) refBuildBox(a *cube.Array, boxAnchor grid.Point, k int) boxRec {
	var b boxRec
	faceSize := 1
	for i := 1; i < t.d; i++ {
		faceSize *= k
	}
	gs := make([][]int64, t.d)
	for j := range gs {
		gs[j] = make([]int64, faceSize)
	}
	hi := make(grid.Point, t.d)
	for i := 0; i < t.d; i++ {
		hi[i] = min(boxAnchor[i]+k, a.Extent().Dim(i)) - 1
	}
	o := make(grid.Point, t.d)
	grid.ForEachInBox(boxAnchor, hi, func(p grid.Point) {
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
				panic(err)
			}
			nested := t.newNested(dims)
			nested.refBuildRoot(ga)
			*t.ar.side.at(b.ref + int32(j)) = group{tr: nested}
		}
	}
	return b
}

// sameArena reports how got's arena differs from want's: root address,
// every page of the nodes, boxes, cells and leaves slabs (length,
// capacity and contents), the side table's pages and the kind of each
// slot (a psum backend's type, or a nested tree's root, side and
// dimensions), and the free list.
func sameArena(got, want *Tree) error {
	if got.root != want.root {
		return fmt.Errorf("root %d, want %d", got.root, want.root)
	}
	if err := samePages("nodes", &got.ar.nodes, &want.ar.nodes, func(a, b nodeRec) bool { return a == b }); err != nil {
		return err
	}
	if err := samePages("boxes", &got.ar.boxes, &want.ar.boxes, func(a, b boxRec) bool { return a == b }); err != nil {
		return err
	}
	eq := func(a, b int64) bool { return a == b }
	if err := samePages("cells", &got.ar.cells, &want.ar.cells, eq); err != nil {
		return err
	}
	if err := samePages("leaves", &got.ar.leaves, &want.ar.leaves, eq); err != nil {
		return err
	}
	if err := samePages("side", &got.ar.side, &want.ar.side, func(a, b group) bool { return slotKind(a) == slotKind(b) }); err != nil {
		return err
	}
	if !slices.Equal(got.ar.free, want.ar.free) {
		return fmt.Errorf("free list %v, want %v", got.ar.free, want.ar.free)
	}
	return nil
}

func samePages[T any](name string, got, want *slab[T], eq func(a, b T) bool) error {
	if len(got.pages) != len(want.pages) || got.open != want.open {
		return fmt.Errorf("%s: %d pages (open %d), want %d (open %d)", name, len(got.pages), got.open, len(want.pages), want.open)
	}
	for i, pg := range got.pages {
		wp := want.pages[i]
		if len(pg) != len(wp) || cap(pg) != cap(wp) {
			return fmt.Errorf("%s page %d: len %d cap %d, want len %d cap %d", name, i, len(pg), cap(pg), len(wp), cap(wp))
		}
		for j := range pg {
			if !eq(pg[j], wp[j]) {
				return fmt.Errorf("%s page %d element %d: %+v, want %+v", name, i, j, pg[j], wp[j])
			}
		}
	}
	return nil
}

func slotKind(g group) string {
	switch {
	case g.ps != nil:
		return fmt.Sprintf("psum %T", g.ps)
	case g.tr != nil:
		return fmt.Sprintf("tree root %d side %d dims %v", g.tr.root, g.tr.n, g.tr.dims)
	}
	return "empty"
}

// bulkVariant fills an array of the given dims for the arena identity
// checks: random values, the same with every cell in the low half of
// each dimension zeroed (an all-zero quadrant, octant, ...), or nothing.
func bulkVariant(t *testing.T, dims []int, variant string) *cube.Array {
	switch variant {
	case "zero":
		return cube.MustNew(dims...)
	case "quadrants":
		a := randomArray(t, dims, 71)
		a.Extent().ForEach(func(p grid.Point) {
			low := true
			for i, x := range p {
				low = low && x < (dims[i]+1)/2
			}
			if low {
				_ = a.Set(p, 0)
			}
		})
		return a
	}
	return randomArray(t, dims, 29)
}

// TestBulkBuildMatchesReferenceArena requires the face-recurrence build
// to lay out its arena exactly as the per-box scan reference does, page
// for page, across dimensionalities, ragged and tiny sides, every tile
// the configuration tests use, every prefix-sum backend, and arrays
// with all-zero regions, a single-tile domain and no data at all.
func TestBulkBuildMatchesReferenceArena(t *testing.T) {
	dimSets := [][]int{{9}, {5, 9}, {1000, 3}, {3, 5, 2}, {2, 3, 2, 3}}
	for _, tile := range []int{1, 2, 4, 8} {
		single := make([][]int, 4)
		for d := range single {
			single[d] = make([]int, d+1)
			for i := range single[d] {
				single[d][i] = tile - i%2*(tile/2) // tile or tile/2, never 0
			}
		}
		for _, kind := range psum.Kinds() {
			cfg := Config{Tile: tile, Backend: string(kind)}
			for _, dims := range append(slices.Clone(dimSets), single...) {
				for _, variant := range []string{"random", "quadrants", "zero"} {
					a := bulkVariant(t, dims, variant)
					got, err := BuildFromArray(a, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refBuild(a, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameArena(got, want); err != nil {
						t.Fatalf("tile %d backend %s dims %v %s: %v", tile, kind, dims, variant, err)
					}
				}
			}
		}
	}
}

// TestBulkBuildAddAllocs pins the update path of a freshly bulk-built
// d = 3 cube at 0 allocations: adds at points no earlier add touched
// reach nested group trees that have never been updated, which share
// one update scratch per nesting level instead of each making its own.
func TestBulkBuildAddAllocs(t *testing.T) {
	const side = 32
	for _, tile := range []int{4, 0} {
		vals := make([]int64, side*side*side)
		r := workload.NewRNG(3)
		for i := range vals {
			vals[i] = 1 + r.Int63n(100)
		}
		tr, err := BuildFromValues([]int{side, side, side}, vals, Config{Tile: tile})
		if err != nil {
			t.Fatal(err)
		}
		p := make(grid.Point, 3)
		next := 0
		allocs := testing.AllocsPerRun(500, func() {
			// A stride coprime to the cell count visits distinct cells.
			next = (next + 7919) % len(vals)
			p[0], p[1], p[2] = next/(side*side), next/side%side, next%side
			if err := tr.Add(p, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("tile %d: Add on a fresh bulk-built cube allocates %.2f times, want 0", tile, allocs)
		}
	}
}

// FuzzBulkBuild builds trees of 1 to 3 dimensions, sides 1 to 40, tiles
// 1 to 8 and sparse or dense values, and requires each to pass
// CheckInvariants, to answer every prefix sum as the dense array does,
// and to lay out its arena as the per-box scan reference does.
func FuzzBulkBuild(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(0), uint8(0), uint8(0), false, uint64(1))
	f.Add(uint8(1), uint8(4), uint8(8), uint8(0), uint8(1), false, uint64(2))
	f.Add(uint8(1), uint8(39), uint8(2), uint8(0), uint8(3), true, uint64(3))
	f.Add(uint8(1), uint8(16), uint8(16), uint8(0), uint8(3), false, uint64(4))
	f.Add(uint8(2), uint8(5), uint8(3), uint8(6), uint8(1), false, uint64(5))
	f.Add(uint8(2), uint8(9), uint8(1), uint8(12), uint8(2), true, uint64(6))
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(3), false, uint64(7))
	f.Fuzz(func(t *testing.T, dsel, s0, s1, s2, tsel uint8, sparse bool, seed uint64) {
		dims := []int{1 + int(s0)%40, 1 + int(s1)%40, 1 + int(s2)%40}[:1+int(dsel)%3]
		cfg := Config{Tile: 1 << (tsel % 4)}
		a, err := cube.New(dims)
		if err != nil {
			t.Fatal(err)
		}
		r := workload.NewRNG(seed)
		a.Extent().ForEach(func(p grid.Point) {
			if !sparse || r.Intn(16) == 0 {
				_ = a.Set(p, r.Int63n(41)-20)
			}
		})
		tr, err := BuildFromArray(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("dims %v tile %d: %v", dims, cfg.Tile, err)
		}
		// The array's prefix sums, by one running sum per dimension; the
		// spot check ties the table to cube.Array.Prefix.
		prefix := a.Values()
		stride := 1
		for i := len(dims) - 1; i >= 0; i-- {
			for off := range prefix {
				if off/stride%dims[i] != 0 {
					prefix[off] += prefix[off-stride]
				}
			}
			stride *= dims[i]
		}
		last := make(grid.Point, len(dims))
		for i, sz := range dims {
			last[i] = sz - 1
		}
		if prefix[len(prefix)-1] != a.Prefix(last) {
			t.Fatalf("prefix table %d, Array.Prefix %d", prefix[len(prefix)-1], a.Prefix(last))
		}
		off := 0
		a.Extent().ForEach(func(p grid.Point) {
			if got := tr.Prefix(p); got != prefix[off] {
				t.Fatalf("dims %v tile %d: Prefix(%v) = %d, want %d", dims, cfg.Tile, p, got, prefix[off])
			}
			off++
		})
		want, err := refBuild(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameArena(tr, want); err != nil {
			t.Fatalf("dims %v tile %d: %v", dims, cfg.Tile, err)
		}
	})
}

// BenchmarkBuildBulkVsIncremental prices bottom-up construction of a
// fully populated cube against replaying one Add per cell (256², default
// configuration), and times BuildFromValues — the build BuildDynamic
// runs — on dense d = 2 cubes of 256² and 1024² and a d = 3 cube of
// 128³, reporting the live heap the built tree holds per cell.
func BenchmarkBuildBulkVsIncremental(b *testing.B) {
	a := cube.MustNew(256, 256)
	s := int64(1)
	a.Extent().ForEach(func(p grid.Point) {
		s = s*6364136223846793005 + 1442695040888963407
		_ = a.Set(p, s%100)
	})
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildFromArray(a, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromArray(a, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, dims := range [][]int{{256, 256}, {1024, 1024}, {128, 128, 128}} {
		cells := 1
		for _, sz := range dims {
			cells *= sz
		}
		vals := make([]int64, cells)
		r := workload.NewRNG(uint64(cells))
		for i := range vals {
			vals[i] = 1 + r.Int63n(100)
		}
		b.Run(fmt.Sprintf("values/d%d/%d", len(dims), dims[0]), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			var tr *Tree
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr = nil
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				var err error
				if tr, err = BuildFromValues(dims, vals, Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tr)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(cells), "liveB/cell")
		})
	}
}
