package core

import (
	"fmt"
	"sync"
	"testing"

	"ddc/internal/grid"
	"ddc/internal/obs"
	"ddc/internal/workload"
)

// TestArenaPagesNeverMove pins the bounded-write-tail property of the
// slabs: they grow by adding pages, so no Add copies cells or records
// already placed. Clustered Adds on a 4096x4096 cube keep creating
// nodes and promoting row-sum groups into the cells slab; the first
// cell page and the first node-record page must stay where they were
// after the first 1000 Adds while both slabs gain pages.
func TestArenaPagesNeverMove(t *testing.T) {
	const side = 4096
	tr, err := New([]int{side, side})
	if err != nil {
		t.Fatal(err)
	}
	ups := workload.Clustered(workload.NewRNG(21), []int{side, side}, 16, 40000, 12, 50)
	var cellPage *int64
	var nodePage *nodeRec
	var cellPages, nodePages int
	for i, u := range ups {
		if err := tr.Add(u.Point, u.Value); err != nil {
			t.Fatal(err)
		}
		if i+1 == 1000 {
			ar := tr.ar
			if len(ar.cells.pages) == 0 || len(ar.nodes.pages) == 0 {
				t.Fatalf("after 1000 Adds: %d cell pages, %d node pages", len(ar.cells.pages), len(ar.nodes.pages))
			}
			cellPage, nodePage = &ar.cells.pages[0][0], &ar.nodes.pages[0][0]
			cellPages, nodePages = len(ar.cells.pages), len(ar.nodes.pages)
		}
	}
	ar := tr.ar
	if len(ar.cells.pages) <= cellPages || len(ar.nodes.pages) <= nodePages {
		t.Fatalf("slabs did not grow: cell pages %d -> %d, node pages %d -> %d",
			cellPages, len(ar.cells.pages), nodePages, len(ar.nodes.pages))
	}
	if &ar.cells.pages[0][0] != cellPage {
		t.Fatal("first cell page moved")
	}
	if &ar.nodes.pages[0][0] != nodePage {
		t.Fatal("first node-record page moved")
	}
	if len(ar.free) == 0 {
		t.Fatal("no box moved from the side table into the cells slab")
	}
	// The structural half of CheckInvariants (the value checks are far
	// too slow at this size).
	var c claims
	if err := tr.claimTree(&c); err != nil {
		t.Fatal(err)
	}
	if err := c.disjoint(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSlabRegions checks the slab allocator's page discipline:
// regions never straddle a page, pages double from firstPage up to
// pageCap, and an oversized region gets a page of its own without
// closing the open page.
func TestArenaSlabRegions(t *testing.T) {
	var s slab[int64]
	a := s.alloc(10)
	if a != 0 || cap(s.pages[0]) != firstPage {
		t.Fatalf("first region at %d, page cap %d", a, cap(s.pages[0]))
	}
	b := s.alloc(firstPage - 10 + 1) // does not fit: opens page 1
	if b != 1<<pageShift || cap(s.pages[1]) != 2*firstPage {
		t.Fatalf("second region at %#x, page cap %d", b, cap(s.pages[1]))
	}
	big := s.alloc(pageCap + 5)
	if big != 2<<pageShift || len(s.region(big, 0, pageCap+5)) != pageCap+5 {
		t.Fatalf("oversized region at %#x", big)
	}
	c := s.alloc(3) // back in the open page 1
	if c != 1<<pageShift|(firstPage-10+1) {
		t.Fatalf("region after oversized one at %#x", c)
	}
	for i := 0; i < 40; i++ {
		s.alloc(pageCap / 2)
	}
	for _, pg := range s.pages {
		if cap(pg) > pageCap && cap(pg) != pageCap+5 {
			t.Fatalf("page of cap %d above pageCap", cap(pg))
		}
	}
	if !s.valid(c, 3) || s.valid(c, firstPage*2) || s.valid(-1, 1) {
		t.Fatal("valid misjudges regions")
	}
	s.region(c, 0, 3)[2] = 7
	if *s.at(c + 2) != 7 {
		t.Fatal("at and region disagree")
	}
}

// TestConcurrentArenaReaders runs concurrent readers over trees whose
// arenas hold every box kind — flat and side-table boxes from clustered
// Adds, delegating boxes from growth, nested cubes at d = 3 from a
// bulk build — and requires every goroutine to see the answers a
// sequential pass computed.
func TestConcurrentArenaReaders(t *testing.T) {
	grown, err := NewWithConfig([]int{64, 64}, Config{AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range workload.Clustered(workload.NewRNG(5), []int{64, 64}, 3, 3000, 4, 20) {
		if err := grown.Add(u.Point, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := grown.Add(grid.Point{-3, 70}, 9); err != nil { // grow: delegating boxes
		t.Fatal(err)
	}
	if k := boxKinds(grown); k[boxFlat] == 0 || k[boxSide] == 0 || k[boxDelegate] == 0 {
		t.Fatalf("grown tree box kinds %v: want flat, side and delegating boxes", k)
	}
	nested, err := BuildFromArray(randomArray(t, []int{16, 16, 16}, 8), Config{Tile: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{grown, nested} {
		lo, hi := tr.Bounds()
		r := workload.NewRNG(uint64(tr.d))
		boxes := make([]Box, 200)
		want := make([]int64, len(boxes))
		for i := range boxes {
			a, b := make(grid.Point, tr.d), make(grid.Point, tr.d)
			for j := range a {
				a[j] = lo[j] + r.Intn(hi[j]-lo[j])
				b[j] = a[j] + r.Intn(hi[j]-a[j])
			}
			boxes[i] = Box{Lo: a, Hi: b}
			if want[i], err = tr.RangeSum(a, b); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int64, len(boxes))
				if _, _, _, err := tr.RangeSumBatchTraceOps(boxes, out, nil, obs.NoSpan); err != nil {
					errs <- err.Error()
					return
				}
				for i, b := range boxes {
					v, err := tr.RangeSum(b.Lo, b.Hi)
					if err != nil || v != want[i] || out[i] != want[i] {
						errs <- fmt.Sprintf("d=%d box %d: got %d/%d, want %d (%v)", tr.d, i, v, out[i], want[i], err)
						return
					}
					_ = tr.Get(b.Lo)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// boxKinds counts the outer tree's boxes by kind.
func boxKinds(tr *Tree) map[boxKind]int {
	out := map[boxKind]int{}
	var walk func(nd int32, ext int)
	walk = func(nd int32, ext int) {
		n := tr.node(nd)
		if ext == tr.cfg.Tile || n.box < 0 {
			return
		}
		for ci := int32(0); ci < 1<<uint(tr.d); ci++ {
			out[tr.ar.boxes.at(n.box+ci).kind]++
			walk(n.child+ci, ext/2)
		}
	}
	if tr.root != noRec {
		walk(tr.root, tr.n)
	}
	return out
}

// TestArenaCompactAndGrowth3D rebuilds a d = 3 tree, whose nested group
// cubes share its arena, through Grow, Materialize and Compact: every
// prefix must answer as before, and the rebuilt arena must pass the
// structural checks (nested trees on the fresh arena, no overlaps).
func TestArenaCompactAndGrowth3D(t *testing.T) {
	tr, err := NewWithConfig([]int{8, 8, 8}, Config{Tile: 2, AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	r := workload.NewRNG(17)
	for i := 0; i < 300; i++ {
		p := grid.Point{r.Intn(8), r.Intn(8), r.Intn(8)}
		if err := tr.Set(p, r.Int63n(20)-5); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Add(grid.Point{-1, 9, 2}, 4); err != nil { // grow
		t.Fatal(err)
	}
	lo, hi := tr.Bounds()
	for i := range hi {
		hi[i]-- // inclusive
	}
	want := map[string]int64{}
	grid.ForEachInBox(lo, hi, func(p grid.Point) {
		if (p[0]+p[1]+p[2])%3 == 0 {
			want[p.String()] = tr.Prefix(p)
		}
	})
	check := func(step string) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		grid.ForEachInBox(lo, hi, func(p grid.Point) {
			if w, ok := want[p.String()]; ok && tr.Prefix(p) != w {
				t.Fatalf("%s: Prefix(%v) = %d, want %d", step, p, tr.Prefix(p), w)
			}
		})
	}
	check("grown")
	tr.Materialize()
	check("materialized")
	old := tr.ar
	tr.Compact()
	if tr.ar == old {
		t.Fatal("Compact kept the old arena")
	}
	check("compacted")
}
