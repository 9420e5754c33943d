package core

import (
	"testing"

	"ddc/internal/cube"
	"ddc/internal/grid"
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

func TestBuildFromArrayParallelMatchesSequential(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {5, 9}, {4, 4, 4}, {16}} {
		a := randomArray(t, dims, 63)
		par, err := BuildFromArrayParallel(a, Config{Tile: 2, Fanout: 3})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := BuildFromArray(a, Config{Tile: 2, Fanout: 3})
		if err != nil {
			t.Fatal(err)
		}
		a.Extent().ForEach(func(p grid.Point) {
			if par.Prefix(p) != seq.Prefix(p) {
				t.Fatalf("dims %v: parallel Prefix(%v) = %d, sequential %d",
					dims, p, par.Prefix(p), seq.Prefix(p))
			}
		})
		if err := par.CheckInvariants(); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		// The parallel tree must remain maintainable.
		if err := par.Add(grid.Point(make([]int, len(dims))), 5); err != nil {
			t.Fatal(err)
		}
		if par.Total() != seq.Total()+5 {
			t.Fatal("post-build update lost")
		}
	}
}

func TestBuildFromArrayParallelEmptyAndTiny(t *testing.T) {
	empty := cube.MustNew(8, 8)
	tr, err := BuildFromArrayParallel(empty, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.root != noRec || tr.Total() != 0 {
		t.Fatal("empty parallel build should have nil root")
	}
	tiny := cube.MustNew(3, 3)
	_ = tiny.Set(grid.Point{1, 1}, 4)
	tr, err = BuildFromArrayParallel(tiny, Config{Tile: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 4 {
		t.Fatalf("single-tile parallel build total = %d", tr.Total())
	}
}

func TestBuildFromArrayRejectsBadConfig(t *testing.T) {
	a := cube.MustNew(4, 4)
	if _, err := BuildFromArray(a, Config{Tile: 3}); err == nil {
		t.Fatal("expected config error")
	}
}

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
}
