package core

import (
	"testing"

	"ddc/internal/grid"
)

func TestDomainSideOne(t *testing.T) {
	tr, err := NewWithConfig([]int{1}, Config{Tile: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{0}, 42); err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{0}); got != 42 {
		t.Fatalf("Prefix = %d", got)
	}
	if got := tr.Total(); got != 42 {
		t.Fatalf("Total = %d", got)
	}
	v, err := tr.RangeSum(grid.Point{0}, grid.Point{0})
	if err != nil || v != 42 {
		t.Fatalf("RangeSum = %d, %v", v, err)
	}
}

func TestTileLargerThanDomain(t *testing.T) {
	// A 3x3 domain with tile 16: the whole cube is one padded tile.
	tr, err := NewWithConfig([]int{3, 3}, Config{Tile: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PaddedSide() != 16 {
		t.Fatalf("PaddedSide = %d", tr.PaddedSide())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if err := tr.Set(grid.Point{i, j}, int64(i*3+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := tr.Prefix(grid.Point{2, 2}); got != 36 {
		t.Fatalf("Prefix = %d", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := tr.TreeStats(); s.Height != 1 || s.LeafTiles != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVeryAsymmetricDims(t *testing.T) {
	// 2 x 1000: padding in dim 0 is huge but must stay free.
	tr, err := NewWithConfig([]int{2, 1000}, Config{Tile: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{1, 999}, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{0, 0}, 3); err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{1, 999}); got != 8 {
		t.Fatalf("Prefix = %d", got)
	}
	if got := tr.Prefix(grid.Point{0, 999}); got != 3 {
		t.Fatalf("row-0 Prefix = %d", got)
	}
	if cells := tr.StorageCells(); cells > 5000 {
		t.Fatalf("asymmetric padding allocated %d cells", cells)
	}
	if err := tr.Add(grid.Point{2, 0}, 1); err == nil {
		t.Fatal("padding must not be addressable")
	}
}

func TestGrowOnceOnlyDim(t *testing.T) {
	// Repeated growth in one direction only. Tile 4: the expected
	// bounds assume a 4-wide domain pads to 4.
	tr, err := NewWithConfig([]int{4}, Config{Tile: 4, AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tr.Grow([]bool{true}); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := tr.Bounds()
	if lo[0] != -124 || hi[0] != 4 {
		t.Fatalf("bounds = [%d, %d)", lo[0], hi[0])
	}
	if err := tr.Set(grid.Point{-124}, 9); err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{3}); got != 9 {
		t.Fatalf("Prefix = %d", got)
	}
}

func TestSetEqualsGetIdempotence(t *testing.T) {
	tr, err := New([]int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Set(grid.Point{2, 2}, 5)
	before := tr.Ops()
	// Setting a cell to its current value must not touch group stores.
	_ = tr.Set(grid.Point{2, 2}, 5)
	after := tr.Ops()
	if after.UpdateCells != before.UpdateCells {
		t.Fatalf("no-op Set wrote %d cells", after.UpdateCells-before.UpdateCells)
	}
}

func TestOpsSharedWithNestedGroups(t *testing.T) {
	// d=3: group stores are nested trees sharing the counter; a query
	// must count their work too.
	tr, err := NewWithConfig([]int{8, 8, 8}, Config{Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = tr.Set(grid.Point{i, i, i}, 1)
	}
	tr.ResetOps()
	tr.Prefix(grid.Point{6, 5, 4})
	ops := tr.Ops()
	if ops.NodeVisits == 0 || ops.QueryCells == 0 {
		t.Fatalf("nested ops not counted: %+v", ops)
	}
}
