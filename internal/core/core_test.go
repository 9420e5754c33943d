package core

import (
	"errors"
	"testing"
	"testing/quick"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

func randomArray(t *testing.T, dims []int, seed int64) *cube.Array {
	t.Helper()
	a, err := cube.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	s := seed
	a.Extent().ForEach(func(p grid.Point) {
		s = s*6364136223846793005 + 1442695040888963407
		if err := a.Set(p, s%30-5); err != nil {
			t.Fatal(err)
		}
	})
	return a
}

func TestPrefixMatchesNaive(t *testing.T) {
	dimSets := [][]int{{9}, {16}, {8, 8}, {5, 9}, {4, 4, 4}, {3, 5, 2}, {2, 3, 2, 3}}
	for _, dims := range dimSets {
		for _, cfg := range []Config{
			{Tile: 1, Fanout: 3},
			{Tile: 2, Fanout: 4},
			{Tile: 4},
			{},
		} {
			a := randomArray(t, dims, 77)
			tr, err := FromArray(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a.Extent().ForEach(func(p grid.Point) {
				if got, want := tr.Prefix(p), a.Prefix(p); got != want {
					t.Fatalf("dims %v cfg %+v: Prefix(%v) = %d, want %d", dims, cfg, p, got, want)
				}
			})
		}
	}
}

func TestRangeSumMatchesNaive(t *testing.T) {
	a := randomArray(t, []int{6, 7}, 5)
	tr, err := FromArray(a, Config{Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	a.Extent().ForEach(func(lo grid.Point) {
		loC := lo.Clone()
		a.Extent().ForEach(func(hi grid.Point) {
			if !loC.DominatedBy(hi) {
				return
			}
			want, _ := a.RangeSum(loC, hi)
			got, err := tr.RangeSum(loC, hi)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("RangeSum(%v,%v) = %d, want %d", loC, hi, got, want)
			}
		})
	})
}

func TestThreeDimensionalRangeSums(t *testing.T) {
	a := randomArray(t, []int{4, 4, 4}, 9)
	tr, err := FromArray(a, Config{Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a sample of 3-d boxes (full enumeration is large).
	boxes := [][2]grid.Point{
		{{0, 0, 0}, {3, 3, 3}},
		{{1, 2, 0}, {2, 3, 3}},
		{{0, 0, 1}, {0, 0, 1}},
		{{2, 2, 2}, {3, 3, 3}},
		{{0, 1, 0}, {3, 1, 2}},
	}
	for _, b := range boxes {
		want, _ := a.RangeSum(b[0], b[1])
		got, err := tr.RangeSum(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("RangeSum(%v,%v) = %d, want %d", b[0], b[1], got, want)
		}
	}
}

// TestPaperFigure11Full verifies the full DDC reproduces the paper's
// worked query and update on the reconstructed Figure 2 array.
func TestPaperFigure11Full(t *testing.T) {
	a := cube.PaperArray()
	tr, err := FromArray(a, Config{Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{5, 6}); got != 151 {
		t.Fatalf("prefix at target = %d, want 151", got)
	}
	if err := tr.Set(grid.Point{5, 6}, 6); err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{5, 6}); got != 152 {
		t.Fatalf("prefix after update = %d, want 152", got)
	}
	if got := tr.Get(grid.Point{5, 6}); got != 6 {
		t.Fatalf("Get = %d, want 6", got)
	}
}

func TestSetGetTotal(t *testing.T) {
	tr, err := New([]int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{1, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{1, 2, 3}, 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(grid.Point{7, 7, 7}, -1); err != nil {
		t.Fatal(err)
	}
	if got := tr.Get(grid.Point{1, 2, 3}); got != 4 {
		t.Fatalf("Get = %d, want 4", got)
	}
	if got := tr.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	if got := tr.Get(grid.Point{0, 0, 0}); got != 0 {
		t.Fatalf("untouched Get = %d", got)
	}
	if got := tr.Get(grid.Point{-1, 0, 0}); got != 0 {
		t.Fatalf("out-of-range Get = %d", got)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := New([]int{0}); err == nil {
		t.Fatal("expected error for zero dimension")
	}
	if _, err := NewWithConfig([]int{4}, Config{Tile: 3}); err == nil {
		t.Fatal("expected error for non-power-of-two tile")
	}
	if _, err := NewWithConfig([]int{4}, Config{Fanout: 2}); err == nil {
		t.Fatal("expected error for tiny fanout")
	}
	tr, _ := New([]int{4, 4})
	if err := tr.Add(grid.Point{4, 0}, 1); !errors.Is(err, grid.ErrRange) {
		t.Fatalf("Add error = %v", err)
	}
	if err := tr.Set(grid.Point{0}, 1); !errors.Is(err, grid.ErrDims) {
		t.Fatalf("Set error = %v", err)
	}
	if _, err := tr.RangeSum(grid.Point{2, 2}, grid.Point{1, 3}); !errors.Is(err, grid.ErrEmptyRange) {
		t.Fatalf("RangeSum error = %v", err)
	}
	if got := tr.Prefix(grid.Point{-1, 0}); got != 0 {
		t.Fatalf("negative Prefix = %d", got)
	}
	if got := tr.Prefix(grid.Point{0}); got != 0 {
		t.Fatalf("wrong-dims Prefix = %d", got)
	}
	if err := tr.Grow([]bool{true}); !errors.Is(err, grid.ErrDims) {
		t.Fatalf("Grow dims error = %v", err)
	}
}

func TestSparseStorage(t *testing.T) {
	tr, err := NewWithConfig([]int{1 << 16, 1 << 16}, Config{Tile: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tr.Add(grid.Point{i * 1000, 65000 - i*900}, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	cells := tr.StorageCells()
	if cells > 100000 {
		t.Fatalf("sparse storage = %d cells for 10 points in a 2^32-cell domain", cells)
	}
	if got := tr.Total(); got != 55 {
		t.Fatalf("Total = %d, want 55", got)
	}
	if got := tr.NonZeroCells(); got != 10 {
		t.Fatalf("NonZeroCells = %d, want 10", got)
	}
}

func TestForEachNonZero(t *testing.T) {
	tr, _ := New([]int{8, 8})
	pts := map[[2]int]int64{{1, 2}: 5, {7, 7}: -3, {0, 0}: 2}
	for p, v := range pts {
		if err := tr.Set(grid.Point{p[0], p[1]}, v); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[[2]int]int64{}
	tr.ForEachNonZero(func(p grid.Point, v int64) {
		seen[[2]int{p[0], p[1]}] = v
	})
	if len(seen) != len(pts) {
		t.Fatalf("saw %d cells, want %d", len(seen), len(pts))
	}
	for p, v := range pts {
		if seen[p] != v {
			t.Fatalf("cell %v = %d, want %d", p, seen[p], v)
		}
	}
}

func TestUpdateCostIsPolylogarithmic(t *testing.T) {
	// Theorem 2: update cost is O(log^d n). Doubling n must add only an
	// additive increment, not multiply the cost (contrast with the basic
	// tree where the 2-d cost doubles).
	cost := func(n int) uint64 {
		tr, err := NewWithConfig([]int{n, n}, Config{Tile: 1})
		if err != nil {
			t.Fatal(err)
		}
		_ = tr.Add(grid.Point{0, 0}, 1) // allocate the path
		tr.ResetOps()
		_ = tr.Add(grid.Point{0, 0}, 1)
		return tr.Ops().UpdateCells + tr.Ops().NodeVisits
	}
	c256, c512, c1024 := cost(256), cost(512), cost(1024)
	if g1, g2 := c512-c256, c1024-c512; g1 > c256/2 || g2 > c512/2 {
		t.Fatalf("update cost not polylog: %d, %d, %d", c256, c512, c1024)
	}
	if float64(c1024)/float64(c256) > 2.0 {
		t.Fatalf("update cost ratio %.2f too steep for O(log^2 n): %d -> %d",
			float64(c1024)/float64(c256), c256, c1024)
	}
}

func TestQueryCostIsPolylogarithmic(t *testing.T) {
	a := randomArray(t, []int{64, 64}, 3)
	tr, err := FromArray(a, Config{Tile: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.ResetOps()
	tr.Prefix(grid.Point{50, 37})
	ops := tr.Ops()
	touched := ops.QueryCells + ops.NodeVisits
	// log2(64) = 6 levels, <= 3 group queries of <= ~6 node visits each
	// per level, plus tree navigation: well under 64*64.
	if touched > 200 {
		t.Fatalf("query touched %d cells/nodes; not polylog", touched)
	}
}

func TestGrowAfter(t *testing.T) {
	// A 4-wide domain pads to the tile side (4 at tile 4, DefaultTile(2)
	// = 8 under the default), and one grow doubles the padded side.
	for _, tc := range []struct {
		name       string
		tile, side int
	}{
		{"tile4", 4, 8},
		{"default", 0, 2 * DefaultTile(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewWithConfig([]int{4, 4}, Config{Tile: tc.tile})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Set(grid.Point{1, 1}, 5); err != nil {
				t.Fatal(err)
			}
			if err := tr.Grow([]bool{false, false}); err != nil {
				t.Fatal(err)
			}
			lo, hi := tr.Bounds()
			if !lo.Equal(grid.Point{0, 0}) || !hi.Equal(grid.Point{tc.side, tc.side}) {
				t.Fatalf("bounds after grow = [%v, %v), want [0 0, %d %d)", lo, hi, tc.side, tc.side)
			}
			if err := tr.Set(grid.Point{6, 6}, 3); err != nil {
				t.Fatal(err)
			}
			if got := tr.Total(); got != 8 {
				t.Fatalf("Total = %d, want 8", got)
			}
			if got := tr.Prefix(grid.Point{7, 7}); got != 8 {
				t.Fatalf("Prefix = %d, want 8", got)
			}
			if got := tr.Prefix(grid.Point{1, 1}); got != 5 {
				t.Fatalf("Prefix(1,1) = %d, want 5", got)
			}
			if got := tr.Get(grid.Point{1, 1}); got != 5 {
				t.Fatalf("Get after grow = %d", got)
			}
		})
	}
}

func TestGrowBeforeNegativeCoordinates(t *testing.T) {
	// Tile 4: the expected bounds assume a 4-wide domain pads to 4.
	tr, err := NewWithConfig([]int{4, 4}, Config{Tile: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{0, 0}, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.Grow([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
	lo, hi := tr.Bounds()
	if !lo.Equal(grid.Point{-4, -4}) || !hi.Equal(grid.Point{4, 4}) {
		t.Fatalf("bounds = [%v, %v)", lo, hi)
	}
	if err := tr.Set(grid.Point{-3, -2}, 2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{3, 3}); got != 9 {
		t.Fatalf("Prefix over all = %d, want 9", got)
	}
	if got := tr.Prefix(grid.Point{-1, -1}); got != 2 {
		t.Fatalf("Prefix over negative quadrant = %d, want 2", got)
	}
	got, err := tr.RangeSum(grid.Point{-4, -4}, grid.Point{-1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("RangeSum negative box = %d, want 2", got)
	}
	got, err = tr.RangeSum(grid.Point{0, 0}, grid.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("RangeSum old cell = %d, want 7", got)
	}
}

// TestGrowthEquivalence grows in mixed directions and checks every
// prefix sum against a brute-force reference before and after
// materialisation.
func TestGrowthEquivalence(t *testing.T) {
	tr, err := NewWithConfig([]int{4, 4}, Config{Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[[2]int]int64{}
	set := func(x, y int, v int64) {
		t.Helper()
		if err := tr.Set(grid.Point{x, y}, v); err != nil {
			t.Fatal(err)
		}
		ref[[2]int{x, y}] = v
	}
	refPrefix := func(x, y int) int64 {
		var s int64
		for p, v := range ref {
			if p[0] <= x && p[1] <= y {
				s += v
			}
		}
		return s
	}
	checkAll := func(stage string) {
		t.Helper()
		lo, hi := tr.Bounds()
		for x := lo[0]; x < hi[0]; x++ {
			for y := lo[1]; y < hi[1]; y++ {
				if got, want := tr.Prefix(grid.Point{x, y}), refPrefix(x, y); got != want {
					t.Fatalf("%s: Prefix(%d,%d) = %d, want %d", stage, x, y, got, want)
				}
			}
		}
	}
	set(1, 1, 5)
	set(3, 2, -2)
	checkAll("initial")
	if err := tr.Grow([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	set(-2, 5, 4)
	checkAll("after grow 1")
	if err := tr.Grow([]bool{false, true}); err != nil {
		t.Fatal(err)
	}
	set(7, -7, 9)
	set(-4, -8, 1)
	checkAll("after grow 2")
	if !tr.HasDelegates() {
		t.Fatal("expected delegating boxes after growth")
	}
	tr.Materialize()
	if tr.HasDelegates() {
		t.Fatal("Materialize left delegating boxes")
	}
	checkAll("after materialize")
	// Updates after materialisation must keep groups consistent.
	set(-2, 5, 6)
	set(2, 2, 3)
	checkAll("after post-materialize updates")
}

func TestAutoGrow(t *testing.T) {
	tr, err := NewWithConfig([]int{4, 4}, Config{AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(grid.Point{100, -30}, 5); err != nil {
		t.Fatal(err)
	}
	if got := tr.Get(grid.Point{100, -30}); got != 5 {
		t.Fatalf("Get = %d, want 5", got)
	}
	lo, hi := tr.Bounds()
	if lo[1] > -30 || hi[0] <= 100 {
		t.Fatalf("bounds [%v, %v) do not include the grown point", lo, hi)
	}
	if got := tr.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
}

func TestGrowTooLargeFails(t *testing.T) {
	tr, err := NewWithConfig([]int{4}, Config{AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.GrowToInclude(grid.Point{1 << 45})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
	if err := tr.Set(grid.Point{1 << 45}, 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Set error = %v, want ErrTooLarge", err)
	}
}

func TestGrowEmptyCube(t *testing.T) {
	tr, err := New([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Grow([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Total(); got != 0 {
		t.Fatalf("Total = %d", got)
	}
	if err := tr.Set(grid.Point{-1, -1}, 3); err != nil {
		t.Fatal(err)
	}
	if got := tr.Prefix(grid.Point{3, 3}); got != 3 {
		t.Fatalf("Prefix = %d, want 3", got)
	}
}

func TestOneDimensional(t *testing.T) {
	a := randomArray(t, []int{37}, 13)
	tr, err := FromArray(a, Config{Tile: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		if got, want := tr.Prefix(grid.Point{i}), a.Prefix(grid.Point{i}); got != want {
			t.Fatalf("Prefix(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestForEachNonZeroInRange(t *testing.T) {
	a := randomArray(t, []int{16, 16}, 33)
	tr, err := FromArray(a, Config{Tile: 2})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := grid.Point{3, 5}, grid.Point{11, 12}
	want := map[string]int64{}
	a.ForEachNonZero(func(p grid.Point, v int64) {
		if p[0] >= 3 && p[0] <= 11 && p[1] >= 5 && p[1] <= 12 {
			want[p.String()] = v
		}
	})
	got := map[string]int64{}
	err = tr.ForEachNonZeroInRange(lo, hi, func(p grid.Point, v int64) {
		got[p.String()] = v
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d cells, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("cell %s = %d, want %d", k, got[k], v)
		}
	}
	// Validation and empty-subtree pruning.
	if err := tr.ForEachNonZeroInRange(grid.Point{5, 5}, grid.Point{2, 2}, func(grid.Point, int64) {}); !errors.Is(err, grid.ErrEmptyRange) {
		t.Fatalf("inverted range error = %v", err)
	}
	sparse, _ := NewWithConfig([]int{1 << 16, 1 << 16}, Config{})
	_ = sparse.Add(grid.Point{60000, 60000}, 1)
	n := 0
	if err := sparse.ForEachNonZeroInRange(grid.Point{0, 0}, grid.Point{1000, 1000}, func(grid.Point, int64) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("pruned scan visited %d cells", n)
	}
}

func TestForEachNonZeroInRangeGrown(t *testing.T) {
	tr, err := NewWithConfig([]int{4, 4}, Config{AutoGrow: true, Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Set(grid.Point{-5, -5}, 1)
	_ = tr.Set(grid.Point{2, 2}, 2)
	_ = tr.Set(grid.Point{9, -1}, 3)
	var got []int64
	if err := tr.ForEachNonZeroInRange(grid.Point{-6, -6}, grid.Point{3, 3}, func(p grid.Point, v int64) {
		got = append(got, v)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("grown range scan found %d cells: %v", len(got), got)
	}
}

func TestQuickEquivalence(t *testing.T) {
	dims := []int{6, 5, 4}
	f := func(ops [20]struct {
		P0, P1, P2 uint8
		V          int16
	}) bool {
		a, _ := cube.New(dims)
		tr, err := NewWithConfig(dims, Config{Tile: 2, Fanout: 3})
		if err != nil {
			return false
		}
		for _, op := range ops {
			p := grid.Point{int(op.P0) % 6, int(op.P1) % 5, int(op.P2) % 4}
			if err := a.Set(p, int64(op.V)); err != nil {
				return false
			}
			if err := tr.Set(p, int64(op.V)); err != nil {
				return false
			}
			q := grid.Point{int(op.P2) % 6, int(op.P0) % 5, int(op.P1) % 4}
			if tr.Prefix(q) != a.Prefix(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsAccessors(t *testing.T) {
	tr, _ := NewWithConfig([]int{5, 3}, Config{Tile: 2, Fanout: 5})
	if tr.D() != 2 {
		t.Fatalf("D = %d", tr.D())
	}
	if d := tr.Dims(); d[0] != 5 || d[1] != 3 {
		t.Fatalf("Dims = %v", d)
	}
	if tr.PaddedSide() != 8 {
		t.Fatalf("PaddedSide = %d, want 8", tr.PaddedSide())
	}
	if c := tr.Config(); c.Tile != 2 || c.Fanout != 5 {
		t.Fatalf("Config = %+v", c)
	}
	lo, hi := tr.Bounds()
	if !lo.Equal(grid.Point{0, 0}) || !hi.Equal(grid.Point{5, 3}) {
		t.Fatalf("Bounds = [%v, %v)", lo, hi)
	}
}
