package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// opCountGolden holds the operation counts and storage of a fixed
// seeded stream of updates and queries, keyed by case. The counts are
// the cost model of Theorems 1 and 2 (node visits, cells read and
// written, contributions by kind), so a change to how groups are laid
// out in memory must leave every one of them unchanged: a layout
// change may change speed only.
var opCountGolden = map[string]string{
	"d2/auto":    "sums=146970 visits=20367 qcells=20026 ucells=56998 contribs=[2970 11241 361 1015 884 0] storage=14281 stats={Height:8 Nodes:1422 LeafTiles:700 Boxes:1421 Delegates:1 StorageCells:14281}",
	"d2/classic": "sums=146970 visits=20367 qcells=20044 ucells=19523 contribs=[2970 11241 361 1015 884 0] storage=10746 stats={Height:8 Nodes:1422 LeafTiles:700 Boxes:1421 Delegates:1 StorageCells:10746}",
	"d3/auto":    "sums=142154 visits=164696 qcells=113577 ucells=331243 contribs=[20309 83677 1777 15828 1160 0] storage=63544 stats={Height:6 Nodes:1085 LeafTiles:624 Boxes:1084 Delegates:1 StorageCells:63544}",
	"d3/classic": "sums=142154 visits=164696 qcells=113564 ucells=153983 contribs=[20309 83677 1777 15828 1160 0] storage=49942 stats={Height:6 Nodes:1085 LeafTiles:624 Boxes:1084 Delegates:1 StorageCells:49942}",
}

// TestOpCountInvariance replays one seeded stream of Add, RangeSum,
// batched RangeSum, Grow, RangeAdd and Materialize on d = 2 and d = 3
// trees (d = 3 stores its row sums in nested trees) under the auto and
// classic backends, and compares the accumulated counts, storage and
// Stats with the golden values.
func TestOpCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		dims    []int
		backend string
	}{
		{[]int{48, 40}, "auto"},
		{[]int{48, 40}, "classic"},
		{[]int{12, 10, 14}, "auto"},
		{[]int{12, 10, 14}, "classic"},
	} {
		name := fmt.Sprintf("d%d/%s", len(tc.dims), tc.backend)
		got := opCountStream(t, tc.dims, tc.backend)
		if want := opCountGolden[name]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// opCountStream runs the stream and formats what it measured.
func opCountStream(t *testing.T, dims []int, backend string) string {
	t.Helper()
	r := rand.New(rand.NewSource(20001))
	// Start from a bulk build so both the bulk and incremental group
	// construction paths are counted.
	a, err := cube.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	a.Extent().ForEach(func(p grid.Point) {
		if r.Intn(3) == 0 {
			if err := a.Set(p, int64(r.Intn(41)-20)); err != nil {
				t.Fatal(err)
			}
		}
	})
	tr, err := BuildFromArray(a, Config{Tile: 2, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	d := len(dims)
	randBox := func() (lo, hi grid.Point) {
		blo, bhi := tr.Bounds()
		lo, hi = make(grid.Point, d), make(grid.Point, d)
		for i := range lo {
			x, y := blo[i]+r.Intn(bhi[i]-blo[i]), blo[i]+r.Intn(bhi[i]-blo[i])
			lo[i], hi[i] = min(x, y), max(x, y)
		}
		return lo, hi
	}
	var sums int64
	for step := 0; step < 900; step++ {
		switch op := r.Intn(16); {
		case step == 300 || step == 600:
			before := make([]bool, d)
			for i := range before {
				before[i] = r.Intn(2) == 0
			}
			if err := tr.Grow(before); err != nil {
				t.Fatal(err)
			}
		case step == 450:
			tr.Materialize()
		case op < 7:
			p, _ := randBox()
			if err := tr.Add(p, int64(r.Intn(21)-10)); err != nil {
				t.Fatal(err)
			}
		case op < 13:
			lo, hi := randBox()
			v, err := tr.RangeSum(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			sums += v
		case op < 15:
			qs := make([]Box, 4)
			for i := range qs {
				qs[i].Lo, qs[i].Hi = randBox()
			}
			vs, _, _, err := tr.RangeSumBatchOps(qs)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				sums += v
			}
		default:
			// Small boxes: Grow and Materialize push pending boxes down
			// cell by cell.
			lo, hi := randBox()
			for i := range hi {
				hi[i] = min(hi[i], lo[i]+3)
			}
			if err := tr.RangeAdd(lo, hi, int64(r.Intn(5)+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ops := tr.Ops()
	return fmt.Sprintf("sums=%d visits=%d qcells=%d ucells=%d contribs=%v storage=%d stats=%+v",
		sums, ops.NodeVisits, ops.QueryCells, ops.UpdateCells, ops.Contribs, tr.StorageCells(), tr.TreeStats())
}
