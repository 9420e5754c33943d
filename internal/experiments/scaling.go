package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/ddcbasic"
	"ddc/internal/fenwick"
	"ddc/internal/grid"
	"ddc/internal/prefixsum"
	"ddc/internal/relprefix"
	"ddc/internal/workload"
)

func init() {
	register("thm1", "Tree navigation is O(log n) regardless of d (Theorem 1)", Theorem1)
	register("thm2", "Query and update are O(log^d n) and balanced (Theorem 2)", Theorem2)
	register("crossover", "Measured update/query cost by method (Section 1 narrative)", Crossover)
	register("crossover3d", "Measured update/query cost by method, d=3", Crossover3D)
	register("rangecost", "Query cost vs range volume (Section 2's naive-method contrast)", RangeCost)
	register("ablation-fenwick", "DDC vs d-dimensional Fenwick tree (novelty ablation)", FenwickAblation)
}

// paperBackend pins the measured-cost experiments in this file and in
// ablation.go to the Section 4.1 B_c tree, so their tables keep
// reporting the paper's structure rather than the density-adaptive
// default. sec5sparse and rangeaddcost stay on the default.
const paperBackend = "classic"

// rangeCostTile pins RangeCost's leaf tile to the side its counts were
// recorded at, so a change of the shipped default does not move them.
const rangeCostTile = 4

// RangeCost measures how range-sum cost scales with the volume of the
// queried box: the naive method sums every covered cell (Section 2's
// O(n^d) query), while every prefix-based method pays only its
// per-corner cost regardless of volume.
func RangeCost(w io.Writer) error {
	const n = 512
	dims2 := dims(2, n)
	a := cube.MustNew(dims2...)
	ddcT, err := core.NewWithConfig(dims2, core.Config{Tile: rangeCostTile, Backend: paperBackend})
	if err != nil {
		return err
	}
	r := workload.NewRNG(3)
	for i := 0; i < 4000; i++ {
		p := grid.Point{r.Intn(n), r.Intn(n)}
		v := r.Int63n(50)
		_ = a.Add(p, v)
		_ = ddcT.Add(p, v)
	}
	t := &Table{
		Title:   "Range-sum cost by queried volume (d=2, n=512, cells touched per query)",
		Headers: []string{"box side", "box cells", "naive", "dynamic data cube"},
	}
	for _, side := range []int{4, 16, 64, 256, 512} {
		lo := grid.Point{(n - side) / 2, (n - side) / 2}
		hi := grid.Point{lo[0] + side - 1, lo[1] + side - 1}
		a.ResetOps()
		if _, err := a.RangeSum(lo, hi); err != nil {
			return err
		}
		ddcT.ResetOps()
		if _, err := ddcT.RangeSum(lo, hi); err != nil {
			return err
		}
		do := ddcT.Ops()
		t.AddRow(side, side*side, a.Ops().QueryCells, do.QueryCells+do.NodeVisits)
	}
	t.Notes = []string{"naive cost equals the box volume; the DDC's stays polylogarithmic and flat"}
	return t.Render(w)
}

// sut adapts each structure to one measurement interface.
type sut struct {
	name   string
	add    func(p grid.Point, v int64)
	prefix func(p grid.Point) int64
	ops    func() cube.OpCounter
	reset  func()
}

func dims(d, n int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = n
	}
	return out
}

// suts builds every method over an n^d domain. The basic tree and the
// naive/PS/RPS baselines are skipped above the given cell budget so the
// experiments stay fast.
func suts(d, n int, cellBudget int) []sut {
	cells := int(math.Pow(float64(n), float64(d)))
	var out []sut
	if cells <= cellBudget {
		a := cube.MustNew(dims(d, n)...)
		out = append(out, sut{"naive", func(p grid.Point, v int64) { _ = a.Add(p, v) },
			a.Prefix, a.Ops, a.ResetOps})
		ps, _ := prefixsum.New(dims(d, n))
		out = append(out, sut{"prefix sum", func(p grid.Point, v int64) { _, _ = ps.Add(p, v) },
			ps.Prefix, ps.Ops, ps.ResetOps})
		rps, _ := relprefix.New(dims(d, n))
		out = append(out, sut{"relative PS", func(p grid.Point, v int64) { _, _ = rps.Add(p, v) },
			rps.Prefix, rps.Ops, rps.ResetOps})
		basic, _ := ddcbasic.NewWithTile(dims(d, n), 2)
		out = append(out, sut{"basic DDC", func(p grid.Point, v int64) { _ = basic.Add(p, v) },
			basic.Prefix, basic.Ops, basic.ResetOps})
	}
	ddc, _ := core.NewWithConfig(dims(d, n), core.Config{Tile: 2, Backend: paperBackend})
	out = append(out, sut{"dynamic data cube", func(p grid.Point, v int64) { _ = ddc.Add(p, v) },
		ddc.Prefix, ddc.Ops, ddc.ResetOps})
	fw, _ := fenwick.New(dims(d, n))
	out = append(out, sut{"fenwick", func(p grid.Point, v int64) { _ = fw.Add(p, v) },
		fw.Prefix, fw.Ops, fw.ResetOps})
	return out
}

// measure loads `load` random updates, then measures per-op cell touches
// and wall time for updates and prefix queries.
func measure(s sut, d, n, load, opsN int, seed uint64) (updCells, qryCells float64, updNs, qryNs float64) {
	r := workload.NewRNG(seed)
	pt := func() grid.Point {
		p := make(grid.Point, d)
		for i := range p {
			p[i] = r.Intn(n)
		}
		return p
	}
	for i := 0; i < load; i++ {
		s.add(pt(), r.Int63n(100))
	}
	pts := make([]grid.Point, opsN)
	for i := range pts {
		pts[i] = pt()
	}
	s.reset()
	start := time.Now()
	for _, p := range pts {
		s.add(p, 1)
	}
	updNs = float64(time.Since(start).Nanoseconds()) / float64(opsN)
	o := s.ops()
	updCells = float64(o.UpdateCells+o.NodeVisits) / float64(opsN)
	s.reset()
	start = time.Now()
	for _, p := range pts {
		s.prefix(p)
	}
	qryNs = float64(time.Since(start).Nanoseconds()) / float64(opsN)
	o = s.ops()
	qryCells = float64(o.QueryCells+o.NodeVisits) / float64(opsN)
	return
}

// Theorem1 measures primary-tree navigation: node visits per prefix
// query on the basic tree (whose counter excludes any secondary
// structures), across sizes and dimensionalities. The count tracks
// log2 n and is independent of d.
func Theorem1(w io.Writer) error {
	t := &Table{
		Title:   "Primary-tree node visits per prefix query (basic tree, tile 1)",
		Headers: []string{"n", "log2 n", "d=1", "d=2", "d=3"},
	}
	for _, n := range []int{16, 64, 256} {
		row := []interface{}{n, grid.Log2(n)}
		for d := 1; d <= 3; d++ {
			tr, err := ddcbasic.NewWithTile(dims(d, n), 1)
			if err != nil {
				return err
			}
			r := workload.NewRNG(uint64(n * d))
			for i := 0; i < 200; i++ {
				p := make(grid.Point, d)
				for j := range p {
					p[j] = r.Intn(n)
				}
				if err := tr.Add(p, r.Int63n(50)); err != nil {
					return err
				}
			}
			tr.ResetOps()
			const queries = 100
			for i := 0; i < queries; i++ {
				p := make(grid.Point, d)
				for j := range p {
					p[j] = r.Intn(n)
				}
				tr.Prefix(p)
			}
			row = append(row, float64(tr.Ops().NodeVisits)/queries)
		}
		t.AddRow(row...)
	}
	t.Notes = []string{"one node is descended per level (Theorem 1): visits ~ log2 n + 1, independent of d"}
	return t.Render(w)
}

// Theorem2 measures the full Dynamic Data Cube's per-operation cost
// (cells + nodes touched) against the (log2 n)^d prediction, and shows
// queries and updates are balanced.
func Theorem2(w io.Writer) error {
	t := &Table{
		Title:   "Dynamic Data Cube measured cost per operation vs (log2 n)^d",
		Headers: []string{"d", "n", "update cost", "query cost", "(log2 n)^d", "upd/pred", "qry/pred"},
	}
	cases := []struct{ d, n, load int }{
		{1, 256, 200}, {1, 4096, 400}, {1, 65536, 800},
		{2, 64, 400}, {2, 256, 800}, {2, 1024, 1600},
		{3, 16, 400}, {3, 32, 800}, {3, 64, 1600},
	}
	for _, c := range cases {
		ddc, err := core.NewWithConfig(dims(c.d, c.n), core.Config{Tile: 2, Backend: paperBackend})
		if err != nil {
			return err
		}
		s := sut{"ddc", func(p grid.Point, v int64) { _ = ddc.Add(p, v) }, ddc.Prefix, ddc.Ops, ddc.ResetOps}
		upd, qry, _, _ := measure(s, c.d, c.n, c.load, 200, uint64(c.d*c.n))
		pred := math.Pow(math.Log2(float64(c.n)), float64(c.d))
		t.AddRow(c.d, c.n, upd, qry, pred, upd/pred, qry/pred)
	}
	t.Notes = []string{
		"cost = cells + nodes touched per operation (deterministic counters)",
		"upd/pred and qry/pred stay bounded as n grows at each d: the O(log^d n) shape of Theorem 2, with balanced queries and updates",
	}
	return t.Render(w)
}

// Crossover measures every method's per-update and per-query cost at
// several sizes (d = 2), reproducing the Section 1 narrative: constant-
// time-query methods pay unbounded update costs, while the DDC stays
// polylogarithmic on both sides.
func Crossover(w io.Writer) error {
	for _, n := range []int{16, 64, 256, 1024} {
		t := &Table{
			Title:   fmt.Sprintf("Measured per-operation cost, d=2, n=%d (%d cells)", n, n*n),
			Headers: []string{"method", "update cells", "update ns", "query cells", "query ns"},
		}
		for _, s := range suts(2, n, 1<<22) {
			upd, qry, updNs, qryNs := measure(s, 2, n, 500, 300, uint64(n))
			t.AddRow(s.name, upd, fmt.Sprintf("%.0f", updNs), qry, fmt.Sprintf("%.0f", qryNs))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "Shape check: prefix sum update cost grows ~4x per doubling of n (O(n^2));\n"+
		"relative PS grows ~2x (O(n)); basic DDC ~2x (O(n)); the DDC and Fenwick stay nearly flat (O(log^2 n)).")
	return err
}

// Crossover3D repeats the method comparison at d = 3, where the
// exponents separate faster: PS grows ~8x per doubling of n (n^3), RPS
// ~2.8x (n^1.5), the basic tree ~4x (n^2), and the DDC stays polylog.
func Crossover3D(w io.Writer) error {
	for _, n := range []int{8, 16, 32} {
		t := &Table{
			Title:   fmt.Sprintf("Measured per-operation cost, d=3, n=%d (%d cells)", n, n*n*n),
			Headers: []string{"method", "update cells", "update ns", "query cells", "query ns"},
		}
		for _, s := range suts(3, n, 1<<18) {
			upd, qry, updNs, qryNs := measure(s, 3, n, 300, 200, uint64(3*n))
			t.AddRow(s.name, upd, fmt.Sprintf("%.0f", updNs), qry, fmt.Sprintf("%.0f", qryNs))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "Shape check: PS update cost grows ~8x per doubling (O(n^3)); RPS ~2.8x\n"+
		"(O(n^1.5)); basic DDC ~4x (O(n^2)); DDC and Fenwick stay polylogarithmic.")
	return err
}

// FenwickAblation compares the DDC against the d-dimensional Fenwick
// tree at matched sizes — the "is the DDC variant needed?" question. The
// Fenwick tree is cheaper on dense fixed domains; the DDC's advantages
// are sparsity and growth (see the sec5 experiments).
func FenwickAblation(w io.Writer) error {
	t := &Table{
		Title:   "DDC vs d-dimensional Fenwick tree (dense fixed domains)",
		Headers: []string{"d", "n", "method", "update cells", "query cells", "update ns", "query ns"},
	}
	cases := []struct{ d, n int }{{2, 256}, {2, 1024}, {3, 32}, {4, 16}}
	for _, c := range cases {
		ddc, err := core.NewWithConfig(dims(c.d, c.n), core.Config{Tile: 2, Backend: paperBackend})
		if err != nil {
			return err
		}
		fw, err := fenwick.New(dims(c.d, c.n))
		if err != nil {
			return err
		}
		pair := []sut{
			{"dynamic data cube", func(p grid.Point, v int64) { _ = ddc.Add(p, v) }, ddc.Prefix, ddc.Ops, ddc.ResetOps},
			{"fenwick", func(p grid.Point, v int64) { _ = fw.Add(p, v) }, fw.Prefix, fw.Ops, fw.ResetOps},
		}
		for _, s := range pair {
			upd, qry, updNs, qryNs := measure(s, c.d, c.n, 500, 300, uint64(c.d+c.n))
			t.AddRow(c.d, c.n, s.name, upd, qry, fmt.Sprintf("%.0f", updNs), fmt.Sprintf("%.0f", qryNs))
		}
	}
	t.Notes = []string{
		"both are O(log^d n); the Fenwick tree has smaller constants on dense fixed domains,",
		"while the DDC adds sparse allocation, any-direction growth and level elision (sec5sparse, sec5growth)",
	}
	return t.Render(w)
}
