package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ddc/internal/bctree"
	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/workload"
)

func init() {
	register("ablation-tile", "Effect of eliding the lowest tree levels (Section 4.4)", TileAblation)
	register("ablation-fanout", "B_c tree fanout sweep (Section 4.1)", FanoutAblation)
	register("ablation-bulk", "Bulk (batch) load vs incremental updates (Section 1)", BulkAblation)
}

// BulkAblation compares bottom-up bulk construction against replaying
// one update per cell — the batch-load vs dynamic-update contrast of
// Section 1, showing this implementation serves both regimes.
func BulkAblation(w io.Writer) error {
	t := &Table{
		Title:   "Construction of a dense cube: bulk bottom-up vs incremental updates",
		Headers: []string{"d", "n", "cells", "bulk ms", "incremental ms", "speedup"},
	}
	cases := []struct{ d, n int }{{2, 128}, {2, 256}, {3, 32}}
	for _, c := range cases {
		a, err := cube.New(dims(c.d, c.n))
		if err != nil {
			return err
		}
		r := workload.NewRNG(uint64(c.n))
		a.Extent().ForEach(func(p grid.Point) {
			_ = a.Set(p, r.Int63n(100))
		})
		start := time.Now()
		bulk, err := core.BuildFromArray(a, core.Config{Backend: paperBackend})
		if err != nil {
			return err
		}
		bulkMs := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		incr, err := core.FromArray(a, core.Config{Backend: paperBackend})
		if err != nil {
			return err
		}
		incrMs := float64(time.Since(start).Microseconds()) / 1000
		if bulk.Total() != incr.Total() {
			return fmt.Errorf("bulk total %d != incremental %d", bulk.Total(), incr.Total())
		}
		t.AddRow(c.d, c.n, a.Extent().Cells(), bulkMs, incrMs, incrMs/bulkMs)
	}
	t.Notes = []string{"the trees answer identically (asserted); bulk construction reads each cell once, summing each box's row sums from its children's, instead of maintaining groups per update"}
	return t.Render(w)
}

// TileAblation sweeps the leaf tile side (tile = 2^h elides the h
// densest levels) over a fixed workload and reports the storage/query/
// update trade-off Section 4.4 describes, in counted cells and in the
// live bytes and nanoseconds they cost.
func TileAblation(w io.Writer) error {
	const n = 256
	dims2 := []int{n, n}
	r := workload.NewRNG(31)
	ups := workload.Uniform(r, dims2, 3000, 50)
	queries := make([]grid.Point, 300)
	for i := range queries {
		queries[i] = grid.Point{r.Intn(n), r.Intn(n)}
	}
	t := &Table{
		Title: "Leaf tile side sweep (d=2, n=256, 3000 uniform updates)",
		Headers: []string{"tile (2^h)", "elided levels h", "storage cells", "live heap B",
			"query cost", "ns/query", "update cost", "ns/update"},
	}
	for _, tile := range []int{1, 2, 4, 8, 16} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ddc, err := core.NewWithConfig(dims2, core.Config{Tile: tile, Backend: paperBackend})
		if err != nil {
			return err
		}
		for _, u := range ups {
			if err := ddc.Add(u.Point, u.Value); err != nil {
				return err
			}
		}
		ddc.ResetOps()
		for _, q := range queries {
			ddc.Prefix(q)
		}
		o := ddc.Ops()
		qry := float64(o.QueryCells+o.NodeVisits) / float64(len(queries))
		ddc.ResetOps()
		for _, q := range queries {
			if err := ddc.Add(q, 1); err != nil {
				return err
			}
		}
		o = ddc.Ops()
		upd := float64(o.UpdateCells+o.NodeVisits) / float64(len(queries))
		runtime.GC()
		runtime.ReadMemStats(&after)
		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		storage := ddc.StorageCells()

		// Timed passes, after the counted ones: adding 1 and then -1 at
		// the query points leaves storage and values as counted.
		start := time.Now()
		for i := 0; i < tileTimedPasses; i++ {
			for _, q := range queries {
				ddc.Prefix(q)
			}
		}
		qryNs := float64(time.Since(start).Nanoseconds()) / float64(tileTimedPasses*len(queries))
		start = time.Now()
		for i := 0; i < tileTimedPasses; i++ {
			for _, q := range queries {
				if err := ddc.Add(q, int64(1-2*(i%2))); err != nil {
					return err
				}
			}
		}
		updNs := float64(time.Since(start).Nanoseconds()) / float64(tileTimedPasses*len(queries))
		t.AddRow(tile, grid.Log2(tile), storage, live, qry, qryNs, upd, updNs)
	}
	t.Notes = []string{
		"larger tiles delete the densest levels: storage and update cost fall,",
		"while queries pay up to tile^d extra leaf adds (Section 4.4's balance);",
		"live heap and ns show what the counted cells cost in the slab layout",
	}
	return t.Render(w)
}

// tileTimedPasses is how many passes over its 300 points TileAblation
// times per tile, for each of queries and updates (even, so the updates
// cancel).
const tileTimedPasses = 20

// FanoutAblation sweeps the B_c tree fanout over a large row-sum set.
func FanoutAblation(w io.Writer) error {
	const keys = 1 << 16
	vals := make([]int64, keys)
	r := workload.NewRNG(17)
	for i := range vals {
		vals[i] = r.Int63n(100)
	}
	t := &Table{
		Title:   "B_c tree fanout sweep (65536 row sums)",
		Headers: []string{"fanout", "height", "nodes", "node visits / prefix", "node visits / update"},
	}
	for _, f := range []int{3, 4, 8, 16, 32, 64} {
		tr := bctree.FromSlice(vals, f)
		tr.ResetOps()
		const ops = 500
		for i := 0; i < ops; i++ {
			tr.PrefixSum(r.Intn(keys))
		}
		qry := float64(tr.NodeVisits) / ops
		tr.ResetOps()
		for i := 0; i < ops; i++ {
			tr.Add(r.Intn(keys), 1)
		}
		upd := float64(tr.NodeVisits) / ops
		t.AddRow(f, tr.Height(), tr.Nodes(), qry, upd)
	}
	t.Notes = []string{"height falls as log_f k; per-node work grows with f — the usual B-tree balance"}
	return t.Render(w)
}
