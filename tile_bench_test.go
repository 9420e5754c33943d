package ddc

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ddc/internal/workload"
)

// BenchmarkTile prices the Section 4.4 level elision per shape: one row
// per dimensionality (d = 2, 3, 4), data shape and leaf tile side (4, 8,
// 16). Dense rows bulk-load a fully populated cube with BuildDynamic;
// sparse rows Add 4000 clustered or uniform points to a large domain.
// Each row reports
//
//   - ns/read: one RangeSum over a random box of up to half the domain
//     side in every dimension;
//   - ns/add: one Add of 1 to an existing nonzero cell;
//   - B/cell: the cube's live heap after the load, per nonzero cell.
//
// ns/op is one read plus one add. The shipped default tile for d <= 4
// (core.DefaultTile) is chosen from these rows (DESIGN.md, "Level
// elision"). Run alternating rounds:
//
//	go test -run '^$' -bench 'Tile/' -benchtime 3000x -count 1 .
func BenchmarkTile(b *testing.B) {
	shapes := []struct {
		d             int
		dense, sparse int // domain side of the dense and of the sparse rows
	}{
		{d: 2, dense: 1024, sparse: 1 << 14},
		{d: 3, dense: 128, sparse: 1024},
		{d: 4, dense: 32, sparse: 64},
	}
	for _, sh := range shapes {
		for _, data := range []string{"dense", "clustered", "uniform"} {
			side := sh.sparse
			if data == "dense" {
				side = sh.dense
			}
			for _, tile := range []int{4, 8, 16} {
				var fx *tileFixture // built on the row's first run only
				name := fmt.Sprintf("d%d/%s%d/tile%d", sh.d, data, side, tile)
				b.Run(name, func(b *testing.B) {
					if fx == nil {
						fx = newTileFixture(b, sh.d, side, data, tile)
					}
					fx.run(b)
				})
			}
		}
	}
}

// tileFixture is one BenchmarkTile row: a loaded cube, its live bytes
// per nonzero cell, and the read boxes and add points the row cycles.
type tileFixture struct {
	c       *DynamicCube
	perCell float64
	reads   []workload.Query
	adds    [][]int
}

// newTileFixture loads the row's cube and measures its live heap.
func newTileFixture(b *testing.B, d, side int, data string, tile int) *tileFixture {
	b.Helper()
	dims := make([]int, d)
	for i := range dims {
		dims[i] = side
	}
	r := workload.NewRNG(uint64(1000*d + side))
	var dense []int64
	var ups []workload.Update
	if data == "dense" {
		cells := 1
		for _, n := range dims {
			cells *= n
		}
		dense = make([]int64, cells)
		for i := range dense {
			dense[i] = 1 + r.Int63n(100)
		}
	} else {
		const points = 4000
		if data == "clustered" {
			ups = workload.Clustered(r, dims, 12, points, 25, 50)
		} else {
			ups = workload.Uniform(r, dims, points, 50)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var c *DynamicCube
	var err error
	if dense != nil {
		c, err = BuildDynamic(dims, dense, Options{Tile: tile})
	} else {
		c, err = NewDynamicWithOptions(dims, Options{Tile: tile})
		for _, u := range ups {
			if err == nil {
				err = c.Add(u.Point, u.Value+1) // +1: every loaded point is nonzero
			}
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))

	fx := &tileFixture{
		c:       c,
		perCell: live / float64(c.NonZeroCells()),
		reads:   workload.Ranges(r, dims, 4096, 0.5),
		adds:    make([][]int, 4096),
	}
	for i := range fx.adds {
		if ups != nil {
			fx.adds[i] = ups[i%len(ups)].Point
			continue
		}
		p := make([]int, d)
		for j := range p {
			p[j] = r.Intn(side)
		}
		fx.adds[i] = p
	}
	return fx
}

// run times b.N reads, then b.N adds, and reports each per operation.
func (fx *tileFixture) run(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		q := fx.reads[i%len(fx.reads)]
		v, err := fx.c.RangeSum(q.Lo, q.Hi)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	reads := time.Since(start)
	start = time.Now()
	for i := 0; i < b.N; i++ {
		if err := fx.c.Add(fx.adds[i%len(fx.adds)], 1); err != nil {
			b.Fatal(err)
		}
	}
	adds := time.Since(start)
	b.StopTimer()
	tileSink = sink
	b.ReportMetric(float64(reads.Nanoseconds())/float64(b.N), "ns/read")
	b.ReportMetric(float64(adds.Nanoseconds())/float64(b.N), "ns/add")
	b.ReportMetric(fx.perCell, "B/cell")
}

// tileSink keeps BenchmarkTile's reads from being optimised away.
var tileSink int64
