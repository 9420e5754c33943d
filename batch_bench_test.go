package ddc

import (
	"testing"

	"ddc/internal/workload"
)

// benchLoadedCube builds the standard preloaded 1024x256 cube the batch
// benchmarks share.
func benchLoadedCube(b *testing.B) *DynamicCube {
	b.Helper()
	c, err := BuildDynamic([]int{1024, 256}, benchPreload([]int{1024, 256}), Options{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchWindowQueries is the dashboard fleet: 64 sliding windows cycling
// over 15 stride-aligned positions, so corners collapse onto a small
// lattice.
func benchWindowQueries() []RangeQuery {
	return rangeQueries(workload.Windows([]int{1024, 256}, 64, 0, 128, 64, []int{16}, []int{239}))
}

func rangeQueries(qs []workload.Query) []RangeQuery {
	out := make([]RangeQuery, len(qs))
	for i, q := range qs {
		out[i] = RangeQuery{Lo: []int(q.Lo), Hi: []int(q.Hi)}
	}
	return out
}

// BenchmarkGet pins the point-query allocation fix: the lookup runs on
// pooled scratch (0 allocs/op).
func BenchmarkGet(b *testing.B) {
	c := benchLoadedCube(b)
	p := []int{511, 128}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += c.Get(p)
	}
	_ = sink
}

// BenchmarkRangeSumLoop is the sequential baseline the batch engine is
// measured against: one RangeSum per window.
func BenchmarkRangeSumLoop(b *testing.B) {
	c := benchLoadedCube(b)
	queries := benchWindowQueries()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			v, err := c.RangeSum(q.Lo, q.Hi)
			if err != nil {
				b.Fatal(err)
			}
			sink += v
		}
	}
	_ = sink
}

// BenchmarkRangeSumBatchCold measures one planned batch with an
// invalidated prefix cache: corner dedup alone.
func BenchmarkRangeSumBatchCold(b *testing.B) {
	c := benchLoadedCube(b)
	queries := benchWindowQueries()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		c.InvalidatePrefixCache()
		sums, err := c.RangeSumBatch(queries)
		if err != nil {
			b.Fatal(err)
		}
		sink += sums[0]
	}
	_ = sink
}

// BenchmarkRangeSumBatchWarm measures the steady state on a quiescent
// cube: every distinct corner served from the versioned cache.
func BenchmarkRangeSumBatchWarm(b *testing.B) {
	c := benchLoadedCube(b)
	queries := benchWindowQueries()
	if _, err := c.RangeSumBatch(queries); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sums, err := c.RangeSumBatch(queries)
		if err != nil {
			b.Fatal(err)
		}
		sink += sums[0]
	}
	_ = sink
}

// BenchmarkRangeSumBatch prices one cold RangeSumBatchInto on a dense
// 1024x1024 cube (every cell 1..100, as in BenchmarkRangeQuery/
// dense1024), the prefix cache invalidated before every call so each
// distinct corner descends. dashboard1024 cycles eight dashboards of
// perfbench's olap-read shape — 16 windows of width 128 at stride 64
// along dimension 1 over one random range of dimension 0, about 34
// distinct corners, below the engine's fan-out crossover; random1024
// is one batch of 1024 random boxes, about 4000 distinct corners,
// which fans out.
func BenchmarkRangeSumBatch(b *testing.B) {
	const side = 1024
	dims := []int{side, side}
	r := workload.NewRNG(8080)
	vals := make([]int64, side*side)
	for i := range vals {
		vals[i] = 1 + r.Int63n(100)
	}
	c, err := BuildDynamic(dims, vals, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var dashboards [][]RangeQuery
	for i := 0; i < 8; i++ {
		q := workload.Ranges(r, dims, 1, 0.5)[0]
		ws := workload.Windows(dims, 16, 1, side/8, side/16, []int{q.Lo[0]}, []int{q.Hi[0]})
		dashboards = append(dashboards, rangeQueries(ws))
	}
	random := rangeQueries(workload.Ranges(r, dims, 1024, 0.5))
	run := func(b *testing.B, batches [][]RangeQuery) {
		out := make([]int64, len(batches[0]))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.InvalidatePrefixCache()
			if err := c.RangeSumBatchInto(batches[i%len(batches)], out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dashboard1024", func(b *testing.B) { run(b, dashboards) })
	b.Run("random1024", func(b *testing.B) { run(b, [][]RangeQuery{random}) })
}

// BenchmarkRangeSumBatchPending prices one dashboard batch (16 windows
// of width 32 at stride 16, perfbench's shape on a 256-wide domain) on
// the pending-read fixture of BenchmarkRangeQuery/pending64: cold
// invalidates the prefix cache before every call, warm serves every
// corner from it, so warm is the pending pass plus the gather alone.
func BenchmarkRangeSumBatchPending(b *testing.B) {
	c, r := pendingBenchCube(b)
	dims := c.Dims()
	var dashboards [][]RangeQuery
	for i := 0; i < 8; i++ {
		q := workload.Ranges(r, dims, 1, 0.5)[0]
		ws := workload.Windows(dims, 16, 1, dims[1]/8, dims[1]/16, []int{q.Lo[0]}, []int{q.Hi[0]})
		dashboards = append(dashboards, rangeQueries(ws))
	}
	run := func(b *testing.B, cold bool) {
		out := make([]int64, len(dashboards[0]))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				c.InvalidatePrefixCache()
			}
			if err := c.RangeSumBatchInto(dashboards[i%len(dashboards)], out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}
