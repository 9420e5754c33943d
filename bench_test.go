package ddc

// Benchmark harness: one benchmark per table and figure of the paper
// (each regenerates the corresponding artifact through the experiment
// runners), plus per-method micro-benchmarks whose shapes back the
// analytic claims. Run with:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"fmt"
	"io"
	"testing"

	"ddc/internal/experiments"
	"ddc/internal/workload"
)

// benchExperiment reruns a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- one benchmark per paper table / figure --------------------------

// BenchmarkTable1 regenerates Table 1 (update cost functions, d=8).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 (update-function curves).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }

// BenchmarkFigure2 regenerates Figure 2 (the running-example array A).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2") }

// BenchmarkFigure3 regenerates Figure 3 (array P of the PS method).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure5 regenerates Figure 5 (cascading updates in P).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// BenchmarkFigure9 regenerates Figure 9 (the basic tree's levels;
// Figures 6-8 are the same overlay decomposition at the root level).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "figure9") }

// BenchmarkFigure11 regenerates Figures 10-12 (the worked query whose
// contributions sum to 151, and the follow-up update).
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }

// BenchmarkFigure14 regenerates Figure 14 (the B_c tree walk-through;
// Figure 13's dependency chain is what the B_c tree removes).
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "figure14") }

// BenchmarkTable2 regenerates Table 2 (overlay storage ratios).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTheorem1 measures O(log n) tree navigation across d.
func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "thm1") }

// BenchmarkTheorem2 measures the O(log^d n) query/update balance.
func BenchmarkTheorem2(b *testing.B) { benchExperiment(b, "thm2") }

// BenchmarkSection5Sparse measures clustered-data storage (Section 5).
func BenchmarkSection5Sparse(b *testing.B) { benchExperiment(b, "sec5sparse") }

// BenchmarkSection5Growth measures any-direction growth (Section 5 /
// Figure 16).
func BenchmarkSection5Growth(b *testing.B) { benchExperiment(b, "sec5growth") }

// BenchmarkCrossover regenerates the measured per-method cost tables
// behind the Section 1 narrative.
func BenchmarkCrossover(b *testing.B) { benchExperiment(b, "crossover") }

// BenchmarkCrossover3D regenerates the d=3 method comparison.
func BenchmarkCrossover3D(b *testing.B) { benchExperiment(b, "crossover3d") }

// BenchmarkRangeCost regenerates the query-cost-vs-volume study.
func BenchmarkRangeCost(b *testing.B) { benchExperiment(b, "rangecost") }

// BenchmarkAblationTile regenerates the Section 4.4 tile sweep.
func BenchmarkAblationTile(b *testing.B) { benchExperiment(b, "ablation-tile") }

// BenchmarkAblationFanout regenerates the B_c fanout sweep.
func BenchmarkAblationFanout(b *testing.B) { benchExperiment(b, "ablation-fanout") }

// BenchmarkAblationFenwick regenerates the DDC-vs-Fenwick comparison.
func BenchmarkAblationFenwick(b *testing.B) { benchExperiment(b, "ablation-fenwick") }

// BenchmarkAblationBulk regenerates the bulk-vs-incremental comparison.
func BenchmarkAblationBulk(b *testing.B) { benchExperiment(b, "ablation-bulk") }

// ---- per-method micro-benchmarks --------------------------------------

type benchMethod struct {
	name string
	make func(dims []int) (Cube, error)
}

func benchMethods() []benchMethod {
	return []benchMethod{
		{"naive", func(d []int) (Cube, error) { return NewNaive(d) }},
		{"prefixsum", func(d []int) (Cube, error) { return NewPrefixSum(d) }},
		{"relprefix", func(d []int) (Cube, error) { return NewRelativePrefixSum(d) }},
		{"basic", func(d []int) (Cube, error) { return NewBasicDynamic(d, 4) }},
		{"ddc", func(d []int) (Cube, error) { return NewDynamic(d) }},
		{"fenwick", func(d []int) (Cube, error) { return NewFenwick(d) }},
	}
}

func loadedCube(b *testing.B, m benchMethod, dims []int, load int) (Cube, []workload.Update, []workload.Query) {
	b.Helper()
	c, err := m.make(dims)
	if err != nil {
		b.Fatal(err)
	}
	r := workload.NewRNG(12345)
	ups := workload.Uniform(r, dims, load, 100)
	for _, u := range ups {
		if err := c.Add(u.Point, u.Value); err != nil {
			b.Fatal(err)
		}
	}
	more := workload.Uniform(r, dims, 4096, 100)
	qs := workload.Ranges(r, dims, 4096, 0.5)
	return c, more, qs
}

// BenchmarkUpdate measures one point update per iteration for every
// method on a 256x256 cube — the left half of Table 1's trade-off.
func BenchmarkUpdate(b *testing.B) {
	dims := []int{256, 256}
	for _, m := range benchMethods() {
		b.Run(m.name, func(b *testing.B) {
			c, ups, _ := loadedCube(b, m, dims, 2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := ups[i%len(ups)]
				if err := c.Add(u.Point, u.Value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRangeQuery measures one range-sum query per iteration for
// every method on a sparse 256x256 cube — the right half of the
// trade-off — and, for the DDC, on fully populated bulk-built cubes:
// dense1024 (1024x1024, whose row-sum groups use the flat layout),
// grown1024 (the same cube grown once and not materialised, so every
// query whose region meets the old data reads through the root's
// delegating box), dense3d (128x128x128, whose row-sum groups are
// nested two-dimensional cubes) and pending64 (a dense 256x256 cube
// with 64 pending RangeAdd boxes of perfbench's ingest pool shape, so
// every query pays the pending pass).
func BenchmarkRangeQuery(b *testing.B) {
	dims := []int{256, 256}
	for _, m := range benchMethods() {
		b.Run(m.name, func(b *testing.B) {
			c, _, qs := loadedCube(b, m, dims, 2000)
			benchRangeSums(b, c, qs)
		})
	}
	dense2d := func(b *testing.B, grow bool) {
		const side = 1024
		r := workload.NewRNG(12345)
		vals := make([]int64, side*side)
		for i := range vals {
			vals[i] = 1 + r.Int63n(100)
		}
		c, err := BuildDynamic([]int{side, side}, vals, Options{})
		if err != nil {
			b.Fatal(err)
		}
		qs := make([]workload.Query, 4096)
		for i := range qs {
			lo, hi := make([]int, 2), make([]int, 2)
			for j := range lo {
				lo[j] = r.Intn(side)
				hi[j] = min(side-1, lo[j]+r.Intn(512))
			}
			if grow {
				// Stretch the box across the old data's upper edge in
				// dimension 1: its hi corners then read the old data
				// through the delegating box.
				lo[1] = side/2 + r.Intn(side/2)
				hi[1] = side + r.Intn(side)
			}
			qs[i] = workload.Query{Lo: lo, Hi: hi}
		}
		if grow {
			// Grow after in both dimensions: the old data stays the
			// root's child 0, behind a delegating box, in the grown
			// domain [0, 2048)^2.
			if err := c.Grow([]bool{false, false}); err != nil {
				b.Fatal(err)
			}
		}
		benchRangeSums(b, c, qs)
	}
	b.Run("dense1024", func(b *testing.B) { dense2d(b, false) })
	b.Run("grown1024", func(b *testing.B) { dense2d(b, true) })
	b.Run("dense3d", func(b *testing.B) {
		const side = 128
		r := workload.NewRNG(12345)
		vals := make([]int64, side*side*side)
		for i := range vals {
			vals[i] = 1 + r.Int63n(100)
		}
		c, err := BuildDynamic([]int{side, side, side}, vals, Options{})
		if err != nil {
			b.Fatal(err)
		}
		qs := make([]workload.Query, 4096)
		for i := range qs {
			lo, hi := make([]int, 3), make([]int, 3)
			for j := range lo {
				lo[j] = r.Intn(side)
				hi[j] = min(side-1, lo[j]+r.Intn(64))
			}
			qs[i] = workload.Query{Lo: lo, Hi: hi}
		}
		benchRangeSums(b, c, qs)
	})
	b.Run("pending64", func(b *testing.B) {
		c, r := pendingBenchCube(b)
		benchRangeSums(b, c, workload.Ranges(r, c.Dims(), 4096, 0.5))
	})
}

// pendingBenchCube builds the pending-read fixture: a dense 256x256
// cube (every cell 1..100) with 64 pending RangeAdd boxes shaped like
// perfbench's ingest pool (sides up to 1/16 of the domain), the state
// the ingest workload holds at steady state. It returns the generator
// for the caller's queries.
func pendingBenchCube(b *testing.B) (*DynamicCube, *workload.RNG) {
	b.Helper()
	const side = 256
	dims := []int{side, side}
	r := workload.NewRNG(2564)
	vals := make([]int64, side*side)
	for i := range vals {
		vals[i] = 1 + r.Int63n(100)
	}
	c, err := BuildDynamic(dims, vals, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i, q := range workload.Ranges(r, dims, 64, 1.0/16) {
		if err := c.RangeAdd(q.Lo, q.Hi, int64(i%200)-99); err != nil {
			b.Fatal(err)
		}
	}
	if n := c.PendingBoxes(); n != 64 {
		b.Fatalf("%d pending boxes, want 64", n)
	}
	return c, r
}

// benchRangeSums runs one range-sum query per iteration, cycling qs.
func benchRangeSums(b *testing.B, c Cube, qs []workload.Query) {
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		v, err := c.RangeSum(q.Lo, q.Hi)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	_ = sink
}

// BenchmarkDDCByDimension measures the DDC's update cost as d grows at a
// fixed domain budget — the log^d n factor of Theorem 2.
func BenchmarkDDCByDimension(b *testing.B) {
	cases := []struct {
		name string
		dims []int
	}{
		{"d=1/n=65536", []int{65536}},
		{"d=2/n=256", []int{256, 256}},
		{"d=3/n=64", []int{64, 64, 64}},
		{"d=4/n=16", []int{16, 16, 16, 16}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cb, ups, _ := loadedCube(b, benchMethod{"ddc", func(d []int) (Cube, error) { return NewDynamic(d) }}, c.dims, 2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := ups[i%len(ups)]
				if err := cb.Add(u.Point, u.Value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrow measures one O(1) growth step (Section 5).
func BenchmarkGrow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewDynamic([]int{16, 16})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Add([]int{3, 3}, 7); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.Grow([]bool{true, false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRoundTrip measures Save+Load of a sparse cube.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	c, err := NewDynamic([]int{4096, 4096})
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range workload.Clustered(workload.NewRNG(3), []int{4096, 4096}, 6, 2000, 20, 50) {
		if err := c.Add(u.Point, u.Value); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardCounter
		if err := c.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

type discardCounter struct{ n int }

func (d *discardCounter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// BenchmarkWALAppend measures the logging overhead per update.
func BenchmarkWALAppend(b *testing.B) {
	c, err := NewDynamic([]int{256, 256})
	if err != nil {
		b.Fatal(err)
	}
	var sink discardCounter
	w, err := NewWAL(c, &sink)
	if err != nil {
		b.Fatal(err)
	}
	ups := workload.Uniform(workload.NewRNG(5), []int{256, 256}, 4096, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		if err := w.Add(u.Point, u.Value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkLoad measures bottom-up construction of a dense 256x256
// cube through the public API (contrast with BenchmarkUpdate's per-cell
// path; see also the ablation-bulk experiment).
func BenchmarkBulkLoad(b *testing.B) {
	vals := make([]int64, 256*256)
	r := workload.NewRNG(9)
	for i := range vals {
		vals[i] = r.Int63n(100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDynamic([]int{256, 256}, vals, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedThroughput measures concurrent update throughput as
// the shard count grows (run with -cpu to vary parallelism).
func BenchmarkShardedThroughput(b *testing.B) {
	dims := []int{1024, 256}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sc, err := NewSharded(dims, shards, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := workload.NewRNG(uint64(shards) * 7)
				for pb.Next() {
					p := []int{r.Intn(1024), r.Intn(256)}
					if err := sc.Add(p, 1); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSkewedUpdates measures update cost under a hot-key (Zipf)
// stream, where a few cells absorb most updates; tree paths for hot
// cells stay cache-resident, so this is the DDC's friendly case.
func BenchmarkSkewedUpdates(b *testing.B) {
	dims := []int{1024, 1024}
	for _, m := range []benchMethod{
		{"ddc", func(d []int) (Cube, error) { return NewDynamic(d) }},
		{"fenwick", func(d []int) (Cube, error) { return NewFenwick(d) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			c, err := m.make(dims)
			if err != nil {
				b.Fatal(err)
			}
			ups := workload.Skewed(workload.NewRNG(4), dims, 8192, 1.2, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := ups[i%len(ups)]
				if err := c.Add(u.Point, u.Value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaterialize measures rebuilding grown-level row sums over a
// sparse grown cube.
func BenchmarkMaterialize(b *testing.B) {
	ups := workload.Expanding(workload.NewRNG(2), 2, 2000, 0.5, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewDynamicWithOptions([]int{16, 16}, Options{AutoGrow: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range ups {
			if err := c.Add(u.Point, u.Value); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		c.Materialize()
	}
}

// BenchmarkShardedParallelQuery measures range-sum throughput with many
// concurrent readers on one ShardedCube (b.RunParallel; vary -cpu). The
// per-shard RWMutexes and the pooled per-call tree scratch let every
// reader proceed at once, so throughput should scale with cores instead
// of flatlining behind a global lock.
func BenchmarkShardedParallelQuery(b *testing.B) {
	dims := []int{2048, 256}
	vals := make([]int64, 2048*256)
	r := workload.NewRNG(11)
	for i := range vals {
		vals[i] = r.Int63n(50)
	}
	qs := workload.Ranges(r, dims, 1024, 0.5)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sc, err := BuildSharded(dims, vals, shards, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				var sink int64
				for pb.Next() {
					q := qs[i%len(qs)]
					i++
					v, err := sc.RangeSum(q.Lo, q.Hi)
					if err != nil {
						b.Error(err)
						return
					}
					sink += v
				}
				_ = sink
			})
		})
	}
}

// BenchmarkShardedFanout measures one wide range-sum per iteration from
// a single caller. The box spans every shard, so the only parallelism is
// the internal fan-out: shards>1 should beat shards=1 (the sequential
// shape) on a multicore box.
func BenchmarkShardedFanout(b *testing.B) {
	dims := []int{2048, 256}
	vals := make([]int64, 2048*256)
	r := workload.NewRNG(13)
	for i := range vals {
		vals[i] = r.Int63n(50)
	}
	lo := []int{0, 16}
	hi := []int{2047, 240}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sc, err := BuildSharded(dims, vals, shards, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				v, err := sc.RangeSum(lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkAddBatch compares applying k deltas one Add at a time against
// one AddBatch call: the batch groups by shard, locks each shard once,
// and applies the groups concurrently, amortising locking and scheduling
// over the batch.
func BenchmarkAddBatch(b *testing.B) {
	dims := []int{1024, 256}
	const k = 256
	r := workload.NewRNG(17)
	batch := make([]PointDelta, k)
	for i := range batch {
		batch[i] = PointDelta{Point: []int{r.Intn(1024), r.Intn(256)}, Delta: 1}
	}
	for _, mode := range []string{"point", "batch"} {
		b.Run(fmt.Sprintf("%s/k=%d", mode, k), func(b *testing.B) {
			sc, err := NewSharded(dims, 16, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batch" {
					if err := sc.AddBatch(batch); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, pd := range batch {
					if err := sc.Add(pd.Point, pd.Delta); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
