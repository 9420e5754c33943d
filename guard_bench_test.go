package ddc

import (
	"sort"
	"testing"
	"time"

	"ddc/internal/workload"
)

// Guard benchmarks: each measures a constant-factor ratio and fails
// when it passes its bound, so scripts/ci.sh turns a layout or profiler
// regression into a red run. They run outside tier-1 (go test skips
// benchmarks), with telemetry and the workload profiler enabled as in
// a served process:
//
//	go test -run - -bench BackendGuard .
//	go test -run - -bench ProfilerGuard -benchtime 1x .

// backendGuardFactor bounds blocked against classic: the blocked
// backend's branch-free cache-line row sums are reliably faster than
// the classic pointer-walking B_c tree on this workload, so blocked
// exceeding classic by this factor on a point sum or a point add means
// a real constant-factor regression, not scheduler noise.
const backendGuardFactor = 1.4

// profilerGuardFactor bounds the median paired on/off ratio of the
// workload profiler: its collectors are a handful of atomic adds per
// operation (~100 ns), so exceeding this against the profiler-off
// baseline on a d = 3 range sum (tens of microseconds of tree work) is
// a real regression, not constant-factor noise.
const profilerGuardFactor = 1.02

// profilerChunk is how many operations one timed slice runs. A pair of
// adjacent chunks, one per mode with the order alternating, shares
// whatever CPU frequency state the machine is in (~2 ms per chunk;
// frequency steps last far longer), so each pair's on/off ratio
// cancels the drift that would swamp the ~0.5% signal if the modes
// were timed in separate blocks. The median pair ratio also discards
// pairs an OS preemption inflated.
const profilerChunk = 100

// profilerPairs is how many off/on chunk pairs feed the median ratio.
const profilerPairs = 150

// guardSink keeps the timed reads' results live.
var guardSink int64

// benchPreload fills a dense value slice with min(4096, cells/4)
// uniform deltas (seed 101), so small shapes stay non-trivial.
func benchPreload(dims []int) []int64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	vals := make([]int64, n)
	r := workload.NewRNG(101)
	for i := 0; i < min(4096, n/4); i++ {
		vals[r.Intn(n)] += 1 + r.Int63n(50)
	}
	return vals
}

// enableGuardTelemetry turns telemetry (and with it the workload
// profiler) on for the benchmark and restores the defaults after it.
func enableGuardTelemetry(b *testing.B) *Telemetry {
	tel := GlobalTelemetry()
	tel.Reset()
	tel.Enable()
	b.Cleanup(func() {
		tel.Workload().SetEnabled(true)
		tel.Disable()
		tel.Reset()
	})
	return tel
}

// BenchmarkBackendGuard prices one point sum and one point add through
// the full cube API under the classic and blocked backends on a d = 2
// 256² cube, and fails if blocked costs more than backendGuardFactor ×
// classic on either. The sum point has every coordinate one short of
// the far edge, so each level's row prefix is a near-full block scan
// (the layout-sensitive worst case); the adds cycle through 64 random
// points (seed 107) so no single cache line stays hot.
func BenchmarkBackendGuard(b *testing.B) {
	const side = 256
	dims := []int{side, side}
	vals := benchPreload(dims)
	deep := []int{side - 2, side - 2}
	r := workload.NewRNG(107)
	pts := make([][]int, 64)
	for i := range pts {
		pts[i] = []int{r.Intn(side), r.Intn(side)}
	}
	enableGuardTelemetry(b)

	// nsPerOp["sum/classic"] and so on, from each sub-benchmark's final
	// (reported) run.
	nsPerOp := map[string]float64{}
	for _, be := range []string{"classic", "blocked"} {
		c, err := BuildDynamic(dims, vals, Options{Backend: be})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("sum/"+be, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				guardSink += c.Prefix(deep)
			}
			nsPerOp["sum/"+be] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		b.Run("add/"+be, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.Add(pts[i&63], 1); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp["add/"+be] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
	}
	for _, op := range []string{"sum", "add"} {
		classic, blocked := nsPerOp[op+"/classic"], nsPerOp[op+"/blocked"]
		if classic == 0 || blocked == 0 {
			b.Fatalf("backend guard: missing %s measurements", op)
		}
		if blocked > classic*backendGuardFactor {
			b.Fatalf("backend guard: blocked %s %.1f ns/op exceeds classic %.1f ns/op by more than %.1fx",
				op, blocked, classic, backendGuardFactor)
		}
	}
}

// BenchmarkProfilerGuard times a fixed d = 3 96³ RangeSum with the
// workload profiler off and on in profilerPairs interleaved pairs of
// profilerChunk operations, and fails if the median per-pair on/off
// ratio passes profilerGuardFactor. Each iteration runs the whole
// procedure (~30,000 range sums); run it with -benchtime 1x.
func BenchmarkProfilerGuard(b *testing.B) {
	dims := []int{96, 96, 96}
	c, err := BuildDynamic(dims, benchPreload(dims), Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := []int{5, 6, 7}, []int{90, 89, 88}
	wl := enableGuardTelemetry(b).Workload()
	timeChunk := func(on bool) time.Duration {
		wl.SetEnabled(on)
		start := time.Now()
		for i := 0; i < profilerChunk; i++ {
			v, err := c.RangeSum(lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			guardSink += v
		}
		return time.Since(start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratios := make([]float64, profilerPairs)
		for pair := range ratios {
			onFirst := pair%2 == 1
			first := timeChunk(onFirst)
			second := timeChunk(!onFirst)
			if onFirst {
				ratios[pair] = float64(first) / float64(second)
			} else {
				ratios[pair] = float64(second) / float64(first)
			}
		}
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2]
		b.ReportMetric(median, "on/off")
		if median > profilerGuardFactor {
			b.Fatalf("workload profiler overhead: median paired on/off ratio %.4f (budget %.0f%%)",
				median, (profilerGuardFactor-1)*100)
		}
	}
}
