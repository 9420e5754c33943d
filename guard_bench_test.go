package ddc

import (
	"testing"

	"ddc/internal/workload"
)

// Guard benchmark: it measures a constant-factor ratio and fails when
// it passes its bound, so scripts/ci.sh turns a layout regression into
// a red run. It runs outside tier-1 (go test skips benchmarks), with
// telemetry enabled as in a served process:
//
//	go test -run - -bench BackendGuard .

// backendGuardFactor bounds blocked against classic: the blocked
// backend's branch-free cache-line row sums are reliably faster than
// the classic pointer-walking B_c tree on this workload, so blocked
// exceeding classic by this factor on a point sum or a point add means
// a real constant-factor regression, not scheduler noise.
const backendGuardFactor = 1.4

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

// enableGuardTelemetry turns telemetry on for the benchmark and
// restores the defaults after it.
func enableGuardTelemetry(b *testing.B) {
	tel := GlobalTelemetry()
	tel.Reset()
	tel.Enable()
	b.Cleanup(func() {
		tel.Disable()
		tel.Reset()
	})
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
