package ddc

import (
	"bytes"
	"runtime"
	"testing"

	"ddc/internal/workload"
)

// The backend property tier: every prefix-sum backend must be
// observationally identical through the full cube API — same sums, same
// cells, same growth behaviour — because the backend is a layout
// choice, not a semantic one (DESIGN.md §11).

// backendOpSequence drives one cube through the shared workload: point
// adds, sets, auto-growth past both bounds (so the domain acquires a
// negative origin), an explicit Grow, and interleaved reads.
func backendOpSequence(t *testing.T, c *DynamicCube) {
	t.Helper()
	r := workload.NewRNG(613)
	for i := 0; i < 400; i++ {
		p := []int{r.Intn(16), r.Intn(16)}
		if err := c.Add(p, 1+r.Int63n(9)); err != nil {
			t.Fatal(err)
		}
	}
	// Auto-growth in both directions: below the origin and past the far
	// edge.
	if err := c.Set([]int{-5, 3}, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]int{20, -7}, 17); err != nil {
		t.Fatal(err)
	}
	// An explicit grow prepending space on dimension 0.
	if err := c.Grow([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := []int{r.Intn(40) - 12, r.Intn(40) - 12}
		if err := c.Add(p, r.Int63n(21)-10); err != nil {
			t.Fatal(err)
		}
	}
}

// backendProbes compares two cubes cell by cell and sum by sum over the
// union domain, plus a window fleet answered both singly and batched.
func backendProbes(t *testing.T, want, got *DynamicCube, label string) {
	t.Helper()
	if w, g := want.Total(), got.Total(); w != g {
		t.Fatalf("%s: total %d != %d", label, g, w)
	}
	if w, g := want.NonZeroCells(), got.NonZeroCells(); w != g {
		t.Fatalf("%s: nonzero cells %d != %d", label, g, w)
	}
	lo, hi := want.Bounds()
	glo, ghi := got.Bounds()
	for i := range lo {
		if lo[i] != glo[i] || hi[i] != ghi[i] {
			t.Fatalf("%s: bounds [%v,%v) != [%v,%v)", label, glo, ghi, lo, hi)
		}
	}
	for x := lo[0]; x < hi[0]; x += 3 {
		for y := lo[1]; y < hi[1]; y += 3 {
			p := []int{x, y}
			if w, g := want.Get(p), got.Get(p); w != g {
				t.Fatalf("%s: Get(%v) = %d, want %d", label, p, g, w)
			}
			if w, g := want.Prefix(p), got.Prefix(p); w != g {
				t.Fatalf("%s: Prefix(%v) = %d, want %d", label, p, g, w)
			}
		}
	}
	queries := make([]RangeQuery, 0, 32)
	r := workload.NewRNG(1009)
	for i := 0; i < 32; i++ {
		q := RangeQuery{Lo: make([]int, 2), Hi: make([]int, 2)}
		for j := 0; j < 2; j++ {
			span := hi[j] - lo[j]
			a := lo[j] + r.Intn(span)
			b := lo[j] + r.Intn(span)
			if a > b {
				a, b = b, a
			}
			q.Lo[j], q.Hi[j] = a, b
		}
		queries = append(queries, q)
		w, err := want.RangeSum(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.RangeSum(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Fatalf("%s: RangeSum(%v,%v) = %d, want %d", label, q.Lo, q.Hi, g, w)
		}
	}
	wb, err := want.RangeSumBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.RangeSumBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wb {
		if wb[i] != gb[i] {
			t.Fatalf("%s: batch[%d] = %d, want %d", label, i, gb[i], wb[i])
		}
	}
}

// buildBackendCube runs the shared op sequence on a fresh cube over the
// named backend.
func buildBackendCube(t *testing.T, backend string) *DynamicCube {
	t.Helper()
	c, err := NewDynamicWithOptions([]int{16, 16}, Options{AutoGrow: true, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Backend(); backend != "" && got != backend {
		t.Fatalf("Backend() = %q, want %q", got, backend)
	}
	backendOpSequence(t, c)
	return c
}

// TestBackendEquivalence drives every backend through the same op
// sequence — adds, sets, auto- and explicit growth into a
// negative-origin domain, range sums, batches — and demands exact
// agreement with the classic reference.
func TestBackendEquivalence(t *testing.T) {
	ref := buildBackendCube(t, "classic")
	for _, backend := range Backends() {
		if backend == "classic" {
			continue
		}
		backendProbes(t, ref, buildBackendCube(t, backend), backend)
	}
}

// TestBackendSnapshotRoundTrip saves a grown cube under each backend
// and reloads it under every backend (including itself): snapshots are
// backend-agnostic, so every pairing must reproduce the cube exactly.
func TestBackendSnapshotRoundTrip(t *testing.T) {
	for _, from := range Backends() {
		src := buildBackendCube(t, from)
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		for _, to := range Backends() {
			got, err := LoadDynamicBackend(bytes.NewReader(buf.Bytes()), to)
			if err != nil {
				t.Fatalf("%s->%s: %v", from, to, err)
			}
			if g := got.Backend(); g != to {
				t.Fatalf("%s->%s: loaded backend %q", from, to, g)
			}
			backendProbes(t, src, got, from+"->"+to)
		}
	}
}

// TestBackendAllocs pins the steady-state read paths at zero
// allocations per operation for every backend: RangeSum and Get
// allocate nothing, and RangeSumBatchInto with a warm prefix cache
// reuses every buffer it needs.
func TestBackendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool reuse; counts would measure the detector")
	}
	for _, backend := range Backends() {
		c, err := BuildDynamic([]int{64, 64}, seqVals(64*64), Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := []int{3, 5}, []int{60, 59}
		p := []int{17, 23}
		queries := []RangeQuery{
			{Lo: []int{0, 0}, Hi: []int{31, 31}},
			{Lo: []int{16, 16}, Hi: []int{47, 47}},
			{Lo: []int{3, 5}, Hi: []int{60, 59}},
			{Lo: []int{8, 0}, Hi: []int{39, 31}},
		}
		out := make([]int64, len(queries))
		// Warm the prefix cache: the first batch and range sum may install
		// cache entries; steady state must not, warm or cold.
		if _, err := c.RangeSum(lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := c.RangeSumBatchInto(queries, out); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() {
			if _, err := c.RangeSum(lo, hi); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: RangeSum allocates %.1f/op", backend, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			_ = c.Get(p)
		}); a != 0 {
			t.Errorf("%s: Get allocates %.1f/op", backend, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			if err := c.RangeSumBatchInto(queries, out); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: RangeSumBatchInto allocates %.1f/op", backend, a)
		}
		// Cold: every corner misses the invalidated cache, descends and
		// is installed again — still without allocating.
		if a := testing.AllocsPerRun(100, func() {
			c.InvalidatePrefixCache()
			if err := c.RangeSumBatchInto(queries, out); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: cold RangeSumBatchInto allocates %.1f/op", backend, a)
		}
	}
}

// TestDenseDefaultCubeHeap pins the point of the density-adaptive
// default: a fully populated 256x256 cube built by point Adds holds no
// more live heap under the default backend than under classic, because
// its dense row-sum groups have switched to the flat layout.
func TestDenseDefaultCubeHeap(t *testing.T) {
	live := func(backend string) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := NewDynamicWithOptions([]int{256, 256}, Options{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < 256; x++ {
			for y := 0; y < 256; y++ {
				if err := c.Add([]int{x, y}, int64(x^y)+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	def, classic := live(""), live("classic")
	t.Logf("live heap: default %d B, classic %d B", def, classic)
	if def > classic {
		t.Fatalf("dense default cube holds %d B live, classic %d B", def, classic)
	}
}

// sparseHeapBudget caps the live heap of the sec5sparse cube per
// nonzero cell: the layout before the flat row-sum groups measured
// 1151 B per cell (4.52 MB for 3923 cells, amd64), and the budget
// allows 5% on top of that.
const sparseHeapBudget = 1151 * 105 / 100

// TestSparseCubeHeap guards Section 5's "storage proportional to the
// data" in live bytes, not just counted cells: the sec5sparse shape (a
// 16384x16384 domain holding about 4000 clustered points) under the
// default backend must stay within sparseHeapBudget bytes per nonzero
// cell.
func TestSparseCubeHeap(t *testing.T) {
	const side = 1 << 14
	dims := []int{side, side}
	ups := workload.Clustered(workload.NewRNG(99), dims, 12, 4000, 25, 50)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewDynamic(dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		if err := c.Add(u.Point, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	cells := int64(c.NonZeroCells())
	t.Logf("live heap %d B for %d nonzero cells (%d B/cell, budget %d)", live, cells, live/cells, sparseHeapBudget)
	if live > sparseHeapBudget*cells {
		t.Fatalf("sparse cube holds %d B live for %d nonzero cells: over %d B/cell", live, cells, sparseHeapBudget)
	}
}

// denseBulkHeapBudget caps the live heap of a bulk-built, fully
// populated 512x512 default cube in bytes per cell: the slab layout
// measured 13.9 B per cell (3.63 MB for 262144 cells, amd64), and the
// budget allows 5% on top of that. The pointer-linked tree before it
// held 34.8 B per cell.
const denseBulkHeapBudget = 14.6

// TestDenseBulkCubeHeap guards the dense layout in live bytes: a
// BuildDynamic of a fully populated 512x512 cube under the default
// backend must stay within denseBulkHeapBudget bytes per cell, so
// per-node and per-box pointer structures cannot quietly return.
func TestDenseBulkCubeHeap(t *testing.T) {
	const side = 512
	vals := make([]int64, side*side)
	r := workload.NewRNG(5)
	for i := range vals {
		vals[i] = 1 + r.Int63n(100)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := BuildDynamic([]int{side, side}, vals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	cells := int64(len(vals))
	t.Logf("live heap %d B for %d cells (%.1f B/cell, budget %.1f)", live, cells, float64(live)/float64(cells), denseBulkHeapBudget)
	if float64(live) > denseBulkHeapBudget*float64(cells) {
		t.Fatalf("dense bulk cube holds %d B live for %d cells: over %.1f B/cell", live, cells, denseBulkHeapBudget)
	}
}

// TestHighDimDefaultCubeHeap guards the default tile above four
// dimensions, where no BenchmarkTile row backs tile 8. A leaf is a dense
// tile^d slab of int64, and a cube of side 2 pads to a single leaf, so
// one Add to a default cube allocates that slab. It must stay within two
// tile-4 slabs (16 KiB at d = 5, 1 MiB at d = 8); a tile-8 leaf is 256
// KiB at d = 5 and 128 MiB at d = 8.
func TestHighDimDefaultCubeHeap(t *testing.T) {
	runtime.GC() // frees sync.Pool victims, so the first baseline is settled
	for _, d := range []int{5, 6, 8} {
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 2
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := NewDynamic(dims)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(make([]int, d), 1); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		budget := int64(2 * 8 << (2 * d)) // two tile-4 slabs: 2 x 8 B x 4^d
		t.Logf("d = %d: tile %d, live heap %d B (budget %d)", d, c.Options().Tile, live, budget)
		if live > budget {
			t.Fatalf("d = %d default cube holds %d B live after one Add: over %d B", d, live, budget)
		}
	}
}

// seqVals returns 0,1,2,... — a dense bulk-load payload.
func seqVals(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 17)
	}
	return vals
}
