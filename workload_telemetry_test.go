package ddc

import (
	"path/filepath"
	"testing"

	"ddc/internal/workload"
)

// TestWorkloadHooksDynamic verifies the DynamicCube entry points feed
// the workload profiler: the read/write mix, heatmap cells at the
// box-center and update coordinates, the lazily derived domain, and the
// dimension-0 read marginal.
func TestWorkloadHooksDynamic(t *testing.T) {
	tel := withTelemetry(t)
	c, err := NewDynamic([]int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]int{5, 7}, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]int{5, 7}, 9); err != nil {
		t.Fatal(err)
	}
	_ = c.Prefix([]int{10, 10})
	if _, err := c.RangeSum([]int{0, 0}, []int{31, 31}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RangeSumBatch([]RangeQuery{
		{Lo: []int{0, 0}, Hi: []int{31, 31}},
		{Lo: []int{2, 2}, Hi: []int{2, 2}},
	}); err != nil {
		t.Fatal(err)
	}

	snap := tel.WorkloadSnapshot()
	if snap.Writes != 2 {
		t.Errorf("writes = %d, want 2", snap.Writes)
	}
	if snap.Reads != 4 { // prefix + rangesum + 2 batch boxes
		t.Errorf("reads = %d, want 4", snap.Reads)
	}
	hm := snap.Heatmap
	if hm == nil {
		t.Fatal("heatmap not configured from cube bounds")
	}
	if hm.Grid != 64 || hm.Lo[0] != 0 || hm.Hi[0] != 63 || hm.Hi[1] != 63 {
		t.Fatalf("heatmap geometry: grid=%d lo=%v hi=%v", hm.Grid, hm.Lo, hm.Hi)
	}
	if got := hm.Write[5*64+7]; got != 2 { // Add and Set on the same cell
		t.Errorf("write heat at (5,7) = %d, want 2", got)
	}
	if got := hm.Read[15*64+15]; got != 2 { // center of [0,31]^2, hit twice
		t.Errorf("read heat at box center = %d, want 2", got)
	}
	if len(snap.HeavyHitters) == 0 {
		t.Error("no heavy hitters recorded")
	}
	if len(hm.ReadDim0) != 64 {
		t.Errorf("read dim-0 marginal has %d cells, want 64", len(hm.ReadDim0))
	}
}

// TestWorkloadHooksShardedGlobalCoords verifies the sharded fan-out
// records global coordinates exactly once: the inner per-slab cubes are
// profile-suppressed, so a write lands one count at its global heatmap
// cell and the domain is the full sharded cube, not a slab.
func TestWorkloadHooksShardedGlobalCoords(t *testing.T) {
	tel := withTelemetry(t)
	s, err := NewSharded([]int{64, 64}, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Global dim-0 coordinate 48 lives in the last slab; a slab-local
	// recording would alias it near 0.
	if err := s.Add([]int{48, 10}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RangeSum([]int{0, 0}, []int{63, 63}); err != nil {
		t.Fatal(err)
	}
	snap := tel.WorkloadSnapshot()
	if snap.Writes != 1 || snap.Reads != 1 {
		t.Fatalf("sharded mix writes=%d reads=%d, want 1/1 (inner cubes must not double-count)",
			snap.Writes, snap.Reads)
	}
	hm := snap.Heatmap
	if hm == nil || hm.Hi[0] != 63 {
		t.Fatalf("sharded heatmap domain: %+v", hm)
	}
	if got := hm.Write[48*64+10]; got != 1 {
		t.Errorf("write heat at global (48,10) = %d, want 1", got)
	}
	if got := hm.Read[31*64+31]; got != 1 {
		t.Errorf("read heat at global box center = %d, want 1", got)
	}
}

// TestTelemetryResetClearsWorkloadAndCapture pins the documented
// Telemetry.Reset contract for the workload layer: collectors
// (mix, heatmap, histograms, heavy hitters) return to zero and an
// attached capture's progress counters restart, while the capture
// itself stays attached and usable.
func TestTelemetryResetClearsWorkloadAndCapture(t *testing.T) {
	tel := withTelemetry(t)
	cp, err := workload.NewCapture(workload.CaptureOptions{
		Path: filepath.Join(t.TempDir(), "wl.bin"), Dims: []int{32, 32}, SampleQueries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.AttachCapture(cp)
	defer func() {
		tel.AttachCapture(nil)
		cp.Close()
	}()

	c, err := NewDynamic([]int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]int{1, 2}, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RangeSum([]int{0, 0}, []int{15, 15}); err != nil {
		t.Fatal(err)
	}
	if st, ok := tel.CaptureStats(); !ok || st.Records != 2 {
		t.Fatalf("capture before reset: ok=%v stats=%+v", ok, st)
	}

	tel.Reset()

	snap := tel.WorkloadSnapshot()
	if snap.Reads != 0 || snap.Writes != 0 || snap.Heatmap != nil || len(snap.HeavyHitters) != 0 {
		t.Errorf("workload collectors survived Reset: %+v", snap)
	}
	st, ok := tel.CaptureStats()
	if !ok || st.Records != 0 || st.Updates != 0 || st.Queries != 0 {
		t.Errorf("capture counters survived Reset: ok=%v stats=%+v", ok, st)
	}
	// The capture stream itself must still be live after Reset.
	if err := c.Add([]int{3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := tel.CaptureStats(); st.Records != 1 {
		t.Errorf("capture dead after Reset: %+v", st)
	}
}

// TestWorkloadDisabledPathAllocs extends the zero-alloc guard to the
// profiler hooks: with telemetry disabled (the default) the read paths
// must stay allocation-free even with a capture attached — the hooks
// live strictly behind the one atomic telemetry load.
func TestWorkloadDisabledPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool reuse; counts would measure the detector")
	}
	tel := GlobalTelemetry()
	if tel.Enabled() {
		t.Fatal("telemetry should be disabled")
	}
	cp, err := workload.NewCapture(workload.CaptureOptions{
		Path: filepath.Join(t.TempDir(), "wl.bin"), Dims: []int{64, 64}, SampleQueries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.AttachCapture(cp)
	defer func() {
		tel.AttachCapture(nil)
		cp.Close()
	}()

	c, err := BuildDynamic([]int{64, 64}, seqVals(64*64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{3, 5}, []int{60, 59}
	queries := []RangeQuery{{Lo: []int{0, 0}, Hi: []int{31, 31}}, {Lo: []int{16, 16}, Hi: []int{47, 47}}}
	out := make([]int64, len(queries))
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
		t.Errorf("RangeSum allocates %.1f/op with capture attached", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = c.Get([]int{17, 23}) }); a != 0 {
		t.Errorf("Get allocates %.1f/op with capture attached", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := c.RangeSumBatchInto(queries, out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("RangeSumBatchInto allocates %.1f/op with capture attached", a)
	}
	if st, _ := tel.CaptureStats(); st.Records != 0 {
		t.Errorf("capture recorded %d records with telemetry disabled", st.Records)
	}
}

// BenchmarkWorkloadProfilerOverhead isolates the profiler's cost on the
// telemetry-enabled range-sum path: ProfilerOff is the pre-existing
// instrumented path, ProfilerOn adds the heatmap/shape/top-K
// collectors. BenchmarkProfilerGuard is the gated, paired form of this
// comparison.
func BenchmarkWorkloadProfilerOverhead(b *testing.B) {
	c, err := BuildDynamic([]int{256, 256}, seqVals(256*256), Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := []int{10, 20}, []int{200, 190}
	tel := GlobalTelemetry()
	tel.Reset()
	tel.Enable()
	defer func() {
		tel.Disable()
		tel.Reset()
	}()
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.RangeSum(lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ProfilerOff", func(b *testing.B) {
		tel.Workload().SetEnabled(false)
		run(b)
	})
	b.Run("ProfilerOn", func(b *testing.B) {
		tel.Workload().SetEnabled(true)
		run(b)
	})
}
