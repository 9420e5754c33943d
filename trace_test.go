package ddc

import (
	"testing"

	"ddc/internal/obs"
)

// traceQueries is the known d=2 batch the span-count tests run: four
// overlapping boxes whose corner terms dedup across the batch (the
// last query's only surviving corner prefix, (47,47), is also the
// second query's top corner).
func traceQueries() []RangeQuery {
	return []RangeQuery{
		{Lo: []int{0, 0}, Hi: []int{31, 31}},
		{Lo: []int{16, 16}, Hi: []int{47, 47}},
		{Lo: []int{3, 5}, Hi: []int{60, 59}},
		{Lo: []int{0, 0}, Hi: []int{47, 47}},
	}
}

// checkLevelBudget asserts the Theorem 1 visit budget on a traced
// batch's per-level profile: at most one outer-tree node visit per
// level per paid descent, across at most TreeLevels levels.
func checkLevelBudget(t *testing.T, levels []uint64, treeLevels int, stats BatchStats) {
	t.Helper()
	if len(levels) > treeLevels {
		t.Fatalf("level profile spans %d levels, tree has %d", len(levels), treeLevels)
	}
	for i, n := range levels {
		if n > uint64(stats.CacheMisses) {
			t.Errorf("level %d: %d visits for %d descents (Theorem 1 allows one per level per descent)",
				i, n, stats.CacheMisses)
		}
	}
}

// TestBatchTraceSpans pins the exact span shape of an unsharded d=2
// traced batch: the four pipeline stage spans (plan, dedup, execute,
// gather) as sequential children of the caller's parent, summing to
// within the parent's duration, with the level profile inside the
// O(log^d n) budget — the EXPLAIN acceptance contract, checked at the
// library layer.
func TestBatchTraceSpans(t *testing.T) {
	c, err := BuildDynamic([]int{64, 64}, seqVals(64*64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := traceQueries()
	want, err := c.RangeSumBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	c.InvalidatePrefixCache() // cold cache: every distinct corner descends

	sc := obs.NewSpanContext(64)
	root := sc.Start("test", obs.NoSpan)
	out := make([]int64, len(queries))
	stats, levels, err := c.RangeSumBatchTrace(queries, out, sc, root)
	sc.End(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("query %d: traced sum %d != %d", i, out[i], want[i])
		}
	}

	stages := []string{"batch.plan", "batch.dedup", "batch.execute", "batch.gather"}
	if got, wantN := sc.Len(), 1+len(stages); got != wantN {
		t.Fatalf("span count = %d, want %d (root + stages)", got, wantN)
	}
	snap := sc.Snapshot()
	rootSnap := snap[0]
	var stageSum int64
	for i, name := range stages {
		s := snap[i+1]
		if s.Name != name {
			t.Fatalf("span %d = %q, want %q", i+1, s.Name, name)
		}
		if s.Parent != int32(root) {
			t.Fatalf("stage %q parent = %d, want root", name, s.Parent)
		}
		if s.StartNs < rootSnap.StartNs {
			t.Errorf("stage %q starts before its parent", name)
		}
		if prev := snap[i]; i > 0 && s.StartNs < prev.StartNs+prev.DurationNs {
			t.Errorf("stage %q overlaps %q: stages must be sequential", name, prev.Name)
		}
		stageSum += s.DurationNs
	}
	if stageSum > rootSnap.DurationNs {
		t.Errorf("stage durations sum to %dns, beyond the parent's %dns", stageSum, rootSnap.DurationNs)
	}

	if stats.Queries != len(queries) {
		t.Fatalf("stats.Queries = %d, want %d", stats.Queries, len(queries))
	}
	if stats.CornerTerms > len(queries)*4 {
		t.Fatalf("d=2 batch expanded %d corner terms, max %d", stats.CornerTerms, len(queries)*4)
	}
	if stats.DistinctCorners >= stats.CornerTerms {
		t.Fatalf("overlapping batch deduped nothing: %d distinct of %d terms",
			stats.DistinctCorners, stats.CornerTerms)
	}
	if stats.CacheMisses == 0 {
		t.Fatal("cold-cache batch reported zero descents")
	}
	checkLevelBudget(t, levels, c.TreeLevels(), stats)
	var visits uint64
	for _, n := range levels {
		visits += n
	}
	if visits == 0 {
		t.Fatal("traced descents recorded no per-level visits")
	}

	// A warm second pass serves every corner from the cache: no
	// descents, an all-zero level profile, identical sums.
	sc.Reset()
	root = sc.Start("warm", obs.NoSpan)
	stats, levels, err = c.RangeSumBatchTrace(queries, out, sc, root)
	sc.End(root)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 0 || stats.CacheHits != stats.DistinctCorners {
		t.Fatalf("warm pass: hits/misses = %d/%d of %d distinct",
			stats.CacheHits, stats.CacheMisses, stats.DistinctCorners)
	}
	for i, n := range levels {
		if n != 0 {
			t.Fatalf("warm pass visited %d nodes at level %d", n, i)
		}
	}
}

// TestShardedBatchTraceSpans pins the fan-out span shape: one
// "shard.batch" child per slab the batch touched, each parenting that
// shard's four stage spans, with queue-wait attributes and a merged
// level profile still inside the budget.
func TestShardedBatchTraceSpans(t *testing.T) {
	const shards = 4
	s, err := BuildSharded([]int{64, 64}, seqVals(64*64), shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []RangeQuery{
		{Lo: []int{0, 0}, Hi: []int{63, 63}},  // spans all 4 slabs
		{Lo: []int{0, 0}, Hi: []int{15, 15}},  // confined to slab 0
		{Lo: []int{20, 8}, Hi: []int{45, 50}}, // slabs 1..2
	}
	want, err := sequentialRangeSumBatch(s, queries)
	if err != nil {
		t.Fatal(err)
	}

	sc := obs.NewSpanContext(128)
	root := sc.Start("test", obs.NoSpan)
	out := make([]int64, len(queries))
	stats, levels, err := s.RangeSumBatchTrace(queries, out, sc, root)
	sc.End(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("query %d: traced sum %d != %d", i, out[i], want[i])
		}
	}

	// Every slab holds sub-queries here, so the fan-out touches all 4:
	// root + 4 slab spans + 4 stage spans under each.
	if got, wantN := sc.Len(), 1+shards*5; got != wantN {
		t.Fatalf("span count = %d, want %d", got, wantN)
	}
	stageNames := map[string]bool{
		"batch.plan": true, "batch.dedup": true,
		"batch.execute": true, "batch.gather": true,
	}
	slabs := 0
	children := make(map[int32]int)
	for _, sp := range sc.Snapshot() {
		switch {
		case sp.Name == "shard.batch":
			slabs++
			if sp.Parent != int32(root) {
				t.Fatalf("slab span parent = %d, want root", sp.Parent)
			}
			for _, key := range []string{"shard", "queries", "queue_wait_ns"} {
				if _, ok := sp.Attrs[key]; !ok {
					t.Errorf("slab span missing attr %q", key)
				}
			}
			if sp.Attrs["queries"] <= 0 {
				t.Errorf("slab %d fanned out with %d sub-queries", sp.Attrs["shard"], sp.Attrs["queries"])
			}
		case stageNames[sp.Name]:
			children[sp.Parent]++
		case sp.Name == "test":
		default:
			t.Fatalf("unexpected span %q", sp.Name)
		}
	}
	if slabs != shards {
		t.Fatalf("slab spans = %d, want %d", slabs, shards)
	}
	if len(children) != shards {
		t.Fatalf("stage spans grouped under %d parents, want %d slabs", len(children), shards)
	}
	for parent, n := range children {
		if n != 4 {
			t.Fatalf("slab span %d parents %d stage spans, want 4", parent, n)
		}
	}
	checkLevelBudget(t, levels, s.TreeLevels(), stats)
}

// TestTracingDisabledAllocs pins the zero-allocation contract of the
// untraced read path: with telemetry off and a warm prefix cache,
// neither a point query, a range sum nor a planned batch allocates —
// the tracing layer must stay invisible until a span context exists.
func TestTracingDisabledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool reuse; counts would measure the detector")
	}
	tel := GlobalTelemetry()
	tel.Disable()
	tel.Reset()
	c, err := BuildDynamic([]int{64, 64}, seqVals(64*64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := traceQueries()
	out := make([]int64, len(queries))
	lo, hi := []int{3, 5}, []int{60, 59}
	if _, err := c.RangeSum(lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := c.RangeSumBatchInto(queries, out); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := c.RangeSum(lo, hi); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("tracing-disabled RangeSum allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := c.RangeSumBatchInto(queries, out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("tracing-disabled RangeSumBatchInto allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		_ = c.Get(lo)
	}); a != 0 {
		t.Errorf("tracing-disabled Get allocates %.1f/op", a)
	}
}

// TestAdmittedTracesAreSpanTrees admits one trace per cube-layer op
// under sampling 1 and checks its shape: a single root span named by
// the op, whose attributes carry the box, the operation counts, the
// fan-out width and batch size when nonzero, and the contribution kinds;
// a sampled prefix adds level spans whose values sum to the answer.
func TestAdmittedTracesAreSpanTrees(t *testing.T) {
	tel := withTelemetry(t)
	tel.SetTraceSampling(1)
	dims := []int{16, 16}
	dyn, err := BuildDynamic(dims, seqVals(256), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(dims, seqVals(256), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFenwick(dims)
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffered(fw, BufferedOptions{FlushInterval: -1})
	defer buf.Close()
	if err := buf.Add([]int{3, 4}, 9); err != nil {
		t.Fatal(err)
	}
	lo, hi := []int{1, 2}, []int{13, 14}
	batch := []RangeQuery{{Lo: lo, Hi: hi}, {Lo: []int{0, 0}, Hi: []int{15, 15}}}
	var prefix int64
	box := map[string]int64{"lo.0": 1, "lo.1": 2, "hi.0": 13, "hi.1": 14}
	for _, tc := range []struct {
		name   string
		run    func() error
		op     string
		attrs  map[string]int64
		counts bool // a planner counted node visits and contributions
	}{
		{"dynamic prefix", func() error { prefix = dyn.Prefix(hi); return nil }, "prefix",
			map[string]int64{"p.0": 13, "p.1": 14}, true},
		{"dynamic rangesum", func() error { _, err := dyn.RangeSum(lo, hi); return err }, "rangesum", box, true},
		{"dynamic batch", func() error { _, err := dyn.RangeSumBatch(batch); return err }, "rangesum_batch",
			map[string]int64{"batch": 2}, true},
		{"sharded rangesum", func() error { _, err := sh.RangeSum(lo, hi); return err }, "rangesum",
			map[string]int64{"lo.0": 1, "lo.1": 2, "hi.0": 13, "hi.1": 14, "shards": 4}, true},
		{"sharded batch", func() error { _, err := sh.RangeSumBatch(batch); return err }, "rangesum_batch",
			map[string]int64{"batch": 2, "shards": 4}, true},
		{"buffered fenwick batch", func() error { _, err := buf.RangeSumBatch(batch); return err }, "rangesum_batch",
			map[string]int64{"batch": 2}, false},
	} {
		tel.Reset()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		traces := tel.Traces()
		if len(traces) != 1 || traces[0].Op != tc.op || len(traces[0].Spans) != 1 {
			t.Fatalf("%s: traces %+v, want one %s span tree", tc.name, traces, tc.op)
		}
		root := traces[0].Spans[0]
		if root.Name != tc.op || root.Parent != -1 || root.DurationNs != traces[0].DurationNs {
			t.Errorf("%s: root span %+v", tc.name, root)
		}
		for k, v := range tc.attrs {
			if root.Attrs[k] != v {
				t.Errorf("%s: root attr %s = %d, want %d (attrs %v)", tc.name, k, root.Attrs[k], v, root.Attrs)
			}
		}
		var kinds int64
		for _, k := range kindNames {
			kinds += root.Attrs[k]
		}
		_, counted := root.Attrs["query_cells"]
		if !counted || (root.Attrs["node_visits"] > 0) != tc.counts || (kinds > 0) != tc.counts {
			t.Errorf("%s: root attrs %v, want counted node visits and kinds: %v", tc.name, root.Attrs, tc.counts)
		}
		if tc.op != "prefix" {
			continue
		}
		var sum int64
		for _, lv := range root.Children {
			sum += lv.Attrs["value"]
		}
		if len(root.Children) == 0 || sum != prefix {
			t.Errorf("%s: %d level spans sum to %d, want the answer %d", tc.name, len(root.Children), sum, prefix)
		}
	}
}
