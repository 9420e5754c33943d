package ddc

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ddc/internal/cube"
	"ddc/internal/grid"
)

// withTelemetry enables the global telemetry for one test, restoring
// the disabled zero-overhead state (and clearing all knobs and metrics)
// when the test ends.
func withTelemetry(t *testing.T) *Telemetry {
	t.Helper()
	tel := GlobalTelemetry()
	tel.Reset()
	tel.SetTraceSampling(0)
	tel.SetSlowQueryThreshold(0)
	tel.Enable()
	t.Cleanup(func() {
		tel.Disable()
		tel.SetTraceSampling(0)
		tel.SetSlowQueryThreshold(0)
		tel.Reset()
	})
	return tel
}

func TestTelemetryCountersAndSnapshot(t *testing.T) {
	tel := withTelemetry(t)
	c, err := NewDynamic([]int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Add([]int{i * 5, i * 3}, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set([]int{7, 7}, 42); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch([]PointDelta{
		{Point: []int{1, 1}, Delta: 2},
		{Point: []int{2, 2}, Delta: 3},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Prefix([]int{63, 63})
	}
	if _, err := c.RangeSum([]int{0, 0}, []int{40, 40}); err != nil {
		t.Fatal(err)
	}

	s := tel.Snapshot()
	if !s.Enabled {
		t.Fatal("snapshot should report enabled")
	}
	if got := s.Updates["add"]; got != 10 {
		t.Errorf("updates[add] = %d, want 10", got)
	}
	if got := s.Updates["set"]; got != 1 {
		t.Errorf("updates[set] = %d, want 1", got)
	}
	if got := s.Updates["batch"]; got != 1 {
		t.Errorf("updates[batch] = %d, want 1 (a batch is one logical update)", got)
	}
	if got := s.Queries["prefix"]; got != 20 {
		t.Errorf("queries[prefix] = %d, want 20", got)
	}
	if got := s.Queries["rangesum"]; got != 1 {
		t.Errorf("queries[rangesum] = %d, want 1", got)
	}
	if s.QueryNodeVisits == 0 || s.QueryCells == 0 {
		t.Errorf("query visit/cell counters empty: visits=%d cells=%d",
			s.QueryNodeVisits, s.QueryCells)
	}
	if s.UpdateNodeVisits == 0 || s.UpdateCells == 0 {
		t.Errorf("update visit/cell counters empty: visits=%d cells=%d",
			s.UpdateNodeVisits, s.UpdateCells)
	}
	var contribs uint64
	for _, n := range s.Contributions {
		contribs += n
	}
	if contribs == 0 {
		t.Error("no per-kind contributions recorded")
	}
	if s.QueryLatencyNs.Count != 21 {
		t.Errorf("query latency count = %d, want 21", s.QueryLatencyNs.Count)
	}
	if s.UpdateLatencyNs.Count != 12 {
		t.Errorf("update latency count = %d, want 12", s.UpdateLatencyNs.Count)
	}

	// Telemetry and the cube's own counters describe the same work.
	ops := c.Ops()
	if ops.QueryCells != s.QueryCells {
		t.Errorf("cube QueryCells %d != telemetry %d", ops.QueryCells, s.QueryCells)
	}
	if ops.UpdateCells != s.UpdateCells {
		t.Errorf("cube UpdateCells %d != telemetry %d", ops.UpdateCells, s.UpdateCells)
	}
}

func TestTelemetryDisabledRecordsNothing(t *testing.T) {
	tel := GlobalTelemetry()
	if tel.Enabled() {
		t.Fatal("telemetry should be disabled by default")
	}
	tel.Reset()
	c, err := NewDynamic([]int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]int{3, 4}, 7); err != nil {
		t.Fatal(err)
	}
	c.Prefix([]int{31, 31})
	s := tel.Snapshot()
	if s.Queries["prefix"] != 0 || s.Updates["add"] != 0 {
		t.Errorf("disabled telemetry recorded: %+v", s)
	}
	if len(tel.Traces()) != 0 {
		t.Error("disabled telemetry retained traces")
	}
}

func TestTelemetryTraceSamplingAndSlowLog(t *testing.T) {
	tel := withTelemetry(t)
	tel.SetTraceSampling(1) // trace everything
	c, err := NewDynamic([]int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Add([]int{i * 7, i * 5}, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Prefix([]int{40, 40})
	traces := tel.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Op != "prefix" {
		t.Errorf("trace op = %q, want prefix", tr.Op)
	}
	if len(tr.Point) != 2 || tr.Point[0] != 40 || tr.Point[1] != 40 {
		t.Errorf("trace point = %v, want [40 40]", tr.Point)
	}
	if tr.NodeVisits == 0 {
		t.Error("trace has no node visits")
	}
	if len(tr.Levels) == 0 {
		t.Error("sampled trace should carry the per-level walk")
	}
	var sum int64
	for _, lv := range tr.Levels {
		sum += lv.Value
	}
	if sum != want {
		t.Errorf("trace level values sum to %d, want the query answer %d", sum, want)
	}

	// 1-in-2 sampling admits exactly half of a run of queries.
	tel.Reset()
	tel.SetTraceSampling(2)
	for i := 0; i < 10; i++ {
		c.Prefix([]int{20, 20})
	}
	if got := len(tel.Traces()); got != 5 {
		t.Errorf("1-in-2 sampling kept %d of 10 traces, want 5", got)
	}

	// A 1ns slow-query threshold marks every query slow.
	tel.Reset()
	tel.SetTraceSampling(0)
	tel.SetSlowQueryThreshold(time.Nanosecond)
	c.Prefix([]int{10, 10})
	traces = tel.Traces()
	if len(traces) != 1 || !traces[0].Slow {
		t.Fatalf("slow query not logged: %+v", traces)
	}
	if got := tel.Snapshot().SlowQueries; got != 1 {
		t.Errorf("slow query counter = %d, want 1", got)
	}
}

func TestTelemetryShardedFanout(t *testing.T) {
	tel := withTelemetry(t)
	s, err := NewSharded([]int{64, 64}, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch([]PointDelta{
		{Point: []int{5, 5}, Delta: 1},
		{Point: []int{20, 5}, Delta: 2},
		{Point: []int{40, 5}, Delta: 3},
		{Point: []int{60, 5}, Delta: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Prefix([]int{63, 63}); got != 10 {
		t.Fatalf("prefix = %d, want 10", got)
	}
	snap := tel.Snapshot()
	if got := snap.Queries["prefix"]; got != 1 {
		t.Errorf("sharded prefix recorded %d queries, want 1 (no per-shard double count)", got)
	}
	if got := snap.Updates["batch"]; got != 1 {
		t.Errorf("sharded batch recorded %d updates, want 1", got)
	}
	if snap.ShardFanoutWidth.Count != 2 {
		t.Errorf("fan-out width observations = %d, want 2 (one batch + one prefix)",
			snap.ShardFanoutWidth.Count)
	}
	if snap.ShardFanoutWidth.P50 < 4 {
		t.Errorf("fan-out width p50 = %d, want >= 4 (all shards touched)",
			snap.ShardFanoutWidth.P50)
	}
	if snap.ShardQueueWaitNs.Count == 0 {
		t.Error("no queue-wait observations recorded")
	}
}

func TestTelemetryWritePrometheus(t *testing.T) {
	tel := withTelemetry(t)
	c, err := NewDynamic([]int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add([]int{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	c.Prefix([]int{31, 31})
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ddc_queries_total{op="prefix",backend="auto"} 1`,
		`ddc_updates_total{op="add",backend="auto"} 1`,
		"# TYPE ddc_queries_total counter",
		"# TYPE ddc_query_latency_ns summary",
		`ddc_query_latency_ns{quantile="0.99"}`,
		"ddc_query_latency_ns_count 1",
		"ddc_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape output missing %q", want)
		}
	}
}

// TestPrefixNodeVisitsPolylog checks Theorem 2's query bound through the
// telemetry counters: the per-query work (node visits plus cells read)
// of a 2-d prefix query must scale like O(log^2 n), so growing n from
// 256 to 1024 may multiply it by at most ~(10/8)^2, far below the 4x of
// anything polynomial in n.
func TestPrefixNodeVisitsPolylog(t *testing.T) {
	tel := withTelemetry(t)
	work := func(n int) float64 {
		c, err := NewDynamic([]int{n, n})
		if err != nil {
			t.Fatal(err)
		}
		// Scatter values so queries cross populated boxes and row sums.
		for i := 0; i < n; i += 7 {
			for j := 0; j < n; j += 13 {
				if err := c.Add([]int{i, j}, int64(i+j+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		tel.Reset()
		const q = 64
		for i := 0; i < q; i++ {
			// Interior points exercise subtotal, row-sum and leaf kinds.
			c.Prefix([]int{(i*37 + n/3) % n, (i*53 + n/2) % n})
		}
		s := tel.Snapshot()
		return float64(s.QueryNodeVisits+s.QueryCells) / q
	}
	w256, w1024 := work(256), work(1024)
	if w256 <= 0 || w1024 <= 0 {
		t.Fatalf("no work recorded: %v %v", w256, w1024)
	}
	ratio := w1024 / w256
	// log^2 scaling predicts (log2 1024 / log2 256)^2 = (10/8)^2 ~ 1.56;
	// allow 2x slack for constant effects, still well under linear (4x).
	limit := 2 * math.Pow(math.Log2(1024)/math.Log2(256), 2)
	if ratio > limit {
		t.Errorf("prefix work grew %.2fx from n=256 (%.1f) to n=1024 (%.1f); "+
			"want <= %.2fx for O(log^2 n)", ratio, w256, w1024, limit)
	}
}

// TestConcurrentOpCounterMergeProperty checks, under -race, that the
// atomic per-call merge of operation counters loses nothing: the totals
// after a concurrent query storm equal a sequentially counted baseline
// of the same queries. Telemetry stays disabled so both runs count the
// exact same work.
func TestConcurrentOpCounterMergeProperty(t *testing.T) {
	ensureParallelism(t, 4)
	if GlobalTelemetry().Enabled() {
		t.Fatal("telemetry must be disabled for the baseline comparison")
	}
	const n = 128
	c, err := NewDynamic([]int{n, n})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 5 {
		for j := 0; j < n; j += 3 {
			if err := c.Add([]int{i, j}, int64(i*j%17+1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	const workers = 8
	const perWorker = 200
	query := func(w, i int) {
		p := []int{(w*31 + i*7) % n, (w*17 + i*11) % n}
		if i%4 == 0 {
			lo := []int{p[0] / 2, p[1] / 2}
			if _, err := c.RangeSum(lo, p); err != nil {
				t.Error(err)
			}
		} else {
			c.Prefix(p)
		}
	}

	c.ResetOps()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			query(w, i)
		}
	}
	sequential := c.Ops()

	c.ResetOps()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				query(w, i)
			}
		}(w)
	}
	wg.Wait()
	concurrent := c.Ops()

	if concurrent != sequential {
		t.Errorf("concurrent op totals %+v != sequential baseline %+v",
			concurrent, sequential)
	}
}

// BenchmarkTelemetryOverhead compares the prefix-query fast path with
// telemetry disabled (the default; one atomic flag load per call)
// against the fully instrumented path. It gates nothing:
// the disabled path's 0 allocs/op is held by TestTracingDisabledAllocs,
// and its time sits within about 1-2% of the core Prefix, too close to
// this benchmark's spread to gate.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const n = 1024
	c, err := NewDynamic([]int{n, n})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 13 {
			if err := c.Add([]int{i, j}, int64(i+j+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	p := []int{700, 900}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Prefix(p)
		}
	}
	tel := GlobalTelemetry()
	b.Run("Disabled", func(b *testing.B) {
		if tel.Enabled() {
			b.Fatal("telemetry should be disabled")
		}
		run(b)
	})
	b.Run("Enabled", func(b *testing.B) {
		tel.Reset()
		tel.Enable()
		defer func() {
			tel.Disable()
			tel.Reset()
		}()
		run(b)
	})
}

// TestTraceSamplingKeepsOpCountsExact: a sampled Prefix re-walks its
// descent through ExplainPrefix for the per-level trace, and that
// re-walk must not count again — with every query sampled, N Prefix
// calls move Ops() by exactly the sum of their own per-call counts,
// taken on an identical cube.
func TestTraceSamplingKeepsOpCountsExact(t *testing.T) {
	tel := withTelemetry(t)
	tel.SetTraceSampling(1)
	build := func() *DynamicCube {
		c, err := NewDynamic([]int{32, 32})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := c.Add([]int{i * 7 % 32, i * 13 % 32}, int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RangeAdd([]int{3, 4}, []int{20, 9}, 2); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c, ref := build(), build()
	var want cube.OpCounter
	before := c.t.Ops()
	for i := 0; i < 25; i++ {
		p := grid.Point{i * 5 % 32, i * 11 % 32}
		_, ops := ref.t.PrefixOps(p)
		want.Add(ops)
		c.Prefix(p)
	}
	if got := len(tel.Traces()); got != 25 {
		t.Fatalf("sampled %d of 25 queries, want every one", got)
	}
	got := c.t.Ops()
	for i, n := range before.Contribs {
		got.Contribs[i] -= n
	}
	got.NodeVisits -= before.NodeVisits
	got.QueryCells -= before.QueryCells
	got.UpdateCells -= before.UpdateCells
	if got != want {
		t.Fatalf("sampled Prefix calls moved Ops() by %+v, want %+v", got, want)
	}
}
