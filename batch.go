package ddc

import (
	"fmt"
	"sync"
	"time"

	"ddc/internal/core"
	"ddc/internal/grid"
	"ddc/internal/obs"
)

// RangeQuery is one inclusive range-sum box inside a batch.
type RangeQuery struct {
	Lo, Hi []int
}

// BatchStats reports how much work a batched range-sum execution shared
// (see DynamicCube.RangeSumBatchStats). A sequential loop would have
// paid one tree descent per corner term; the batched engine pays one
// per distinct corner, minus the cache hits.
type BatchStats struct {
	// Queries is the number of logical range sums answered.
	Queries int
	// CornerTerms counts non-empty signed corner terms before
	// deduplication (at most Queries * 2^d).
	CornerTerms int
	// SkippedCorners counts corner terms short-circuited as empty
	// regions (a coordinate below the domain's lower bound).
	SkippedCorners int
	// DistinctCorners is the number of distinct corner prefixes after
	// batch-wide deduplication.
	DistinctCorners int
	// CacheHits / CacheMisses split DistinctCorners into corners served
	// from the versioned prefix cache and corners that descended the
	// tree. For sharded cubes the statistics are summed across shards.
	CacheHits   int
	CacheMisses int
}

func (s *BatchStats) merge(o core.BatchStats) {
	s.CornerTerms += o.CornerTerms
	s.SkippedCorners += o.SkippedCorners
	s.DistinctCorners += o.DistinctCorners
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// sequentialRangeSumBatch answers a batch with one RangeSum per query —
// the fallback for cube implementations without a batched engine. The
// first failing query aborts the batch.
func sequentialRangeSumBatch(c Cube, queries []RangeQuery) ([]int64, error) {
	out := make([]int64, len(queries))
	for i, q := range queries {
		v, err := c.RangeSum(q.Lo, q.Hi)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// RangeSumBatch implements Cube: the batch is planned as a whole —
// every query expands to its signed corner prefix terms, identical
// corners are deduplicated across the batch so each distinct prefix
// descends the tree exactly once, hot corners are served from a
// versioned cache that any mutation invalidates with one atomic epoch
// bump, and the remaining descents run over the lock-free read path
// with a bounded fan-out. Results are identical to calling RangeSum in
// a loop; operation counts reflect only the deduplicated work.
//
// Like the other read methods it is safe for any number of concurrent
// callers, provided no mutation runs at the same time.
func (c *DynamicCube) RangeSumBatch(queries []RangeQuery) ([]int64, error) {
	sums, _, err := c.rangeSumBatch(queries)
	return sums, err
}

// RangeSumBatchStats is RangeSumBatch returning, in addition, the
// batch's sharing statistics (dedup ratio, cache hits).
func (c *DynamicCube) RangeSumBatchStats(queries []RangeQuery) ([]int64, BatchStats, error) {
	return c.rangeSumBatch(queries)
}

// boxPool recycles the RangeQuery -> core.Box conversion buffers, so
// the batch entry points convert without allocating in steady state.
var boxPool = sync.Pool{New: func() interface{} { return new([]core.Box) }}

// getBoxes converts queries into a pooled core.Box buffer; hand it back
// with putBoxes once the batch has run.
func getBoxes(queries []RangeQuery) *[]core.Box {
	bp := boxPool.Get().(*[]core.Box)
	boxes := (*bp)[:0]
	for _, q := range queries {
		boxes = append(boxes, core.Box{Lo: grid.Point(q.Lo), Hi: grid.Point(q.Hi)})
	}
	*bp = boxes
	return bp
}

// putBoxes returns a buffer to the pool, dropping its references to the
// caller's coordinate slices.
func putBoxes(bp *[]core.Box) {
	clear(*bp)
	boxPool.Put(bp)
}

// RangeSumBatchInto is RangeSumBatch writing the results into out
// (len(out) must equal len(queries)). With a warm or a cold prefix
// cache the entire call is allocation-free for batches below the
// engine's fan-out crossover — the planning and query scratch, the box
// conversion buffer, the cache's storage and the result storage are
// all reused — which is the steady-state form latency-sensitive callers
// poll with (the allocation-regression tests pin it at zero allocs for
// every backend).
func (c *DynamicCube) RangeSumBatchInto(queries []RangeQuery, out []int64) error {
	if len(out) != len(queries) {
		return fmt.Errorf("ddc: batch out has %d slots for %d queries", len(out), len(queries))
	}
	bp := getBoxes(queries)
	defer putBoxes(bp)
	tel := globalTelemetry
	if !tel.on() {
		return c.t.RangeSumBatchInto(*bp, out)
	}
	start := time.Now()
	ops, st, err := c.t.RangeSumBatchIntoOps(*bp, out)
	if err != nil {
		return err
	}
	stats := BatchStats{Queries: len(queries)}
	stats.merge(st)
	tel.recordBatch(len(queries), c.be, time.Since(start), ops, stats)
	if !c.noProfile {
		tel.workloadBatch(c, queries)
	}
	return nil
}

// TreeLevels returns the number of tree levels one corner descent can
// touch (root down to the leaf tile). Theorem 1 bounds a descent to one
// outer-tree node per level, so TreeLevels × descents is the visit
// budget the EXPLAIN endpoint checks span-level profiles against.
func (c *DynamicCube) TreeLevels() int { return c.t.Levels() }

// RangeSumBatchTrace is RangeSumBatchInto recording span-level
// observability into sc under parent: one child span per pipeline stage
// (plan, dedup, execute, gather) and the per-level outer-tree visit
// profile of the descents the batch actually paid for (levels[0] is the
// root level). Telemetry is still recorded when enabled. The traced
// path allocates; it exists for /v1/explain and traced slow requests,
// never for the steady-state hot path.
func (c *DynamicCube) RangeSumBatchTrace(queries []RangeQuery, out []int64, sc *obs.SpanContext, parent obs.SpanID) (BatchStats, []uint64, error) {
	if len(out) != len(queries) {
		return BatchStats{}, nil, fmt.Errorf("ddc: batch out has %d slots for %d queries", len(out), len(queries))
	}
	bp := getBoxes(queries)
	defer putBoxes(bp)
	tel := globalTelemetry
	start := time.Now()
	ops, st, levels, err := c.t.RangeSumBatchTraceOps(*bp, out, sc, parent)
	if err != nil {
		return BatchStats{}, nil, err
	}
	stats := BatchStats{Queries: len(queries)}
	stats.merge(st)
	if tel.on() {
		tel.recordBatch(len(queries), c.be, time.Since(start), ops, stats)
		if !c.noProfile {
			tel.workloadBatch(c, queries)
		}
	}
	return stats, levels, nil
}

// InvalidatePrefixCache drops every cached corner prefix value by
// bumping the cube's mutation epoch. Mutations, growth and compaction
// invalidate automatically; this explicit hook serves benchmarks and
// tests that need a cold cache on an otherwise unchanged cube.
func (c *DynamicCube) InvalidatePrefixCache() { c.t.InvalidatePrefixCache() }

func (c *DynamicCube) rangeSumBatch(queries []RangeQuery) ([]int64, BatchStats, error) {
	bp := getBoxes(queries)
	defer putBoxes(bp)
	stats := BatchStats{Queries: len(queries)}
	tel := globalTelemetry
	if !tel.on() {
		sums, _, st, err := c.t.RangeSumBatchOps(*bp)
		stats.merge(st)
		return sums, stats, err
	}
	start := time.Now()
	sums, ops, st, err := c.t.RangeSumBatchOps(*bp)
	stats.merge(st)
	d := time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	tel.recordBatch(len(queries), c.be, d, ops, stats)
	if !c.noProfile {
		tel.workloadBatch(c, queries)
	}
	if sampled, slow := tel.shouldTrace(d); sampled || slow {
		tel.trace(QueryTrace{
			Op: "rangesum_batch", Start: start, DurationNs: d.Nanoseconds(),
			Batch: len(queries), NodeVisits: ops.NodeVisits,
			QueryCells: ops.QueryCells, Contributions: contribMap(ops),
			Slow: slow,
		})
	}
	return sums, stats, nil
}
