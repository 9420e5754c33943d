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

// batchPlanner is a cube or wrapper whose batches run through one
// planned engine, RangeSumBatchTrace: DynamicCube, ShardedCube and
// Buffered. A nil span context is the engine's untraced path; the
// untraced entry points (RangeSumBatch, RangeSumBatchStats and
// DynamicCube.RangeSumBatchInto) are derived from it.
type batchPlanner interface {
	RangeSumBatchTrace(queries []RangeQuery, out []int64, sc *obs.SpanContext, parent obs.SpanID) (BatchStats, []uint64, error)
}

// plannedBatch runs p's engine untraced into a fresh result slice.
func plannedBatch(p batchPlanner, queries []RangeQuery) ([]int64, BatchStats, error) {
	if len(queries) == 0 {
		return nil, BatchStats{}, nil
	}
	out := make([]int64, len(queries))
	st, _, err := p.RangeSumBatchTrace(queries, out, nil, obs.NoSpan)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
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
	sums, _, err := plannedBatch(c, queries)
	return sums, err
}

// RangeSumBatchStats is RangeSumBatch returning, in addition, the
// batch's sharing statistics (dedup ratio, cache hits).
func (c *DynamicCube) RangeSumBatchStats(queries []RangeQuery) ([]int64, BatchStats, error) {
	return plannedBatch(c, queries)
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
	_, _, err := c.RangeSumBatchTrace(queries, out, nil, obs.NoSpan)
	return err
}

// boxPool recycles the RangeQuery -> core.Box conversion buffers, so
// the batch engine converts without allocating in steady state.
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

// TreeLevels returns the number of tree levels one corner descent can
// touch (root down to the leaf tile). Theorem 1 bounds a descent to one
// outer-tree node per level, so TreeLevels × descents is the visit
// budget the EXPLAIN endpoint checks span-level profiles against.
func (c *DynamicCube) TreeLevels() int { return c.t.Levels() }

// RangeSumBatchTrace is the cube's one batch engine, writing the
// results into out (len(out) must equal len(queries)). A nil sc is the
// untraced path: with telemetry disabled it costs one atomic load over
// the core engine, and with telemetry enabled a sampled or slow batch
// lands in the trace ring as a flat trace. A live sc records one child
// span per pipeline stage (plan, dedup, execute, gather) under parent
// and returns the per-level outer-tree visit profile of the descents
// the batch actually paid for (levels[0] is the root level); the
// caller owns that trace, so no flat trace is admitted. Telemetry is
// recorded either way when enabled. The traced path allocates; it
// exists for /v1/explain and traced requests, never for the
// steady-state hot path.
func (c *DynamicCube) RangeSumBatchTrace(queries []RangeQuery, out []int64, sc *obs.SpanContext, parent obs.SpanID) (BatchStats, []uint64, error) {
	bp := getBoxes(queries)
	defer putBoxes(bp)
	tel := globalTelemetry
	if !tel.on() {
		_, st, levels, err := c.t.RangeSumBatchTraceOps(*bp, out, sc, parent)
		return BatchStats(st), levels, err
	}
	start := time.Now()
	ops, st, levels, err := c.t.RangeSumBatchTraceOps(*bp, out, sc, parent)
	if err != nil {
		return BatchStats(st), nil, err
	}
	var src workloadDomain
	if !c.noProfile {
		src = c
	}
	tel.batchDone(src, queries, c.be, 0, start, ops, BatchStats(st), sc == nil)
	return BatchStats(st), levels, nil
}

// InvalidatePrefixCache drops every cached corner prefix value by
// bumping the cube's mutation epoch. Mutations, growth and compaction
// invalidate automatically; this explicit hook serves benchmarks and
// tests that need a cold cache on an otherwise unchanged cube.
func (c *DynamicCube) InvalidatePrefixCache() { c.t.InvalidatePrefixCache() }
