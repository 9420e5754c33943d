package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/obs"
)

// Batched range-sum execution. Every range sum reduces to at most 2^d
// signed corner prefix queries (Figure 4); a batch of N queries shares
// corners aggressively — adjacent drill-down tiles and overlapping
// dashboard windows meet on common corner planes — so the engine plans
// the whole batch at once:
//
//  1. expand each box into its signed corner terms, short-circuiting
//     corners below the logical origin (empty regions) and clamping
//     coordinates beyond the padded domain to its high edge, so terms
//     that denote the same prefix canonicalize to the same point;
//  2. deduplicate the canonical corners across the entire batch, so
//     each distinct prefix descends the tree exactly once;
//  3. serve corners from the epoch-versioned prefix cache when the tree
//     has not mutated since they were last computed, and execute the
//     remaining distinct corners over the lock-free read path with a
//     bounded worker fan-out (each descent draws its scratch from the
//     shared query pool);
//  4. gather the signed terms back into per-query results.
//
// Operation counts reflect the deduplicated work: a corner descended
// once is counted once no matter how many queries consume it, and a
// cache hit costs nothing. The caller attributes the batch to its
// logical queries (see the ddc package's telemetry recording).

// Box is one inclusive logical range-sum query inside a batch.
type Box struct {
	Lo, Hi grid.Point
}

// BatchStats describes how much work a batched execution shared.
type BatchStats struct {
	// Queries is the number of logical range sums answered.
	Queries int
	// CornerTerms counts the signed corner terms denoting non-empty
	// regions, before deduplication (at most Queries * 2^d).
	CornerTerms int
	// SkippedCorners counts corner terms short-circuited as empty
	// (a coordinate below the logical origin).
	SkippedCorners int
	// DistinctCorners is the number of distinct canonical corners the
	// batch needed — the descents a sequential loop would have paid
	// CornerTerms for.
	DistinctCorners int
	// CacheHits / CacheMisses split DistinctCorners into corners served
	// from the versioned prefix cache and corners that descended.
	CacheHits   int
	CacheMisses int
}

// prefixCacheCap bounds the versioned prefix cache: small enough to
// stay resident, large enough for a dashboard's worth of hot corners.
const prefixCacheCap = 4096

// prefixCache memoises corner prefix values between batches. All
// entries belong to one mutation epoch; a lookup under a newer epoch
// drops everything, so a single atomic epoch bump on any mutation is
// the entire invalidation protocol. The mutex only coordinates batches
// with each other — mutations never touch the cache.
type prefixCache struct {
	mu    sync.Mutex
	epoch uint64
	m     map[string]int64
}

// sync moves the cache to epoch, dropping stale entries, and returns
// the map for use under the held lock. The map is cleared in place, not
// reallocated: frequent invalidation (a mutation-heavy stream) must not
// turn into allocation churn.
func (c *prefixCache) sync(epoch uint64) map[string]int64 {
	if c.m == nil {
		c.m = make(map[string]int64, 64)
	} else if c.epoch != epoch {
		clear(c.m)
	}
	c.epoch = epoch
	return c.m
}

// cornerKey encodes a canonical corner as a map key, appending to dst
// to avoid a second allocation.
func cornerKey(dst []byte, p grid.Point) []byte {
	for _, v := range p {
		u := uint64(v)
		dst = append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}

// hashCorner is an inline FNV-1a over a corner's coordinates: the
// planner's dedup index is keyed by this hash (not an interned string)
// so steady-state batches plan with zero allocations — map buckets
// survive clear, uint64 keys intern nothing. Collisions are resolved by
// probing successive hash values with full point comparison (see the
// planning loop), so a 64-bit collision costs a probe, never a wrong
// answer.
func hashCorner(p grid.Point) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range p {
		u := uint64(v)
		for s := uint(0); s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func pointsEq(a, b grid.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// signedTerm references one distinct corner with its inclusion/
// exclusion sign.
type signedTerm struct {
	corner int32
	neg    bool
}

// batchScratch holds a batch execution's planning state, pooled so a
// steady stream of batches plans allocation-free. With a warm prefix
// cache and a caller-provided result slice (RangeSumBatchInto) an
// entire batch runs with zero allocations; the only remaining per-call
// garbage is the cache's interned keys on a miss — work that already
// pays for tree descents.
type batchScratch struct {
	index    map[uint64]int32 // corner hash -> index into distinct
	distinct []grid.Point     // canonical corners; points are reused
	terms    []signedTerm     // all queries' terms, flattened
	qoff     []int32          // terms[qoff[i]:qoff[i+1]] belongs to query i
	values   []int64          // one resolved value per distinct corner
	work     []int32          // distinct indices missing from the cache
	corner   grid.Point
	hiBound  grid.Point
	keyBuf   []byte
}

var batchScratchPool = sync.Pool{New: func() interface{} {
	return &batchScratch{index: make(map[uint64]int32, 64)}
}}

// reset prepares the scratch for a d-dimensional batch of nq queries.
func (s *batchScratch) reset(d, nq int) {
	clear(s.index)
	s.distinct = s.distinct[:0]
	s.terms = s.terms[:0]
	s.work = s.work[:0]
	if cap(s.qoff) < nq+1 {
		s.qoff = make([]int32, 0, nq+1)
	}
	s.qoff = s.qoff[:0]
	if cap(s.corner) < d {
		s.corner = make(grid.Point, d)
		s.hiBound = make(grid.Point, d)
	}
	s.corner = s.corner[:d]
	s.hiBound = s.hiBound[:d]
}

// addDistinct records a new canonical corner, reusing a pooled point
// when one is available.
func (s *batchScratch) addDistinct(p grid.Point) int32 {
	ci := len(s.distinct)
	if ci < cap(s.distinct) {
		s.distinct = s.distinct[:ci+1]
		if cap(s.distinct[ci]) >= len(p) {
			s.distinct[ci] = s.distinct[ci][:len(p)]
			copy(s.distinct[ci], p)
			return int32(ci)
		}
	} else {
		s.distinct = append(s.distinct, nil)
	}
	s.distinct[ci] = p.Clone()
	return int32(ci)
}

// RangeSumBatch answers len(queries) range sums in one planned
// execution; see the package comment above for the pipeline. It returns
// one value per query, in order. Like RangeSum it is safe for any
// number of concurrent callers (no mutation may run at the same time).
func (t *Tree) RangeSumBatch(queries []Box) ([]int64, error) {
	v, _, _, err := t.RangeSumBatchOps(queries)
	return v, err
}

// RangeSumBatchOps is RangeSumBatch returning, in addition, the
// operation counts of the deduplicated work this batch actually
// performed (merged into the shared counter exactly once) and the
// sharing statistics.
func (t *Tree) RangeSumBatchOps(queries []Box) ([]int64, cube.OpCounter, BatchStats, error) {
	if len(queries) == 0 {
		return nil, cube.OpCounter{}, BatchStats{}, nil
	}
	out := make([]int64, len(queries))
	ops, stats, err := t.RangeSumBatchIntoOps(queries, out)
	if err != nil {
		return nil, ops, stats, err
	}
	return out, ops, stats, nil
}

// RangeSumBatchInto is RangeSumBatch writing the results into out
// (len(out) must equal len(queries)). With a warm prefix cache the call
// is allocation-free: planning state is pooled, cached corners intern no
// keys, and no result slice is allocated — the steady-state batch path
// the allocation-regression tests pin.
func (t *Tree) RangeSumBatchInto(queries []Box, out []int64) error {
	_, _, err := t.RangeSumBatchIntoOps(queries, out)
	return err
}

// RangeSumBatchIntoOps is RangeSumBatchInto returning the deduplicated
// operation counts and sharing statistics; see RangeSumBatchOps.
func (t *Tree) RangeSumBatchIntoOps(queries []Box, out []int64) (cube.OpCounter, BatchStats, error) {
	ops, stats, _, err := t.rangeSumBatchInto(queries, out, nil, obs.NoSpan)
	return ops, stats, err
}

// RangeSumBatchTraceOps is RangeSumBatchIntoOps recording span-level
// observability into sc: one span per pipeline stage (plan, dedup,
// execute, gather — disjoint intervals under parent) annotated with the
// corner, dedup and cache statistics, plus the per-level outer-tree
// node-visit profile of the descents this batch actually paid for
// (cache hits descend nothing). The profile slice is indexed by tree
// level, 0 = root; compare against Levels() × descents for the
// Theorem 1 budget. The traced path allocates; telemetry-off callers
// never reach it.
func (t *Tree) RangeSumBatchTraceOps(queries []Box, out []int64, sc *obs.SpanContext, parent obs.SpanID) (cube.OpCounter, BatchStats, []uint64, error) {
	return t.rangeSumBatchInto(queries, out, sc, parent)
}

// rangeSumBatchInto is the shared batched-execution engine; sc == nil
// is the untraced hot path (no spans, no level profile, allocation-free
// in steady state).
func (t *Tree) rangeSumBatchInto(queries []Box, out []int64, sc *obs.SpanContext, parent obs.SpanID) (cube.OpCounter, BatchStats, []uint64, error) {
	stats := BatchStats{Queries: len(queries)}
	if len(out) != len(queries) {
		return cube.OpCounter{}, stats, nil, fmt.Errorf("core: batch out has %d slots for %d queries", len(out), len(queries))
	}
	if len(queries) == 0 {
		return cube.OpCounter{}, stats, nil, nil
	}
	for i := range queries {
		if err := t.checkRange(queries[i].Lo, queries[i].Hi); err != nil {
			return cube.OpCounter{}, stats, nil, fmt.Errorf("query %d: %w", i, err)
		}
	}

	// Plan: expand, canonicalize, deduplicate. The planning state comes
	// from a pool so steady batch streams plan allocation-free.
	planSpan := obs.NoSpan
	if sc != nil {
		planSpan = sc.Start("batch.plan", parent)
	}
	d := t.d
	masks := 1 << uint(d)
	scr := batchScratchPool.Get().(*batchScratch)
	scr.reset(d, len(queries))
	corner, hiBound := scr.corner, scr.hiBound
	for i := 0; i < d; i++ {
		hiBound[i] = t.origin[i] + t.n - 1
	}
	keyBuf := scr.keyBuf
	for qi := range queries {
		lo, hi := queries[qi].Lo, queries[qi].Hi
		scr.qoff = append(scr.qoff, int32(len(scr.terms)))
		for mask := 0; mask < masks; mask++ {
			parity := false
			empty := false
			for i := 0; i < d; i++ {
				v := hi[i]
				if mask&(1<<uint(i)) != 0 {
					v = lo[i] - 1
					parity = !parity
				}
				if v < t.origin[i] {
					empty = true
					break
				}
				if v > hiBound[i] {
					v = hiBound[i]
				}
				corner[i] = v
			}
			if empty {
				stats.SkippedCorners++
				continue
			}
			stats.CornerTerms++
			var ci int32
			for h := hashCorner(corner); ; h++ {
				known, ok := scr.index[h]
				if !ok {
					ci = scr.addDistinct(corner)
					scr.index[h] = ci
					break
				}
				if pointsEq(scr.distinct[known], corner) {
					ci = known
					break
				}
				// 64-bit hash collision between distinct corners: probe
				// the next slot.
			}
			scr.terms = append(scr.terms, signedTerm{corner: ci, neg: parity})
		}
	}
	scr.qoff = append(scr.qoff, int32(len(scr.terms)))
	distinct := scr.distinct
	stats.DistinctCorners = len(distinct)
	if sc != nil {
		sc.SetAttr(planSpan, "queries", int64(len(queries)))
		sc.SetAttr(planSpan, "corner_terms", int64(stats.CornerTerms))
		sc.SetAttr(planSpan, "skipped_corners", int64(stats.SkippedCorners))
		sc.SetAttr(planSpan, "distinct_corners", int64(stats.DistinctCorners))
		sc.SetAttr(planSpan, "dedup_saved", int64(stats.CornerTerms-stats.DistinctCorners))
		sc.End(planSpan)
	}

	// Serve what the versioned cache already knows. The epoch is stable
	// for the whole batch: mutations require exclusive access, so none
	// can run between this load and the stores below.
	dedupSpan := obs.NoSpan
	if sc != nil {
		dedupSpan = sc.Start("batch.dedup", parent)
	}
	epoch := t.epoch.Load()
	if cap(scr.values) < len(distinct) {
		scr.values = make([]int64, len(distinct))
	}
	values := scr.values[:len(distinct)]
	work := scr.work // cache misses to descend
	t.pcache.mu.Lock()
	cm := t.pcache.sync(epoch)
	for ci, p := range distinct {
		keyBuf = cornerKey(keyBuf[:0], p)
		if v, ok := cm[string(keyBuf)]; ok {
			values[ci] = v
			stats.CacheHits++
		} else {
			work = append(work, int32(ci))
		}
	}
	t.pcache.mu.Unlock()
	stats.CacheMisses = len(work)
	if sc != nil {
		sc.SetAttr(dedupSpan, "cache_hits", int64(stats.CacheHits))
		sc.SetAttr(dedupSpan, "cache_misses", int64(stats.CacheMisses))
		sc.End(dedupSpan)
	}

	// Execute the distinct, uncached prefixes over the lock-free read
	// path with a bounded fan-out; each worker merges its counts once.
	// The closure (and the counter it captures) only exists on the miss
	// path, so a fully cached batch allocates nothing here. The traced
	// path additionally collects the per-level outer-tree visit profile
	// (descents only — cache hits visit nothing), merged atomically so
	// the fan-out stays contention-free.
	execSpan := obs.NoSpan
	if sc != nil {
		execSpan = sc.Start("batch.execute", parent)
	}
	var snap cube.OpCounter
	var levels []uint64
	if sc != nil {
		levels = make([]uint64, t.Levels())
	}
	if len(work) > 0 {
		var merged cube.OpCounter
		batchParallel(len(work), func(wi int) {
			ci := work[wi]
			var ops cube.OpCounter
			if sc != nil {
				lv := make([]uint64, 0, len(levels))
				values[ci] = t.prefixWithOps(distinct[ci], &ops, &lv)
				for i, n := range lv {
					if i < len(levels) {
						atomic.AddUint64(&levels[i], n)
					}
				}
			} else {
				values[ci] = t.prefixWithOps(distinct[ci], &ops, nil)
			}
			merged.AtomicAdd(ops)
		})
		snap = merged.AtomicSnapshot()
	}

	// Install the freshly computed corners, bounded by the cache
	// capacity (arbitrary eviction: hot dashboards re-warm in one
	// batch, and correctness never depends on residency).
	if len(work) > 0 {
		t.pcache.mu.Lock()
		cm = t.pcache.sync(epoch)
		for _, ci := range work {
			if len(cm) >= prefixCacheCap {
				for k := range cm {
					delete(cm, k)
					break
				}
			}
			keyBuf = cornerKey(keyBuf[:0], distinct[ci])
			cm[string(keyBuf)] = values[ci]
		}
		t.pcache.mu.Unlock()
	}
	if sc != nil {
		sc.SetAttr(execSpan, "descents", int64(len(work)))
		sc.SetAttr(execSpan, "node_visits", int64(snap.NodeVisits))
		sc.End(execSpan)
	}

	// Gather the signed terms back into per-query results.
	gatherSpan := obs.NoSpan
	if sc != nil {
		gatherSpan = sc.Start("batch.gather", parent)
	}
	for qi := range out {
		var sum int64
		for _, tm := range scr.terms[scr.qoff[qi]:scr.qoff[qi+1]] {
			if tm.neg {
				sum -= values[tm.corner]
			} else {
				sum += values[tm.corner]
			}
		}
		out[qi] = sum
	}
	if sc != nil {
		sc.SetAttr(gatherSpan, "results", int64(len(out)))
		sc.End(gatherSpan)
	}

	scr.keyBuf, scr.work = keyBuf, work
	batchScratchPool.Put(scr)
	t.ops.AtomicAdd(snap)
	return snap, stats, levels, nil
}

// batchParallel runs fn(0..n-1) across up to GOMAXPROCS goroutines —
// the bounded fan-out for distinct corner descents. Small batches (or a
// single-processor box) stay on the calling goroutine.
func batchParallel(n int, fn func(i int)) {
	workers := n
	if m := runtime.GOMAXPROCS(0); workers > m {
		workers = m
	}
	if workers <= 1 || n < 4 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
