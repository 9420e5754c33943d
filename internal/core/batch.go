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
//     corners below the logical origin (empty regions); checkRange has
//     bounded every hi by the domain, so no corner needs clamping;
//  2. deduplicate the corners across the entire batch, so each
//     distinct prefix descends the tree exactly once;
//  3. serve corners from the epoch-versioned prefix cache when the tree
//     has not mutated since they were last computed, and execute the
//     remaining distinct corners over the lock-free read path on one
//     pooled query scratch — fanned out over GOMAXPROCS goroutines,
//     one scratch each, only above a measured crossover
//     (batchFanoutMin);
//  4. gather the signed terms back into per-query results, adding the
//     pending range updates (RangeAdd) in one pass per query box.
//
// Corner values — descended or cached — are tree-only: pending boxes
// never enter a corner. Operation counts reflect the deduplicated work:
// a corner descended once is counted once no matter how many queries
// consume it, a cache hit costs nothing, and each query box pays one
// pending term per pending box it meets. The caller attributes the
// batch to its logical queries (see the ddc package's telemetry
// recording).

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
	// DistinctCorners is the number of distinct corners the
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

// prefixCache memoises tree-only corner prefix values between
// batches. All entries belong to one mutation epoch; a batch under a
// newer epoch drops everything, so a single atomic epoch bump on any
// mutation is the entire invalidation protocol. The mutex only
// coordinates batches with each other — mutations never touch the
// cache.
//
// The cache is keyed by the planner's corner hash: m maps a hash slot
// to an entry, and every entry keeps its corner's coordinates, so a hit
// is checked against the corner it answers and a 64-bit collision
// probes the next slot (as in the planner). Dropping the entries keeps
// the map's buckets and the slices' capacity, so even a cache that is
// invalidated before every batch allocates nothing in steady state.
type prefixCache struct {
	mu     sync.Mutex
	epoch  uint64
	m      map[uint64]int32 // hash slot -> entry
	coords []int            // entry e's corner is coords[e*d : (e+1)*d]
	vals   []int64          // entry e's prefix value
}

// sync moves the cache to epoch, dropping the entries of any other
// epoch, and reports whether it holds entries a lookup could hit.
func (c *prefixCache) sync(epoch uint64) bool {
	if c.m != nil && c.epoch == epoch {
		return len(c.vals) != 0
	}
	if c.m == nil {
		c.m = make(map[uint64]int32, 64)
	} else {
		clear(c.m)
	}
	c.coords, c.vals = c.coords[:0], c.vals[:0]
	c.epoch = epoch
	return false
}

// find returns the entry holding corner p, whose hash is h, or the
// first free hash slot of p's probe sequence.
func (c *prefixCache) find(p grid.Point, h uint64) (slot uint64, e int32, ok bool) {
	d := len(p)
	for ; ; h++ {
		e, ok := c.m[h]
		if !ok {
			return h, 0, false
		}
		if pointsEq(c.coords[int(e)*d:int(e+1)*d], p) {
			return h, e, true
		}
	}
}

// insert records v as the prefix value of corner p (hash h). A full
// cache evicts an arbitrary entry and reuses its storage: hot
// dashboards re-warm in one batch, and correctness never depends on
// residency.
func (c *prefixCache) insert(p grid.Point, h uint64, v int64) {
	slot, e, ok := c.find(p, h)
	if ok {
		c.vals[e] = v
		return
	}
	if len(c.vals) < prefixCacheCap {
		e = int32(len(c.vals))
		c.coords = append(c.coords, p...)
		c.vals = append(c.vals, v)
	} else {
		for k, old := range c.m {
			delete(c.m, k)
			e = old
			break
		}
		copy(c.coords[int(e)*len(p):], p)
		c.vals[e] = v
	}
	c.m[slot] = e
}

// hashCorner mixes a corner's coordinates one word at a time (a
// multiply and an xor-shift per coordinate). The planner's dedup index
// and the prefix cache are both keyed by this hash, so steady-state
// batches intern nothing — map buckets survive clear, uint64 keys
// allocate nothing. Both resolve collisions by probing successive hash
// values with full point comparison, so a 64-bit collision costs a
// probe, never a wrong answer.
func hashCorner(p grid.Point) uint64 {
	h := uint64(len(p))
	for _, v := range p {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
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
// steady stream of batches plans allocation-free. With a caller-
// provided result slice (RangeSumBatchTraceOps) an entire untraced batch
// below the fan-out crossover runs with zero allocations, whether its
// corners hit the prefix cache or descend.
type batchScratch struct {
	index    map[uint64]int32 // corner hash slot -> index into distinct
	distinct []grid.Point     // distinct corners; points are reused
	hashes   []uint64         // hashCorner of each distinct corner
	terms    []signedTerm     // all queries' terms, flattened
	qoff     []int32          // terms[qoff[i]:qoff[i+1]] belongs to query i
	values   []int64          // one resolved value per distinct corner
	work     []int32          // distinct indices missing from the cache
	corner   grid.Point
}

var batchScratchPool = sync.Pool{New: func() interface{} {
	return &batchScratch{index: make(map[uint64]int32, 64)}
}}

// reset prepares the scratch for a d-dimensional batch of nq queries.
func (s *batchScratch) reset(d, nq int) {
	clear(s.index)
	s.distinct = s.distinct[:0]
	s.hashes = s.hashes[:0]
	s.terms = s.terms[:0]
	s.work = s.work[:0]
	if cap(s.qoff) < nq+1 {
		s.qoff = make([]int32, 0, nq+1)
	}
	s.qoff = s.qoff[:0]
	s.corner = resize(s.corner, d)
}

// addDistinct records a new distinct corner with hash h, reusing a
// pooled point when one is available.
func (s *batchScratch) addDistinct(p grid.Point, h uint64) int32 {
	ci := len(s.distinct)
	s.hashes = append(s.hashes, h)
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

// RangeSumBatchOps answers len(queries) range sums in one planned
// execution (see the package comment above for the pipeline), returning
// one value per query in order, the operation counts of the
// deduplicated work this batch actually performed (merged into the
// shared counter exactly once) and the sharing statistics. Like
// RangeSum it is safe for any number of concurrent callers (no
// mutation may run at the same time).
func (t *Tree) RangeSumBatchOps(queries []Box) ([]int64, cube.OpCounter, BatchStats, error) {
	if len(queries) == 0 {
		return nil, cube.OpCounter{}, BatchStats{}, nil
	}
	out := make([]int64, len(queries))
	ops, stats, _, err := t.RangeSumBatchTraceOps(queries, out, nil, obs.NoSpan)
	if err != nil {
		return nil, ops, stats, err
	}
	return out, ops, stats, nil
}

// RangeSumBatchTraceOps is the batched-execution engine, writing the
// results into out (len(out) must equal len(queries)). A nil sc is the
// untraced hot path: below the fan-out crossover it is allocation-free
// in steady state, with a warm or a cold prefix cache — planning and
// query scratch are pooled, the cache reuses its storage and the caller
// owns the results. A live sc records one span per pipeline stage
// (plan, dedup, execute, gather — disjoint intervals under parent)
// annotated with the corner, dedup and cache statistics, and the call
// returns the per-level outer-tree node-visit profile of the descents
// this batch actually paid for (cache hits descend nothing), indexed by
// tree level, 0 = root; compare it against Levels() × descents for the
// Theorem 1 budget. The traced path allocates.
func (t *Tree) RangeSumBatchTraceOps(queries []Box, out []int64, sc *obs.SpanContext, parent obs.SpanID) (cube.OpCounter, BatchStats, []uint64, error) {
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

	// Plan: expand and deduplicate. The planning state comes
	// from a pool so steady batch streams plan allocation-free.
	planSpan := sc.Start("batch.plan", parent)
	d := t.d
	masks := 1 << uint(d)
	scr := batchScratchPool.Get().(*batchScratch)
	scr.reset(d, len(queries))
	corner := scr.corner
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
				corner[i] = v
			}
			if empty {
				stats.SkippedCorners++
				continue
			}
			stats.CornerTerms++
			var ci int32
			h := hashCorner(corner)
			for slot := h; ; slot++ {
				known, ok := scr.index[slot]
				if !ok {
					ci = scr.addDistinct(corner, h)
					scr.index[slot] = ci
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
	sc.SetAttr(planSpan, "queries", int64(len(queries)))
	sc.SetAttr(planSpan, "corner_terms", int64(stats.CornerTerms))
	sc.SetAttr(planSpan, "skipped_corners", int64(stats.SkippedCorners))
	sc.SetAttr(planSpan, "distinct_corners", int64(stats.DistinctCorners))
	sc.SetAttr(planSpan, "dedup_saved", int64(stats.CornerTerms-stats.DistinctCorners))
	sc.End(planSpan)

	// Serve what the versioned cache already knows; a cache still on an
	// older epoch (or empty) would miss every corner, so the lookups are
	// skipped. The epoch is stable for the whole batch: mutations
	// require exclusive access, so none can run between this load and
	// the stores below.
	dedupSpan := sc.Start("batch.dedup", parent)
	epoch := t.epoch.Load()
	if cap(scr.values) < len(distinct) {
		scr.values = make([]int64, len(distinct))
	}
	values := scr.values[:len(distinct)]
	work := scr.work // cache misses to descend
	pc := &t.pcache
	pc.mu.Lock()
	if pc.sync(epoch) {
		for ci, p := range distinct {
			if _, e, ok := pc.find(p, scr.hashes[ci]); ok {
				values[ci] = pc.vals[e]
				stats.CacheHits++
			} else {
				work = append(work, int32(ci))
			}
		}
	} else {
		for ci := range distinct {
			work = append(work, int32(ci))
		}
	}
	pc.mu.Unlock()
	stats.CacheMisses = len(work)
	sc.SetAttr(dedupSpan, "cache_hits", int64(stats.CacheHits))
	sc.SetAttr(dedupSpan, "cache_misses", int64(stats.CacheMisses))
	sc.End(dedupSpan)

	// Execute the distinct, uncached prefixes over the lock-free read
	// path. The traced path additionally collects the per-level
	// outer-tree visit profile (descents only — cache hits visit
	// nothing).
	execSpan := sc.Start("batch.execute", parent)
	var levels []uint64
	if sc != nil {
		levels = make([]uint64, t.Levels())
	}
	var ops cube.OpCounter
	if len(work) > 0 {
		ops = t.descendCorners(distinct, work, values, levels)
		pc.mu.Lock()
		pc.sync(epoch)
		for _, ci := range work {
			pc.insert(distinct[ci], scr.hashes[ci], values[ci])
		}
		pc.mu.Unlock()
	}
	sc.SetAttr(execSpan, "descents", int64(len(work)))
	sc.SetAttr(execSpan, "node_visits", int64(ops.NodeVisits))
	sc.End(execSpan)

	// Gather the signed terms back into per-query results, adding the
	// pending range updates once per query box.
	gatherSpan := sc.Start("batch.gather", parent)
	pending := t.pending.Len() != 0
	for qi := range out {
		var sum int64
		for _, tm := range scr.terms[scr.qoff[qi]:scr.qoff[qi+1]] {
			if tm.neg {
				sum -= values[tm.corner]
			} else {
				sum += values[tm.corner]
			}
		}
		if pending {
			sum += t.pendingSum(queries[qi].Lo, queries[qi].Hi, &ops)
		}
		out[qi] = sum
	}
	sc.SetAttr(gatherSpan, "results", int64(len(out)))
	sc.End(gatherSpan)

	scr.work = work
	batchScratchPool.Put(scr)
	t.ops.AtomicAdd(ops)
	return ops, stats, levels, nil
}

// batchFanoutMin is the number of cache-missing corners from which a
// batch spreads its descents over up to GOMAXPROCS goroutines; smaller
// batches descend on the calling goroutine, on one query scratch. It
// is the measured crossover: cold batches of random boxes on a dense
// 1024² cube (2 vCPUs, GOMAXPROCS 2, 6 runs per size) took the same
// time either way at 250–770 distinct misses (510: 241–298 µs
// sequential, 263–287 µs fanned out), and the fan-out first won
// clearly at 1023 misses (841–915 → 664–837 µs, about −15%), growing
// to about −30% at 2046 and −45% at 4081. A dashboard (16 windows,
// ~34 corners) never fans out.
const batchFanoutMin = 1024

// fanoutChunk is how many consecutive misses a fan-out worker claims at
// a time: large enough that claiming is rare, small enough that the
// workers finish together.
const fanoutChunk = 128

// descendCorners computes values[ci] for every corner index in work and
// returns the operation counts of those descents. Each goroutine runs
// its share on one pooled query scratch — corners written as internal
// coordinates, counts (and, when levels is non-nil, the per-level visit
// profile) accumulated in the scratch and merged once per goroutine.
// Every corner lies inside the domain (checkRange bounds hi, the
// planner skipped corners below the origin), so none needs clamping.
func (t *Tree) descendCorners(distinct []grid.Point, work []int32, values []int64, levels []uint64) cube.OpCounter {
	workers := min(runtime.GOMAXPROCS(0), (len(work)+fanoutChunk-1)/fanoutChunk)
	if len(work) < batchFanoutMin || workers <= 1 {
		s := t.cornerScratch(levels)
		t.prefixCorners(s, distinct, work, values)
		var ops cube.OpCounter
		s.release(&ops, levels)
		return ops
	}
	var (
		next atomic.Int64 // end of the last claimed chunk
		mu   sync.Mutex
		ops  cube.OpCounter
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := t.cornerScratch(levels)
			for {
				end := int(next.Add(fanoutChunk))
				if end-fanoutChunk >= len(work) {
					break
				}
				t.prefixCorners(s, distinct, work[end-fanoutChunk:min(end, len(work))], values)
			}
			mu.Lock()
			s.release(&ops, levels)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ops
}

// prefixCorners computes values[ci] for the corner indices in work on
// the one query scratch s.
func (t *Tree) prefixCorners(s *queryScratch, distinct []grid.Point, work []int32, values []int64) {
	for _, ci := range work {
		for i, v := range distinct[ci] {
			s.q[i] = v - t.origin[i]
		}
		values[ci] = t.prefixAt(s)
	}
}

// cornerScratch checks out the query scratch a batch's descents run
// on, switching its per-level visit profile on for traced batches
// (levels non-nil). Nested group trees descend on scratches of their
// own, so the profile counts only the outer tree's Theorem 1 descent —
// what the EXPLAIN budget check compares against one visit per level
// per corner.
func (t *Tree) cornerScratch(levels []uint64) *queryScratch {
	s := getQueryScratch(t.d)
	if levels != nil {
		s.lvOn = true
		s.lv = s.lv[:0]
	}
	return s
}

// release adds the scratch's counts into ops and its per-level profile
// into levels (levels beyond len(levels) are dropped), then returns it
// to the pool.
func (s *queryScratch) release(ops *cube.OpCounter, levels []uint64) {
	ops.Add(s.ops)
	if s.lvOn {
		for i, n := range s.lv {
			if i < len(levels) {
				levels[i] += n
			}
		}
	}
	putQueryScratch(s)
}
