package ddc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/logrec"
	"ddc/internal/obs"
)

// ShardedCube partitions dimension 0 into independently locked Dynamic
// Data Cubes, so updates and queries touching different shards proceed
// concurrently — the scale-out shape for ingest-heavy services (contrast
// Synchronized, which wraps a single cube in one lock).
//
// Shard s owns the dimension-0 slab [s*span, (s+1)*span). Range queries
// fan out to the overlapping shards in parallel (bounded by GOMAXPROCS)
// and add the partial sums — sums are associative, so no coordination
// beyond per-shard locks is needed. Each shard carries a sync.RWMutex:
// reads of one shard run concurrently with each other (the underlying
// DynamicCube read paths are themselves concurrency-safe), and writes to
// different shards never contend. AddBatch groups a batch of deltas by
// shard and applies each shard's share under a single lock acquisition.
// Sharded cubes have fixed domains: growth would change slab boundaries.
type ShardedCube struct {
	dims   []int
	span   int // dimension-0 extent per shard
	shards []shard
}

type shard struct {
	mu sync.RWMutex
	c  *DynamicCube
}

// coordPool recycles shard-local coordinate buffers for the hot paths,
// replacing the per-call slice copies the sequential implementation
// made with append.
var coordPool = sync.Pool{New: func() interface{} { return new([]int) }}

// getCoord returns a pooled []int of length n (contents undefined).
func getCoord(n int) *[]int {
	bp := coordPool.Get().(*[]int)
	if cap(*bp) < n {
		*bp = make([]int, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// be returns the backend label index shared by every shard (all shards
// are built from one Options, so shard 0 speaks for the cube).
func (s *ShardedCube) be() int { return s.shards[0].c.be }

// Backend returns the canonical name of the prefix-sum backend the
// shards' row-sum groups use.
func (s *ShardedCube) Backend() string { return s.shards[0].c.Backend() }

// NewSharded returns a cube over dims split into `shards` slabs along
// dimension 0. The shard count is clamped to dims[0]. AutoGrow is
// rejected.
func NewSharded(dims []int, shards int, opt Options) (*ShardedCube, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadExtent, shards)
	}
	if opt.AutoGrow {
		return nil, fmt.Errorf("%w: sharded cubes cannot AutoGrow", ErrBadExtent)
	}
	if len(dims) == 0 || dims[0] < 1 {
		return nil, fmt.Errorf("%w: need a positive first dimension", ErrBadExtent)
	}
	if shards > dims[0] {
		shards = dims[0]
	}
	span := (dims[0] + shards - 1) / shards
	s := &ShardedCube{dims: append([]int(nil), dims...), span: span}
	for lo := 0; lo < dims[0]; lo += span {
		hi := lo + span
		if hi > dims[0] {
			hi = dims[0]
		}
		sdims := append([]int(nil), dims...)
		sdims[0] = hi - lo
		c, err := NewDynamicWithOptions(sdims, opt)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, shard{c: c})
	}
	return s, nil
}

// BuildSharded bulk-loads a sharded cube from dense row-major values
// (len(values) must equal the product of dims). Dimension 0 is the
// outermost coordinate, so each shard's slab is one contiguous chunk of
// values; the shards are built concurrently through the bottom-up
// parallel construction path, and the result is identical to replaying
// one Add per nonzero cell.
func BuildSharded(dims []int, values []int64, shards int, opt Options) (*ShardedCube, error) {
	s, err := NewSharded(dims, shards, opt)
	if err != nil {
		return nil, err
	}
	stride := 1
	for _, sz := range dims[1:] {
		stride *= sz
	}
	if len(values) != dims[0]*stride {
		return nil, fmt.Errorf("%w: %d values for domain of %d cells", ErrDims, len(values), dims[0]*stride)
	}
	var firstErr firstError
	parallelDo(len(s.shards), func(si int) {
		sh := &s.shards[si]
		lo := si * s.span
		n0 := sh.c.Dims()[0]
		sdims := append([]int(nil), dims...)
		sdims[0] = n0
		c, err := BuildDynamicParallel(sdims, values[lo*stride:(lo+n0)*stride], opt)
		if err != nil {
			firstErr.set(err)
			return
		}
		sh.c = c
	})
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *ShardedCube) Shards() int { return len(s.shards) }

// Dims implements Cube.
func (s *ShardedCube) Dims() []int { return append([]int(nil), s.dims...) }

// ConcurrentReads reports that the sharded cube's read methods are safe
// for any number of concurrent callers (they are — even alongside
// writers, thanks to the per-shard RWMutexes).
func (s *ShardedCube) ConcurrentReads() bool { return true }

// checkPoint validates p against the global domain, with the core
// tree's error taxonomy and wording.
func (s *ShardedCube) checkPoint(p []int) error {
	if len(p) != len(s.dims) {
		return fmt.Errorf("%w: point has %d dims, cube has %d", ErrDims, len(p), len(s.dims))
	}
	for i, v := range p {
		if v < 0 || v >= s.dims[i] {
			return fmt.Errorf("%w: coordinate %d = %d not in [0, %d)", ErrRange, i, v, s.dims[i])
		}
	}
	return nil
}

// checkBox validates the inclusive box [lo, hi] in the core tree's
// order: dimensionality, the bounds of lo, the bounds of hi, then
// emptiness.
func (s *ShardedCube) checkBox(lo, hi []int) error {
	if len(lo) != len(s.dims) || len(hi) != len(s.dims) {
		return fmt.Errorf("%w: box has %d/%d dims, cube has %d", ErrDims, len(lo), len(hi), len(s.dims))
	}
	if err := s.checkPoint(lo); err != nil {
		return err
	}
	if err := s.checkPoint(hi); err != nil {
		return err
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return fmt.Errorf("%w: dimension %d", ErrEmptyRange, i)
		}
	}
	return nil
}

// locate maps a global point to its shard, writing the shard-local
// coordinates into local (len(s.dims), typically pooled).
func (s *ShardedCube) locate(p, local []int) (*shard, error) {
	if err := s.checkPoint(p); err != nil {
		return nil, err
	}
	si := p[0] / s.span
	copy(local, p)
	local[0] = p[0] - si*s.span
	return &s.shards[si], nil
}

// clip writes the part of the validated box [lo, hi] inside slab si
// into llo and lhi, in the shard's local coordinates.
func (s *ShardedCube) clip(si int, lo, hi, llo, lhi []int) {
	copy(llo, lo)
	copy(lhi, hi)
	base := si * s.span
	llo[0] = max(lo[0]-base, 0)
	lhi[0] = min(hi[0]-base, s.span-1)
}

// eachSlab runs fn once per shard the validated box [lo, hi] overlaps,
// concurrently, with the box clipped to that shard's slab (pooled
// coordinates, valid during fn only). A non-zero start records each
// task's queue wait since start. It returns the fan-out width and the
// first error fn reported.
func (s *ShardedCube) eachSlab(lo, hi []int, start time.Time, fn func(sh *shard, llo, lhi []int) error) (int, error) {
	first, last := lo[0]/s.span, hi[0]/s.span
	var firstErr firstError
	parallelDo(last-first+1, func(i int) {
		if !start.IsZero() {
			globalTelemetry.recordQueueWait(time.Since(start))
		}
		lop, hip := getCoord(len(s.dims)), getCoord(len(s.dims))
		defer coordPool.Put(lop)
		defer coordPool.Put(hip)
		s.clip(first+i, lo, hi, *lop, *hip)
		firstErr.set(fn(&s.shards[first+i], *lop, *hip))
	})
	return last - first + 1, firstErr.get()
}

// firstError keeps the first error concurrent tasks report.
type firstError struct{ p atomic.Pointer[error] }

func (f *firstError) set(err error) {
	if err != nil {
		f.p.CompareAndSwap(nil, &err)
	}
}

func (f *firstError) get() error {
	if p := f.p.Load(); p != nil {
		return *p
	}
	return nil
}

// Get implements Cube.
func (s *ShardedCube) Get(p []int) int64 {
	bp := getCoord(len(s.dims))
	defer coordPool.Put(bp)
	sh, err := s.locate(p, *bp)
	if err != nil {
		return 0
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.c.Get(*bp)
}

// Set implements Cube.
func (s *ShardedCube) Set(p []int, v int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: v})
}

// Add implements Cube.
func (s *ShardedCube) Add(p []int, d int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: d})
}

// RangeAdd implements Cube: the box is validated up front (a bad box
// rejects the whole update before any shard mutates), split at slab
// boundaries, and each overlapping shard records its sub-box lazily
// under its own write lock, with the per-shard updates running
// concurrently. Cost is O(d) per overlapping shard — independent of
// the box volume — like the single-cube lazy path underneath.
func (s *ShardedCube) RangeAdd(lo, hi []int, d int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: d})
}

// apply is the one mutator behind Set, Add and RangeAdd. A point lands
// on its shard's cube under the shard's write lock; a box fans out to
// the shards it overlaps and counts as one logical update.
func (s *ShardedCube) apply(m logrec.Mutation) error {
	tel := globalTelemetry
	on := tel.on()
	if m.Kind.Box() {
		if err := s.checkBox(m.Lo, m.Hi); err != nil || m.Delta == 0 {
			return err
		}
		var start time.Time
		if on {
			start = time.Now()
		}
		var merged cube.OpCounter
		width, err := s.eachSlab(m.Lo, m.Hi, start, func(sh *shard, llo, lhi []int) error {
			sh.mu.Lock()
			ops, err := sh.c.t.RangeAddOps(grid.Point(llo), grid.Point(lhi), m.Delta)
			sh.mu.Unlock()
			merged.AtomicAdd(ops)
			return err
		})
		if on {
			tel.recordFanout(width)
			tel.recordUpdate(uOpRangeAdd, s.be(), time.Since(start), merged.AtomicSnapshot())
		}
		if err != nil {
			return err
		}
	} else {
		bp := getCoord(len(s.dims))
		defer coordPool.Put(bp)
		sh, err := s.locate(m.Lo, *bp)
		if err != nil {
			return err
		}
		local := m
		local.Lo = *bp
		sh.mu.Lock()
		err = sh.c.apply(local)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// AddBatch applies a batch of point deltas, implementing BatchAdder.
// The batch is validated up front (a bad point rejects the whole batch
// before any delta lands), grouped by shard, and each shard's share is
// applied under one lock acquisition — with the per-shard groups running
// concurrently. This amortises both locking and scheduling over the
// batch, the bulk-ingest shape for high-rate feeds.
func (s *ShardedCube) AddBatch(batch []PointDelta) error {
	if len(batch) == 0 {
		return nil
	}
	groups := make([][]PointDelta, len(s.shards))
	for bi, pd := range batch {
		if err := s.checkPoint(pd.Point); err != nil {
			return fmt.Errorf("batch[%d]: %w", bi, err)
		}
		si := pd.Point[0] / s.span
		groups[si] = append(groups[si], pd)
	}
	work := make([]int, 0, len(groups))
	for si, g := range groups {
		if len(g) > 0 {
			work = append(work, si)
		}
	}
	tel := globalTelemetry
	on := tel.on()
	var start time.Time
	var merged cube.OpCounter
	if on {
		start = time.Now()
	}
	var firstErr firstError
	parallelDo(len(work), func(wi int) {
		if on {
			tel.recordQueueWait(time.Since(start))
		}
		si := work[wi]
		sh := &s.shards[si]
		bp := getCoord(len(s.dims))
		defer coordPool.Put(bp)
		local := *bp
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, pd := range groups[si] {
			copy(local, pd.Point)
			local[0] = pd.Point[0] - si*s.span
			// Count through the core so the whole batch lands as one
			// logical update, not one "add" per delta.
			ops, err := sh.c.t.AddOps(grid.Point(local), pd.Delta)
			merged.AtomicAdd(ops)
			if err != nil {
				firstErr.set(err)
				return
			}
		}
	})
	if on {
		tel.recordFanout(len(work))
		tel.recordUpdate(uOpBatch, s.be(), time.Since(start), merged)
	}
	return firstErr.get()
}

// FlushPending pushes every shard's outstanding RangeAdd boxes down
// into its tree, each under its own write lock, in parallel.
func (s *ShardedCube) FlushPending() {
	parallelDo(len(s.shards), func(si int) {
		sh := &s.shards[si]
		sh.mu.Lock()
		sh.c.FlushPending()
		sh.mu.Unlock()
	})
}

// parallelDo runs fn(0..n-1) across up to GOMAXPROCS goroutines. For
// n <= 1 (or a single-processor box) it stays on the calling goroutine.
func parallelDo(n int, fn func(i int)) {
	workers := n
	if m := runtime.GOMAXPROCS(0); workers > m {
		workers = m
	}
	if workers <= 1 {
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

// Prefix implements Cube: the dominated region is split at slab
// boundaries and the overlapping shards are queried in parallel, each
// under its own read lock.
func (s *ShardedCube) Prefix(p []int) int64 {
	if len(p) != len(s.dims) {
		return 0
	}
	for _, v := range p {
		if v < 0 {
			return 0
		}
	}
	x := p[0]
	if x >= s.dims[0] {
		x = s.dims[0] - 1
	}
	last := x / s.span
	tel := globalTelemetry
	on := tel.on()
	var start time.Time
	var merged cube.OpCounter
	if on {
		start = time.Now()
	}
	var total int64
	parallelDo(last+1, func(si int) {
		if on {
			tel.recordQueueWait(time.Since(start))
		}
		bp := getCoord(len(s.dims))
		defer coordPool.Put(bp)
		local := *bp
		copy(local, p)
		local[0] = min(x-si*s.span, s.span-1)
		sh := &s.shards[si]
		sh.mu.RLock()
		// Query through the core so the fan-out lands as one logical
		// query with merged counts, not one query per shard.
		v, ops := sh.c.t.PrefixOps(grid.Point(local))
		sh.mu.RUnlock()
		if on {
			merged.AtomicAdd(ops)
		}
		atomic.AddInt64(&total, v)
	})
	if on {
		tel.queryDone(&cubeQuery{op: qOpPrefix, be: s.be(), start: start, lo: p, shards: last + 1, ops: merged})
	}
	return total
}

// RangeSum implements Cube: the box is split at slab boundaries and the
// per-shard partial sums — computed in parallel — are added.
func (s *ShardedCube) RangeSum(lo, hi []int) (int64, error) {
	if err := s.checkBox(lo, hi); err != nil {
		return 0, err
	}
	tel := globalTelemetry
	on := tel.on()
	var start time.Time
	var merged cube.OpCounter
	if on {
		start = time.Now()
	}
	var total int64
	width, err := s.eachSlab(lo, hi, start, func(sh *shard, llo, lhi []int) error {
		sh.mu.RLock()
		// One logical query: merge per-shard counts, count once.
		v, ops, err := sh.c.t.RangeSumOps(grid.Point(llo), grid.Point(lhi))
		sh.mu.RUnlock()
		if on {
			merged.AtomicAdd(ops)
		}
		atomic.AddInt64(&total, v)
		return err
	})
	if on {
		tel.queryDone(&cubeQuery{op: qOpRange, be: s.be(), start: start, err: err, lo: lo, hi: hi, shards: width, ops: merged})
	}
	if err != nil {
		return 0, err
	}
	return total, nil
}

// RangeSumBatch implements Cube through the batch engine; see
// RangeSumBatchTrace.
func (s *ShardedCube) RangeSumBatch(queries []RangeQuery) ([]int64, error) {
	sums, _, err := plannedBatch(s, queries)
	return sums, err
}

// RangeSumBatchStats is RangeSumBatch returning, in addition, the
// batch's sharing statistics summed across the shards it fanned out to.
func (s *ShardedCube) RangeSumBatchStats(queries []RangeQuery) ([]int64, BatchStats, error) {
	return plannedBatch(s, queries)
}

// InvalidatePrefixCache drops every shard's cached corner prefixes; see
// DynamicCube.InvalidatePrefixCache.
func (s *ShardedCube) InvalidatePrefixCache() {
	for i := range s.shards {
		s.shards[i].c.InvalidatePrefixCache()
	}
}

// TreeLevels returns the visit budget depth of one corner descent — the
// maximum over the shards (a short final slab may be shallower).
func (s *ShardedCube) TreeLevels() int {
	max := 0
	for i := range s.shards {
		if l := s.shards[i].c.TreeLevels(); l > max {
			max = l
		}
	}
	return max
}

// RangeSumBatchTrace is the sharded cube's one batch engine, writing
// the results into out (len(out) must equal len(queries)). Every query
// is split at slab boundaries and each overlapping shard receives its
// share of the whole batch as one sub-batch, so the batch fans out to
// the shards once (not once per query) and each shard's engine
// deduplicates corners and consults its versioned prefix cache across
// all the windows touching its slab. Per-query results are gathered by
// adding the shards' partial sums. A bad query rejects the whole batch
// before any shard runs.
//
// A nil sc is the untraced path, as for DynamicCube.RangeSumBatchTrace.
// A live sc records one child span per slab the batch fanned out to
// ("shard.batch", annotated with the shard index, its share of the
// sub-queries and the queue wait between fan-out start and the slab
// task starting), each parenting that shard's planner stage spans; the
// per-shard level profiles are merged after the join (levels[0] = each
// shard's root level).
func (s *ShardedCube) RangeSumBatchTrace(queries []RangeQuery, out []int64, sc *obs.SpanContext, parent obs.SpanID) (BatchStats, []uint64, error) {
	if len(out) != len(queries) {
		return BatchStats{}, nil, fmt.Errorf("ddc: batch out has %d slots for %d queries", len(out), len(queries))
	}
	if len(queries) == 0 {
		return BatchStats{}, nil, nil
	}
	subs := make([][]core.Box, len(s.shards)) // shard-local sub-batches
	owners := make([][]int, len(s.shards))    // owning query per sub-box
	for qi, q := range queries {
		if err := s.checkBox(q.Lo, q.Hi); err != nil {
			return BatchStats{}, nil, fmt.Errorf("query %d: %w", qi, err)
		}
		for si := q.Lo[0] / s.span; si <= q.Hi[0]/s.span; si++ {
			b := core.Box{Lo: make(grid.Point, len(s.dims)), Hi: make(grid.Point, len(s.dims))}
			s.clip(si, q.Lo, q.Hi, b.Lo, b.Hi)
			subs[si] = append(subs[si], b)
			owners[si] = append(owners[si], qi)
		}
	}
	work := make([]int, 0, len(s.shards))
	for si := range subs {
		if len(subs[si]) > 0 {
			work = append(work, si)
		}
	}
	tel := globalTelemetry
	on := tel.on()
	var start time.Time
	if on || sc != nil {
		start = time.Now()
	}
	clear(out)
	var merged cube.OpCounter
	shStats := make([]core.BatchStats, len(s.shards)) // per-owner slots: race-free
	shLevels := make([][]uint64, len(s.shards))
	var firstErr firstError
	parallelDo(len(work), func(wi int) {
		var wait time.Duration
		if !start.IsZero() {
			wait = time.Since(start)
		}
		if on {
			tel.recordQueueWait(wait)
		}
		si := work[wi]
		sh := &s.shards[si]
		slab := sc.Start("shard.batch", parent)
		sc.SetAttr(slab, "shard", int64(si))
		sc.SetAttr(slab, "queries", int64(len(subs[si])))
		sc.SetAttr(slab, "queue_wait_ns", wait.Nanoseconds())
		sums := make([]int64, len(subs[si]))
		sh.mu.RLock()
		ops, st, lv, err := sh.c.t.RangeSumBatchTraceOps(subs[si], sums, sc, slab)
		sh.mu.RUnlock()
		sc.End(slab)
		merged.AtomicAdd(ops)
		shStats[si], shLevels[si] = st, lv
		if err != nil {
			firstErr.set(err)
			return
		}
		for k, v := range sums {
			atomic.AddInt64(&out[owners[si][k]], v)
		}
	})
	if err := firstErr.get(); err != nil {
		return BatchStats{}, nil, err
	}
	stats := BatchStats{Queries: len(queries)}
	var levels []uint64
	for si := range shStats {
		stats.merge(shStats[si])
		for i, n := range shLevels[si] {
			for len(levels) <= i {
				levels = append(levels, 0)
			}
			levels[i] += n
		}
	}
	if on {
		tel.queryDone(&cubeQuery{op: qOpBatchRange, be: s.be(), start: start, batch: queries, shards: len(work),
			ops: merged.AtomicSnapshot(), stats: stats, sc: sc})
	}
	return stats, levels, nil
}

// Total implements Cube, summing the shards in parallel.
func (s *ShardedCube) Total() int64 {
	var total int64
	parallelDo(len(s.shards), func(si int) {
		sh := &s.shards[si]
		sh.mu.RLock()
		v := sh.c.Total()
		sh.mu.RUnlock()
		atomic.AddInt64(&total, v)
	})
	return total
}

// Ops implements Cube, aggregating across shards; safe to call while
// queries and updates are in flight.
func (s *ShardedCube) Ops() OpCounts {
	var out OpCounts
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		o := sh.c.Ops()
		sh.mu.RUnlock()
		out.QueryCells += o.QueryCells
		out.UpdateCells += o.UpdateCells
		out.NodeVisits += o.NodeVisits
	}
	return out
}

// ResetOps implements Cube.
func (s *ShardedCube) ResetOps() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.c.ResetOps()
		sh.mu.Unlock()
	}
}
