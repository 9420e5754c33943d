package ddc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ddc/internal/grid"
	"ddc/internal/logrec"
	"ddc/internal/obs"
)

// The buffered write front is the sustained-write half of the engine:
// an LSM-flavored in-memory delta absorbs Add/Set/RangeAdd at hash-map
// speed, and a background merger drains it into the tree in batches
// through the existing AddBatch / lazy-box paths — amortizing the
// O(log^d n) descents, coalescing repeated-cell writes, and taking the
// tree's exclusive lock once per drain instead of once per op. Queries
// compose tree + delta exactly (boxes through grid.Boxes, the same
// one-pass composition as internal/core's pending list), so reads are
// strictly read-your-writes: a mutation is visible to every query that
// starts after it returns.

// ErrBufferedClosed is returned by mutations on a closed Buffered.
var ErrBufferedClosed = errors.New("ddc: buffered cube is closed")

// BufferedOptions tunes a Buffered front. The zero value selects the
// defaults.
type BufferedOptions struct {
	// MaxDelta is the delta depth (point entries + boxes) that wakes the
	// background merger; it bounds the per-query composition cost.
	// Default 256. Two bounds derive from it: at 4*MaxDelta a writer
	// joins the drain inline (backpressure) instead of letting the delta
	// grow without bound, and MaxDelta/8 buffered boxes (at least 1;
	// each adds O(d) to every query) also wake the merger. While a
	// checkpoint freeze is in progress the inline drain is skipped
	// (writers are never stalled by a streaming checkpoint), so
	// 4*MaxDelta is a soft cap during freezes.
	MaxDelta int
	// FlushInterval is the background merger's idle drain period.
	// Default 1ms; negative disables the merger entirely (drains then
	// happen only at 4*MaxDelta and through explicit Drain calls).
	FlushInterval time.Duration
}

func (o *BufferedOptions) defaults() {
	if o.MaxDelta <= 0 {
		o.MaxDelta = 256
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = time.Millisecond
	}
}

// deltaBuf is one generation of the in-memory delta: point deltas in an
// insertion-ordered slab with a packed-coordinate index (so repeated
// writes to a cell coalesce into one entry), plus buffered boxes in the
// core tree's pending-box representation (grid.Boxes: identical boxes
// merge, cancelled ones drop).
type deltaBuf struct {
	idx   map[string]int
	slab  []PointDelta
	boxes grid.Boxes
	ops   uint64 // raw mutations absorbed, coalesced or not
}

func newDeltaBuf() *deltaBuf {
	return &deltaBuf{idx: make(map[string]int)}
}

func (d *deltaBuf) depth() int { return len(d.slab) + d.boxes.Len() }

func (d *deltaBuf) empty() bool { return d.depth() == 0 }

// packCoords appends the fixed-width little-endian encoding of p to key
// (the delta index's map key).
func packCoords(key []byte, p []int) []byte {
	for _, v := range p {
		key = binary.LittleEndian.AppendUint64(key, uint64(int64(v)))
	}
	return key
}

// inBox reports lo <= q <= hi componentwise.
func inBox(q, lo, hi []int) bool {
	for i, v := range q {
		if v < lo[i] || v > hi[i] {
			return false
		}
	}
	return true
}

// deltaGet returns the delta at point p: the coalesced point entry plus
// every buffered box containing p. terms counts contributing entries
// (for the EXPLAIN/telemetry "delta" contribution kind). Nil-safe.
func deltaGet(d *deltaBuf, key []byte, p []int) (sum int64, terms int) {
	if d == nil {
		return 0, 0
	}
	if i, ok := d.idx[string(key)]; ok && d.slab[i].Delta != 0 {
		sum += d.slab[i].Delta
		terms++
	}
	bv, n := d.boxes.Sum(p, p)
	return sum + bv, terms + n
}

// deltaRange returns the delta contribution to the range sum over the
// inclusive box [lo, hi]: the point entries inside it plus one pass over
// the boxes. Prefix and Total are the ranges [bounds lo, p] and the
// whole domain (every entry lies inside the bounds). Nil-safe.
func deltaRange(d *deltaBuf, lo, hi []int) (sum int64, terms int) {
	if d == nil {
		return 0, 0
	}
	for i := range d.slab {
		e := &d.slab[i]
		if e.Delta != 0 && inBox(e.Point, lo, hi) {
			sum += e.Delta
			terms++
		}
	}
	bv, n := d.boxes.Sum(lo, hi)
	return sum + bv, terms + n
}

// bufBounds is the cached logical domain (inclusive lo, exclusive hi)
// mutations validate against; replaced atomically when AutoGrow extends
// the inner cube.
type bufBounds struct {
	lo, hi []int
}

// Buffered wraps a Cube with the delta-buffer write front. Mutations
// land in the in-memory delta (after full validation, so an accepted op
// is guaranteed to drain cleanly); queries compose tree + delta; the
// background merger drains the delta into the inner cube in batches.
//
// All methods are safe for any number of concurrent callers — readers
// run in parallel with writers and with each other, and only the drain
// itself takes the tree exclusively. The wrapped cube must not be used
// directly afterwards.
//
// Lock order (never acquired in reverse): drainMu -> applyMu -> dmu.
type Buffered struct {
	inner Cube
	dyn   *DynamicCube // non-nil when inner is a DynamicCube
	d     int
	opts  BufferedOptions
	// hardMax (4*MaxDelta, or MaxDelta where that overflows) is the
	// depth at which a writer drains inline; maxBoxes (MaxDelta/8, at
	// least 1) the box count that wakes the merger.
	hardMax, maxBoxes int

	autoGrow bool
	bounds   atomic.Pointer[bufBounds]

	// drainMu serializes drains (merger, inline backpressure, Drain,
	// Freeze). applyMu guards the inner cube: queries hold it shared,
	// the drain's tree application and AutoGrow growth hold it
	// exclusively. dmu guards the delta generations: writers exclusive
	// (short — one hash-map op), readers shared.
	drainMu sync.Mutex
	applyMu sync.RWMutex
	dmu     sync.RWMutex
	active  *deltaBuf
	frozen  *deltaBuf // the generation being drained, still query-visible

	// key is the coordinate-packing scratch for writers (guarded by the
	// exclusive dmu).
	key []byte

	buffered     atomic.Uint64
	coalesced    atomic.Uint64
	drains       atomic.Uint64
	drainedPts   atomic.Uint64
	drainedBoxes atomic.Uint64

	frozenForCkpt atomic.Bool
	closed        atomic.Bool
	failure       atomic.Pointer[error]

	stop chan struct{}
	wake chan struct{}
	done chan struct{}
}

// NewBuffered wraps inner with a delta-buffer write front and starts
// the background merger (unless opts.FlushInterval < 0). Call Close to
// stop the merger and drain the remaining delta.
func NewBuffered(inner Cube, opts BufferedOptions) *Buffered {
	opts.defaults()
	b := &Buffered{
		inner:    inner,
		d:        len(inner.Dims()),
		opts:     opts,
		hardMax:  max(opts.MaxDelta, 4*opts.MaxDelta),
		maxBoxes: max(1, opts.MaxDelta/8),
		active:   newDeltaBuf(),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if dc, ok := inner.(*DynamicCube); ok {
		b.dyn = dc
		b.autoGrow = dc.Options().AutoGrow
	}
	b.refreshBounds()
	globalTelemetry.registerDeltaSource(b, b.DeltaDepth)
	if opts.FlushInterval > 0 {
		go b.merger()
	} else {
		close(b.done)
	}
	return b
}

// refreshBounds re-caches the validation domain from the inner cube;
// callers that grew the cube hold applyMu exclusively.
func (b *Buffered) refreshBounds() {
	var bd bufBounds
	if b.dyn != nil {
		bd.lo, bd.hi = b.dyn.Bounds()
	} else {
		dims := b.inner.Dims()
		bd.lo = make([]int, len(dims))
		bd.hi = dims
	}
	b.bounds.Store(&bd)
}

// Bounds returns the current logical domain as an inclusive low corner
// and exclusive high corner.
func (b *Buffered) Bounds() (lo, hi []int) {
	bd := b.bounds.Load()
	return cloneInts(bd.lo), cloneInts(bd.hi)
}

// inclusiveBounds returns the current domain with an inclusive high
// corner, the box Total sums.
func (b *Buffered) inclusiveBounds() (lo, hi []int) {
	lo, hi = b.Bounds()
	for i := range hi {
		hi[i]--
	}
	return lo, hi
}

// checkPoint validates p against the cached bounds, growing an AutoGrow
// inner cube to include it — so buffered coordinates are always valid
// when the drain applies them, and query validation matches the drained
// cube exactly.
func (b *Buffered) checkPoint(p []int) error {
	if len(p) != b.d {
		return fmt.Errorf("%w: point has %d dims, cube has %d", ErrDims, len(p), b.d)
	}
	for {
		bd := b.bounds.Load()
		oob := -1
		for i, v := range p {
			if v < bd.lo[i] || v >= bd.hi[i] {
				oob = i
				break
			}
		}
		if oob < 0 {
			return nil
		}
		if !b.autoGrow {
			return fmt.Errorf("%w: coordinate %d = %d not in [%d, %d)",
				ErrRange, oob, p[oob], bd.lo[oob], bd.hi[oob])
		}
		b.applyMu.Lock()
		err := b.dyn.GrowToInclude(p)
		b.refreshBounds()
		b.applyMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// checkBox validates a RangeAdd box with the same error taxonomy and
// order as the core tree: dims, bounds (growing under AutoGrow), then
// emptiness.
func (b *Buffered) checkBox(lo, hi []int) error {
	if len(lo) != b.d || len(hi) != b.d {
		return fmt.Errorf("%w: box has %d/%d dims, cube has %d", ErrDims, len(lo), len(hi), b.d)
	}
	if err := b.checkPoint(lo); err != nil {
		return err
	}
	if err := b.checkPoint(hi); err != nil {
		return err
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return ErrEmptyRange
		}
	}
	return nil
}

// Err returns the error that poisoned the buffer (nil while healthy).
// A drain failure is terminal — the tree may hold a partially applied
// batch — so, like a poisoned WAL, every later mutation fails fast and
// the caller must recover from durable state.
func (b *Buffered) Err() error {
	if e := b.failure.Load(); e != nil {
		return *e
	}
	return nil
}

func (b *Buffered) poison(err error) {
	b.failure.CompareAndSwap(nil, &err)
}

func (b *Buffered) writable() error {
	if b.closed.Load() {
		return ErrBufferedClosed
	}
	return b.Err()
}

// addPoint coalesces one point delta, whose packed coordinates are
// key, into the generation and reports whether it merged into an
// existing entry. The caller holds dmu exclusively.
func (d *deltaBuf) addPoint(key []byte, p []int, delta int64) (coalesced bool) {
	d.ops++
	if i, ok := d.idx[string(key)]; ok {
		d.slab[i].Delta += delta
		return true
	}
	d.idx[string(key)] = len(d.slab)
	d.slab = append(d.slab, PointDelta{Point: cloneInts(p), Delta: delta})
	return false
}

// afterWrite accounts writes buffered mutations, coalesced of which
// merged into an existing entry, then applies the drain policy for the
// post-write depth.
func (b *Buffered) afterWrite(writes, coalesced, depth, boxes int) {
	b.buffered.Add(uint64(writes))
	if coalesced != 0 {
		b.coalesced.Add(uint64(coalesced))
	}
	if tel := globalTelemetry; tel.on() {
		tel.recordDeltaBuffered(writes, coalesced)
	}
	if depth >= b.hardMax && !b.frozenForCkpt.Load() {
		// Backpressure: the writer performs a drain itself so the delta
		// depth — and with it the per-query composition cost — stays
		// bounded. TryLock, not Lock: if a drain (or a checkpoint
		// freeze) already holds drainMu, the writer must not stall
		// behind it — the in-flight drain is shrinking the delta anyway.
		b.tryDrain()
		return
	}
	if depth >= b.opts.MaxDelta || boxes >= b.maxBoxes {
		b.wakeMerger()
	}
}

func (b *Buffered) wakeMerger() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Add implements Cube: validate, then buffer. The delta is visible to
// every query that starts after Add returns.
func (b *Buffered) Add(p []int, delta int64) error {
	return b.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: delta})
}

// Set implements Cube. Assignment is converted to an additive delta
// against the current composed value (tree + frozen + active, boxes
// included), read and replaced atomically with respect to every other
// writer — so drained state is bit-exact with applying the Set directly.
func (b *Buffered) Set(p []int, v int64) error {
	return b.apply(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: v})
}

// RangeAdd implements Cube: the box is validated up front and buffered
// in O(d) — boxes reuse the pending-box representation and merge with
// an identical outstanding box, so an update and its exact inverse
// leave no residue.
func (b *Buffered) RangeAdd(lo, hi []int, delta int64) error {
	return b.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: delta})
}

// apply is the one mutator behind Add, Set and RangeAdd: validate m
// (growing an AutoGrow inner cube), buffer it in the active generation,
// then apply the drain policy.
func (b *Buffered) apply(m logrec.Mutation) error {
	if err := b.writable(); err != nil {
		return err
	}
	box := m.Kind.Box()
	var err error
	if box {
		err = b.checkBox(m.Lo, m.Hi)
	} else {
		err = b.checkPoint(m.Lo)
	}
	if err != nil || (box && m.Delta == 0) {
		return err
	}
	set := m.Kind == logrec.Set
	if set {
		// Hold the tree still while the composed value is read.
		b.applyMu.RLock()
	}
	b.dmu.Lock()
	a := b.active
	var merged bool
	if box {
		a.ops++
		merged = a.boxes.Add(m.Lo, m.Hi, m.Delta)
	} else {
		b.key = packCoords(b.key[:0], m.Lo)
		delta := m.Delta
		if set {
			dv, _ := deltaGet(b.active, b.key, m.Lo)
			fv, _ := deltaGet(b.frozen, b.key, m.Lo)
			delta -= b.inner.Get(m.Lo) + dv + fv
		}
		merged = a.addPoint(b.key, m.Lo, delta)
	}
	depth, boxes := a.depth(), a.boxes.Len()
	b.dmu.Unlock()
	if set {
		b.applyMu.RUnlock()
	}
	coalesced := 0
	if merged {
		coalesced = 1
	}
	b.afterWrite(1, coalesced, depth, boxes)
	return nil
}

// AddBatch implements BatchAdder: every delta is validated and buffered
// in order under one lock acquisition, with the same accounting and
// drain policy as Add. On the first invalid point the batch stops and
// the error reports its index; earlier deltas remain buffered (matching
// DynamicCube.AddBatch's semantics).
func (b *Buffered) AddBatch(batch []PointDelta) error {
	if err := b.writable(); err != nil {
		return err
	}
	var failed error
	n := len(batch)
	for i := range batch {
		if err := b.checkPoint(batch[i].Point); err != nil {
			// Buffer the valid prefix and report the failing index,
			// matching DynamicCube.AddBatch's semantics exactly.
			failed = fmt.Errorf("batch[%d]: %w", i, err)
			n = i
			break
		}
	}
	b.dmu.Lock()
	a := b.active
	coalesced := 0
	for i := 0; i < n; i++ {
		b.key = packCoords(b.key[:0], batch[i].Point)
		if a.addPoint(b.key, batch[i].Point, batch[i].Delta) {
			coalesced++
		}
	}
	depth, boxes := a.depth(), a.boxes.Len()
	b.dmu.Unlock()
	b.afterWrite(n, coalesced, depth, boxes)
	return failed
}

// ---------------------------------------------------------------------
// Queries: tree + frozen + active, under shared locks only.

// Dims implements Cube.
func (b *Buffered) Dims() []int { return b.inner.Dims() }

// ConcurrentReads reports that reads tolerate any number of concurrent
// callers — including concurrent writers, which the DynamicCube alone
// does not allow (the delta front provides the exclusion the tree
// needs).
func (b *Buffered) ConcurrentReads() bool { return true }

// composeDone records n composed delta terms (the "delta" contribution
// kind) when telemetry is enabled.
func composeDone(terms int) {
	if terms > 0 {
		if tel := globalTelemetry; tel.on() {
			tel.recordDeltaCompose(terms)
		}
	}
}

// Get implements Cube.
func (b *Buffered) Get(p []int) int64 {
	if len(p) != b.d {
		return 0
	}
	var kb [128]byte
	var key []byte
	if 8*b.d <= len(kb) {
		key = packCoords(kb[:0], p)
	} else {
		key = packCoords(nil, p)
	}
	b.applyMu.RLock()
	v := b.inner.Get(p)
	b.dmu.RLock()
	dv, n := deltaGet(b.active, key, p)
	v += dv
	dv, n2 := deltaGet(b.frozen, key, p)
	v += dv
	b.dmu.RUnlock()
	b.applyMu.RUnlock()
	composeDone(n + n2)
	return v
}

// Prefix implements Cube.
func (b *Buffered) Prefix(p []int) int64 {
	if len(p) != b.d {
		return 0
	}
	b.applyMu.RLock()
	v := b.inner.Prefix(p)
	lo := b.bounds.Load().lo
	b.dmu.RLock()
	dv, n := deltaRange(b.active, lo, p)
	v += dv
	dv, n2 := deltaRange(b.frozen, lo, p)
	v += dv
	b.dmu.RUnlock()
	b.applyMu.RUnlock()
	composeDone(n + n2)
	return v
}

// RangeSum implements Cube.
func (b *Buffered) RangeSum(lo, hi []int) (int64, error) {
	b.applyMu.RLock()
	v, err := b.inner.RangeSum(lo, hi)
	if err != nil {
		b.applyMu.RUnlock()
		return 0, err
	}
	b.dmu.RLock()
	dv, n := deltaRange(b.active, lo, hi)
	v += dv
	dv, n2 := deltaRange(b.frozen, lo, hi)
	v += dv
	b.dmu.RUnlock()
	b.applyMu.RUnlock()
	composeDone(n + n2)
	return v, nil
}

// RangeSumBatch implements Cube through the batch engine; see
// RangeSumBatchTrace.
func (b *Buffered) RangeSumBatch(queries []RangeQuery) ([]int64, error) {
	sums, _, err := plannedBatch(b, queries)
	return sums, err
}

// RangeSumBatchStats is RangeSumBatch surfacing the inner batch
// engine's planner statistics (available when the inner cube plans
// batches; only Queries is set otherwise).
func (b *Buffered) RangeSumBatchStats(queries []RangeQuery) ([]int64, BatchStats, error) {
	return plannedBatch(b, queries)
}

// RangeSumBatchTrace is the front's one batch engine: the inner cube's
// batched engine (corner dedup, prefix cache, parallel descents)
// answers the tree part through batchTrace (which checks out's
// length), recording its stage spans and per-level visit profile into
// a live sc as usual, then each answer is completed with the query's
// delta contribution.
func (b *Buffered) RangeSumBatchTrace(queries []RangeQuery, out []int64, sc *obs.SpanContext, parent obs.SpanID) (BatchStats, []uint64, error) {
	b.applyMu.RLock()
	st, levels, err := batchTrace(b.inner, queries, out, sc, parent)
	if err != nil {
		b.applyMu.RUnlock()
		return BatchStats{}, nil, err
	}
	terms := 0
	b.dmu.RLock()
	for i, q := range queries {
		dv, n := deltaRange(b.active, q.Lo, q.Hi)
		fv, m := deltaRange(b.frozen, q.Lo, q.Hi)
		out[i] += dv + fv
		terms += n + m
	}
	b.dmu.RUnlock()
	b.applyMu.RUnlock()
	composeDone(terms)
	return st, levels, nil
}

// Total implements Cube.
func (b *Buffered) Total() int64 {
	b.applyMu.RLock()
	v := b.inner.Total()
	lo, hi := b.inclusiveBounds()
	b.dmu.RLock()
	dv, n := deltaRange(b.active, lo, hi)
	v += dv
	dv, n2 := deltaRange(b.frozen, lo, hi)
	v += dv
	b.dmu.RUnlock()
	b.applyMu.RUnlock()
	composeDone(n + n2)
	return v
}

// ExplainPrefix returns the composed prefix sum at p with the inner
// cube's contribution walk (when it is a DynamicCube) plus one "delta"
// contribution per composing delta term — point entries anchored at
// their cell with K 0, boxes anchored at their low corner with K the
// longest side.
func (b *Buffered) ExplainPrefix(p []int) (int64, []Contribution) {
	if len(p) != b.d {
		return 0, nil
	}
	b.applyMu.RLock()
	var sum int64
	var parts []Contribution
	if b.dyn != nil {
		sum, parts = b.dyn.ExplainPrefix(p)
	} else {
		sum = b.inner.Prefix(p)
	}
	terms := 0
	lo := b.bounds.Load().lo
	b.dmu.RLock()
	for _, d := range []*deltaBuf{b.active, b.frozen} {
		if d == nil {
			continue
		}
		for i := range d.slab {
			e := &d.slab[i]
			if e.Delta != 0 && inBox(e.Point, lo, p) {
				parts = append(parts, Contribution{
					Level: 0, BoxAnchor: cloneInts(e.Point), Kind: "delta", Value: e.Delta,
				})
				sum += e.Delta
				terms++
			}
		}
		for i := 0; i < d.boxes.Len(); i++ {
			cells := d.boxes.Cells(i, lo, p)
			if cells == 0 {
				continue
			}
			blo, bhi, delta := d.boxes.Box(i)
			side := 0
			for j := range blo {
				side = max(side, bhi[j]-blo[j]+1)
			}
			v := delta * cells
			parts = append(parts, Contribution{
				Level: 0, BoxAnchor: cloneInts(blo), K: side, Kind: "delta", Value: v,
			})
			sum += v
			terms++
		}
	}
	b.dmu.RUnlock()
	b.applyMu.RUnlock()
	composeDone(terms)
	return sum, parts
}

// Ops implements Cube (the inner cube's counters; buffered-but-undrained
// mutations have not paid tree work yet).
func (b *Buffered) Ops() OpCounts {
	b.applyMu.RLock()
	defer b.applyMu.RUnlock()
	return b.inner.Ops()
}

// ResetOps implements Cube.
func (b *Buffered) ResetOps() {
	b.applyMu.Lock()
	defer b.applyMu.Unlock()
	b.inner.ResetOps()
}

// Unwrap returns the inner cube. Reads of it race with the merger and
// writes bypass the delta entirely — use it only while Frozen or after
// Close.
func (b *Buffered) Unwrap() Cube { return b.inner }

// ---------------------------------------------------------------------
// Draining

// merger is the background drain loop: it wakes on the flush interval
// or a threshold signal and drains until the delta is below MaxDelta.
func (b *Buffered) merger() {
	defer close(b.done)
	t := time.NewTicker(b.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-b.wake:
		case <-t.C:
		}
		for again := true; again; {
			b.drainOnce()
			b.dmu.RLock()
			again = b.active.depth() >= b.opts.MaxDelta
			b.dmu.RUnlock()
		}
		select {
		case <-b.stop:
			return
		default:
		}
	}
}

// drainOnce freezes the active generation and applies it to the inner
// cube: one AddBatch for the coalesced points (one exclusive tree
// acquisition, amortized descents) and one lazy RangeAdd per box.
// Queries keep composing the frozen generation until the instant the
// tree has absorbed it, so answers never double-count and never miss.
func (b *Buffered) drainOnce() error {
	b.drainMu.Lock()
	defer b.drainMu.Unlock()
	return b.drainLocked()
}

// tryDrain is drainOnce without blocking: a no-op when another drain or
// a checkpoint freeze holds drainMu.
func (b *Buffered) tryDrain() {
	if !b.drainMu.TryLock() {
		return
	}
	b.drainLocked()
	b.drainMu.Unlock()
}

// drainLocked is the drain body; the caller holds drainMu.
func (b *Buffered) drainLocked() error {
	if err := b.Err(); err != nil {
		return err
	}
	b.dmu.Lock()
	if b.active.empty() {
		b.dmu.Unlock()
		return nil
	}
	frozen := b.active
	b.active = newDeltaBuf()
	b.frozen = frozen
	b.dmu.Unlock()

	start := time.Now()
	b.applyMu.Lock()
	err := b.drainInto(frozen)
	b.dmu.Lock()
	b.frozen = nil
	b.dmu.Unlock()
	b.applyMu.Unlock()

	b.drains.Add(1)
	b.drainedPts.Add(uint64(len(frozen.slab)))
	b.drainedBoxes.Add(uint64(frozen.boxes.Len()))
	if tel := globalTelemetry; tel.on() {
		tel.recordDeltaDrain(time.Since(start), frozen.depth())
	}
	if err != nil {
		b.poison(err)
	}
	return err
}

// drainInto pushes one frozen generation into the inner cube; the caller
// holds applyMu exclusively. Entries were validated at buffer time, so
// a failure here is a defect — it poisons the buffer (the tree may hold
// a partial batch) rather than limping on with divergent answers.
func (b *Buffered) drainInto(f *deltaBuf) error {
	if len(f.slab) > 0 {
		if ba, ok := b.inner.(BatchAdder); ok {
			if err := ba.AddBatch(f.slab); err != nil {
				return fmt.Errorf("ddc: delta drain: %w", err)
			}
		} else {
			for i := range f.slab {
				if err := b.inner.Add(f.slab[i].Point, f.slab[i].Delta); err != nil {
					return fmt.Errorf("ddc: delta drain: %w", err)
				}
			}
		}
	}
	for i := 0; i < f.boxes.Len(); i++ {
		lo, hi, delta := f.boxes.Box(i)
		if err := b.inner.RangeAdd(lo, hi, delta); err != nil {
			return fmt.Errorf("ddc: delta drain (box): %w", err)
		}
	}
	return nil
}

// Drain synchronously drains everything buffered at the time of the
// call, returning when the inner cube has absorbed it. Writes that land
// after Drain starts may or may not be included.
func (b *Buffered) Drain() error { return b.drainOnce() }

// Freeze blocks drains and tree mutation — the inner cube's state is
// immobile until the returned release is called — while writers keep
// landing in the delta and queries keep composing it. This is the
// checkpoint-streaming hook: drain, rotate the WAL, freeze, and stream
// the snapshot without stalling writers. AutoGrow growth (which must
// mutate the tree) does stall until release; release is idempotent.
func (b *Buffered) Freeze() (release func()) {
	b.drainMu.Lock()
	b.applyMu.RLock()
	b.frozenForCkpt.Store(true)
	var once sync.Once
	return func() {
		once.Do(func() {
			b.frozenForCkpt.Store(false)
			b.applyMu.RUnlock()
			b.drainMu.Unlock()
		})
	}
}

// Close stops the background merger, drains the remaining delta into
// the inner cube and unregisters the telemetry depth source. Mutations
// fail afterwards; queries keep answering (the delta is empty, so they
// read the tree alone).
func (b *Buffered) Close() error {
	if b.closed.Swap(true) {
		<-b.done
		return b.Err()
	}
	close(b.stop)
	b.wakeMerger()
	<-b.done
	err := b.drainOnce()
	globalTelemetry.unregisterDeltaSource(b)
	return err
}

// ---------------------------------------------------------------------
// Introspection

// BufferedStats is a point-in-time view of the write front.
type BufferedStats struct {
	// Points and Boxes are the active generation's entries; FrozenPoints
	// and FrozenBoxes the generation currently being drained (0 outside
	// a drain).
	Points, Boxes             int
	FrozenPoints, FrozenBoxes int
	// BufferedOps counts raw mutations absorbed; Coalesced the subset
	// that merged into an existing entry; Drains completed drain cycles;
	// DrainedPoints/DrainedBoxes the entries those drains applied.
	BufferedOps   uint64
	Coalesced     uint64
	Drains        uint64
	DrainedPoints uint64
	DrainedBoxes  uint64
}

// Stats returns the write front's counters.
func (b *Buffered) Stats() BufferedStats {
	b.dmu.RLock()
	st := BufferedStats{
		Points: len(b.active.slab),
		Boxes:  b.active.boxes.Len(),
	}
	if b.frozen != nil {
		st.FrozenPoints = len(b.frozen.slab)
		st.FrozenBoxes = b.frozen.boxes.Len()
	}
	b.dmu.RUnlock()
	st.BufferedOps = b.buffered.Load()
	st.Coalesced = b.coalesced.Load()
	st.Drains = b.drains.Load()
	st.DrainedPoints = b.drainedPts.Load()
	st.DrainedBoxes = b.drainedBoxes.Load()
	return st
}

// DeltaDepth returns the current undrained delta depth (active + frozen
// point entries and boxes) — the telemetry gauge's source of truth, so
// a Telemetry.Reset mid-drain can never leave a negative or stale
// reading: the next scrape recomputes it from here.
func (b *Buffered) DeltaDepth() int {
	b.dmu.RLock()
	defer b.dmu.RUnlock()
	n := b.active.depth()
	if b.frozen != nil {
		n += b.frozen.depth()
	}
	return n
}

func cloneInts(p []int) []int { return append([]int(nil), p...) }
