package main

import (
	"ddc"
	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/grid"
)

// cubeTarget drives any ddc.Cube through its public interface.
type cubeTarget struct {
	c    ddc.Cube
	dash [][]ddc.RangeQuery
}

func (t cubeTarget) read(lo, hi []int) (int64, error) { return t.c.RangeSum(lo, hi) }

func (t cubeTarget) batch(dash int, out []int64) error {
	v, err := t.c.RangeSumBatch(t.dash[dash])
	copy(out, v)
	return err
}

func (t cubeTarget) add(p []int, delta int64) (int64, error) { return 0, t.c.Add(p, delta) }

func (t cubeTarget) rangeAdd(lo, hi []int, delta int64) (int64, error) {
	return 0, t.c.RangeAdd(lo, hi, delta)
}

// coreTarget drives an internal/core overlay tree directly, summing
// the operation counts each call returns by op kind, and the batch
// planner's statistics.
type coreTarget struct {
	t     *core.Tree
	boxes [][]core.Box
	ops   [numKinds]cube.OpCounter
	stats core.BatchStats
}

func newCoreTarget(t *core.Tree, dash [][]ddc.RangeQuery) *coreTarget {
	ct := &coreTarget{t: t}
	for _, qs := range dash {
		bs := make([]core.Box, len(qs))
		for i, q := range qs {
			bs[i] = core.Box{Lo: grid.Point(q.Lo), Hi: grid.Point(q.Hi)}
		}
		ct.boxes = append(ct.boxes, bs)
	}
	return ct
}

func (t *coreTarget) read(lo, hi []int) (int64, error) {
	v, ops, err := t.t.RangeSumOps(lo, hi)
	t.ops[opRead].Add(ops)
	return v, err
}

func (t *coreTarget) batch(dash int, out []int64) error {
	v, ops, st, err := t.t.RangeSumBatchOps(t.boxes[dash])
	copy(out, v)
	t.ops[opBatch].Add(ops)
	t.stats.CornerTerms += st.CornerTerms
	t.stats.DistinctCorners += st.DistinctCorners
	t.stats.CacheHits += st.CacheHits
	return err
}

func (t *coreTarget) add(p []int, delta int64) (int64, error) {
	ops, err := t.t.AddOps(p, delta)
	t.ops[opAdd].Add(ops)
	return 0, err
}

func (t *coreTarget) rangeAdd(lo, hi []int, delta int64) (int64, error) {
	ops, err := t.t.RangeAddOps(lo, hi, delta)
	t.ops[opRangeAdd].Add(ops)
	return 0, err
}

func (t *coreTarget) finish() error { return checkPending(t.t.PendingBoxes()) }
func (t *coreTarget) close() error  { return nil }

// tracedTarget records a span around every call into the wrapped
// target: the root of the op's trace.
type tracedTarget struct {
	inner target
	tr    *tracer
}

func (t *tracedTarget) read(lo, hi []int) (int64, error) {
	id := t.tr.start(spanCall, -1)
	v, err := t.inner.read(lo, hi)
	t.tr.end(id)
	return v, err
}

func (t *tracedTarget) batch(dash int, out []int64) error {
	id := t.tr.start(spanCall, -1)
	err := t.inner.batch(dash, out)
	t.tr.end(id)
	return err
}

func (t *tracedTarget) add(p []int, delta int64) (int64, error) {
	id := t.tr.start(spanCall, -1)
	v, err := t.inner.add(p, delta)
	t.tr.end(id)
	return v, err
}

func (t *tracedTarget) rangeAdd(lo, hi []int, delta int64) (int64, error) {
	id := t.tr.start(spanCall, -1)
	v, err := t.inner.rangeAdd(lo, hi, delta)
	t.tr.end(id)
	return v, err
}
