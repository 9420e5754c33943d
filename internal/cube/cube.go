// Package cube implements the dense d-dimensional data cube array A and
// the paper's "naive method" (Section 2): queries sum cells directly in
// O(n^d) worst case, while point updates are O(1). It is the ground truth
// every other structure in this repository is validated against.
package cube

import (
	"sync/atomic"

	"ddc/internal/grid"
)

// Array is a dense d-dimensional array of int64 measure values, stored in
// row-major order. The zero cells of a fresh Array are 0, matching an
// empty data cube.
type Array struct {
	ext  *grid.Extent
	data []int64

	// ops counts cells touched by queries and updates, providing the
	// deterministic operation counts used by the experiment harness.
	ops OpCounter
}

// NumContribKinds is the number of contribution kinds the DDC query
// path classifies, matching internal/core's ContributionKind taxonomy
// (subtotal, row sum, delegated, leaf, pending, delta — in that
// order). The counter carries the array so per-kind counts ride the
// same per-call merge discipline as the scalar counts.
const NumContribKinds = 6

// OpCounter tallies the number of cells touched by queries and updates.
// The paper's evaluation is in operation counts, not wall time; every
// structure in this repository carries one of these so methods can be
// compared on the paper's own terms.
type OpCounter struct {
	QueryCells  uint64 // cells read while answering queries
	UpdateCells uint64 // cells written (or rewritten) by updates
	NodeVisits  uint64 // tree nodes visited (tree structures only)

	// Contribs counts query contributions by kind, indexed by the
	// internal/core ContributionKind values (DDC trees only).
	Contribs [NumContribKinds]uint64
}

// Reset zeroes all counters.
func (c *OpCounter) Reset() { *c = OpCounter{} }

// Add accumulates another counter into c.
func (c *OpCounter) Add(o OpCounter) {
	c.QueryCells += o.QueryCells
	c.UpdateCells += o.UpdateCells
	c.NodeVisits += o.NodeVisits
	for i, n := range o.Contribs {
		c.Contribs[i] += n
	}
}

// AtomicAdd accumulates o into c with atomic adds. Hot paths count into a
// private per-call counter and merge it here once, so any number of
// concurrent operations can share one counter without data races.
func (c *OpCounter) AtomicAdd(o OpCounter) {
	if o.QueryCells != 0 {
		atomic.AddUint64(&c.QueryCells, o.QueryCells)
	}
	if o.UpdateCells != 0 {
		atomic.AddUint64(&c.UpdateCells, o.UpdateCells)
	}
	if o.NodeVisits != 0 {
		atomic.AddUint64(&c.NodeVisits, o.NodeVisits)
	}
	for i, n := range o.Contribs {
		if n != 0 {
			atomic.AddUint64(&c.Contribs[i], n)
		}
	}
}

// AtomicSnapshot returns a copy of the counters read with atomic loads;
// safe to call while concurrent operations are merging counts in.
func (c *OpCounter) AtomicSnapshot() OpCounter {
	out := OpCounter{
		QueryCells:  atomic.LoadUint64(&c.QueryCells),
		UpdateCells: atomic.LoadUint64(&c.UpdateCells),
		NodeVisits:  atomic.LoadUint64(&c.NodeVisits),
	}
	for i := range c.Contribs {
		out.Contribs[i] = atomic.LoadUint64(&c.Contribs[i])
	}
	return out
}

// AtomicReset zeroes the counters with atomic stores.
func (c *OpCounter) AtomicReset() {
	atomic.StoreUint64(&c.QueryCells, 0)
	atomic.StoreUint64(&c.UpdateCells, 0)
	atomic.StoreUint64(&c.NodeVisits, 0)
	for i := range c.Contribs {
		atomic.StoreUint64(&c.Contribs[i], 0)
	}
}

// New returns a zeroed dense array with the given dimension sizes.
func New(dims []int) (*Array, error) {
	ext, err := grid.NewExtent(dims)
	if err != nil {
		return nil, err
	}
	return &Array{ext: ext, data: make([]int64, ext.Cells())}, nil
}

// MustNew is New that panics on error; for tests and fixtures.
func MustNew(dims ...int) *Array {
	a, err := New(dims)
	if err != nil {
		panic(err)
	}
	return a
}

// FromValues builds an array from row-major values. len(values) must equal
// the product of dims.
func FromValues(dims []int, values []int64) (*Array, error) {
	a, err := New(dims)
	if err != nil {
		return nil, err
	}
	if len(values) != len(a.data) {
		return nil, grid.ErrDims
	}
	copy(a.data, values)
	return a, nil
}

// Extent returns the array's extent descriptor.
func (a *Array) Extent() *grid.Extent { return a.ext }

// Dims returns a copy of the dimension sizes.
func (a *Array) Dims() []int { return a.ext.Dims() }

// Ops returns the accumulated operation counts since the last ResetOps.
func (a *Array) Ops() OpCounter { return a.ops }

// ResetOps zeroes the operation counters.
func (a *Array) ResetOps() { a.ops.Reset() }

// Get returns the value of cell p. It returns 0 for any point outside the
// domain, so callers may probe padded regions safely.
func (a *Array) Get(p grid.Point) int64 {
	if !a.ext.Contains(p) {
		return 0
	}
	return a.data[a.ext.Offset(p)]
}

// Set stores value into cell p (the naive method's O(1) update).
func (a *Array) Set(p grid.Point, value int64) error {
	if err := a.ext.Check(p); err != nil {
		return err
	}
	a.data[a.ext.Offset(p)] = value
	a.ops.UpdateCells++
	return nil
}

// Add adds delta to cell p.
func (a *Array) Add(p grid.Point, delta int64) error {
	if err := a.ext.Check(p); err != nil {
		return err
	}
	a.data[a.ext.Offset(p)] += delta
	a.ops.UpdateCells++
	return nil
}

// Prefix returns SUM(A[0,...,0] : A[p]) by direct summation. Coordinates
// beyond the domain are clamped to the last cell; any negative coordinate
// yields 0 (the region is empty).
func (a *Array) Prefix(p grid.Point) int64 {
	if len(p) != a.ext.D() {
		return 0
	}
	lo := make(grid.Point, len(p))
	hi := make(grid.Point, len(p))
	for i, v := range p {
		if v < 0 {
			return 0
		}
		if v >= a.ext.Dim(i) {
			v = a.ext.Dim(i) - 1
		}
		hi[i] = v
	}
	s, _ := a.RangeSum(lo, hi)
	return s
}

// RangeSum returns SUM(A[lo] : A[hi]) over the inclusive box, summing each
// cell directly — the naive method's O(n^d) query.
func (a *Array) RangeSum(lo, hi grid.Point) (int64, error) {
	if err := a.ext.CheckRange(lo, hi); err != nil {
		return 0, err
	}
	var sum int64
	grid.ForEachInBox(lo, hi, func(p grid.Point) {
		sum += a.data[a.ext.Offset(p)]
		a.ops.QueryCells++
	})
	return sum, nil
}

// Total returns the sum of every cell.
func (a *Array) Total() int64 {
	var s int64
	for _, v := range a.data {
		s += v
	}
	return s
}

// Clone returns a deep copy of the array (operation counters reset).
func (a *Array) Clone() *Array {
	b := &Array{ext: a.ext, data: make([]int64, len(a.data))}
	copy(b.data, a.data)
	return b
}

// Values returns a copy of the row-major cell values.
func (a *Array) Values() []int64 { return append([]int64(nil), a.data...) }

// Raw returns the row-major cell values without copying them, for
// readers that must not pay for a copy (bulk loads); callers must not
// modify the slice.
func (a *Array) Raw() []int64 { return a.data }

// ForEachNonZero calls fn for every cell with a nonzero value, in
// row-major order. The point is reused between calls.
func (a *Array) ForEachNonZero(fn func(p grid.Point, v int64)) {
	p := make(grid.Point, a.ext.D())
	for off, v := range a.data {
		if v != 0 {
			fn(a.ext.Coord(off, p), v)
		}
	}
}
