// Package grid provides the d-dimensional geometry substrate shared by
// every range-sum structure in this repository: integer points, extents,
// row-major strides, box iteration, and the corner (inclusion/exclusion)
// enumeration of Figure 4 of the paper, which reduces an arbitrary range
// sum to at most 2^d prefix sums.
package grid

import (
	"errors"
	"fmt"
	"sync"
)

// Point is a d-dimensional integer coordinate. Points are ordinary slices;
// helpers in this package never retain their arguments unless documented.
type Point []int

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical length and coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as "(x1, x2, ...)".
func (p Point) String() string {
	s := "("
	for i, v := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprint(v)
	}
	return s + ")"
}

// DominatedBy reports whether p_i <= q_i for every dimension i.
// It panics if the dimensionalities differ.
func (p Point) DominatedBy(q Point) bool {
	mustSameDims(len(p), len(q))
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

// Add returns p + q as a new point.
func (p Point) Add(q Point) Point {
	mustSameDims(len(p), len(q))
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q as a new point.
func (p Point) Sub(q Point) Point {
	mustSameDims(len(p), len(q))
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

func mustSameDims(a, b int) {
	if a != b {
		panic(fmt.Sprintf("grid: dimensionality mismatch: %d vs %d", a, b))
	}
}

// Errors reported by validation helpers.
var (
	// ErrDims signals a point whose dimensionality does not match the
	// structure it is used with.
	ErrDims = errors.New("grid: dimensionality mismatch")
	// ErrRange signals a coordinate outside the structure's domain.
	ErrRange = errors.New("grid: coordinate out of range")
	// ErrEmptyRange signals a query box with lo > hi in some dimension.
	ErrEmptyRange = errors.New("grid: empty range (lo > hi)")
	// ErrBadExtent signals a non-positive dimension size.
	ErrBadExtent = errors.New("grid: dimension size must be >= 1")
)

// Extent describes the size of a d-dimensional array: Dims[i] is the
// number of distinct values in dimension i (the paper's n_i).
type Extent struct {
	dims    []int
	strides []int
	cells   int
}

// NewExtent validates dims and precomputes row-major strides.
// Every dimension size must be at least 1.
func NewExtent(dims []int) (*Extent, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("%w: need at least one dimension", ErrBadExtent)
	}
	e := &Extent{
		dims:    append([]int(nil), dims...),
		strides: make([]int, len(dims)),
		cells:   1,
	}
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i] < 1 {
			return nil, fmt.Errorf("%w: dims[%d] = %d", ErrBadExtent, i, dims[i])
		}
		e.strides[i] = e.cells
		e.cells *= dims[i]
	}
	return e, nil
}

// MustExtent is NewExtent that panics on error; for tests and literals.
func MustExtent(dims ...int) *Extent {
	e, err := NewExtent(dims)
	if err != nil {
		panic(err)
	}
	return e
}

// Dims returns a copy of the dimension sizes.
func (e *Extent) Dims() []int { return append([]int(nil), e.dims...) }

// D returns the dimensionality d.
func (e *Extent) D() int { return len(e.dims) }

// Cells returns the total number of cells, n_1 * n_2 * ... * n_d.
func (e *Extent) Cells() int { return e.cells }

// Dim returns the size of dimension i.
func (e *Extent) Dim(i int) int { return e.dims[i] }

// Contains reports whether p is a valid cell coordinate.
func (e *Extent) Contains(p Point) bool {
	if len(p) != len(e.dims) {
		return false
	}
	for i, v := range p {
		if v < 0 || v >= e.dims[i] {
			return false
		}
	}
	return true
}

// Check validates p against the extent, returning a descriptive error.
func (e *Extent) Check(p Point) error {
	if len(p) != len(e.dims) {
		return fmt.Errorf("%w: point has %d dims, extent has %d", ErrDims, len(p), len(e.dims))
	}
	for i, v := range p {
		if v < 0 || v >= e.dims[i] {
			return fmt.Errorf("%w: coordinate %d = %d not in [0, %d)", ErrRange, i, v, e.dims[i])
		}
	}
	return nil
}

// CheckRange validates an inclusive query box [lo, hi]:
// dimensionality, the bounds of lo, the bounds of hi, then emptiness.
func (e *Extent) CheckRange(lo, hi Point) error {
	if len(lo) != len(e.dims) || len(hi) != len(e.dims) {
		return fmt.Errorf("%w: box has %d/%d dims, extent has %d", ErrDims, len(lo), len(hi), len(e.dims))
	}
	if err := e.Check(lo); err != nil {
		return err
	}
	if err := e.Check(hi); err != nil {
		return err
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return fmt.Errorf("%w: dimension %d: %d > %d", ErrEmptyRange, i, lo[i], hi[i])
		}
	}
	return nil
}

// Offset converts a coordinate to its row-major flat index.
// The caller must have validated p (see Check); out-of-range coordinates
// produce undefined offsets.
func (e *Extent) Offset(p Point) int {
	off := 0
	for i, v := range p {
		off += v * e.strides[i]
	}
	return off
}

// Coord converts a flat row-major index back to a coordinate, filling dst
// if it has the right length (allocating otherwise) and returning it.
func (e *Extent) Coord(off int, dst Point) Point {
	if len(dst) != len(e.dims) {
		dst = make(Point, len(e.dims))
	}
	for i := range e.dims {
		dst[i] = off / e.strides[i]
		off %= e.strides[i]
	}
	return dst
}

// ForEach calls fn for every cell coordinate in row-major order.
// The point passed to fn is reused between calls; clone it to retain it.
func (e *Extent) ForEach(fn func(p Point)) {
	p := make(Point, len(e.dims))
	for {
		fn(p)
		if !e.increment(p) {
			return
		}
	}
}

// increment advances p in row-major order; it reports false after the
// last cell.
func (e *Extent) increment(p Point) bool {
	for i := len(p) - 1; i >= 0; i-- {
		p[i]++
		if p[i] < e.dims[i] {
			return true
		}
		p[i] = 0
	}
	return false
}

// ForEachInBox calls fn for every coordinate in the inclusive box
// [lo, hi], in row-major order. The point is reused between calls.
// The box must be valid (lo dominated by hi); an empty call is made for
// no cells if any dimension is inverted.
func ForEachInBox(lo, hi Point, fn func(p Point)) {
	ForEachInBoxUntil(lo, hi, func(p Point) bool {
		fn(p)
		return true
	})
}

// ForEachInBoxUntil is ForEachInBox with early termination: fn
// returning false stops the walk. Reports whether the walk ran to
// completion.
func ForEachInBoxUntil(lo, hi Point, fn func(p Point) bool) bool {
	mustSameDims(len(lo), len(hi))
	for i := range lo {
		if lo[i] > hi[i] {
			return true
		}
	}
	p := lo.Clone()
	for {
		if !fn(p) {
			return false
		}
		i := len(p) - 1
		for ; i >= 0; i-- {
			p[i]++
			if p[i] <= hi[i] {
				break
			}
			p[i] = lo[i]
		}
		if i < 0 {
			return true
		}
	}
}

// BoxCells returns the number of cells in the inclusive box [lo, hi],
// or 0 if the box is empty in any dimension.
func BoxCells(lo, hi Point) int {
	mustSameDims(len(lo), len(hi))
	n := 1
	for i := range lo {
		if hi[i] < lo[i] {
			return 0
		}
		n *= hi[i] - lo[i] + 1
	}
	return n
}

// PrefixSummer answers prefix sums: Prefix(p) = the sum of all cells
// dominated by p. Implementations must return 0 when the dominated
// region is empty (any coordinate below the structure's lower bound),
// which lets RangeSum evaluate corners mechanically.
type PrefixSummer interface {
	Prefix(p Point) int64
}

// cornerPool recycles the per-call corner buffer of RangeSum; corner
// reductions run on every query hot path, so the buffer must not be a
// fresh allocation per call.
var cornerPool = sync.Pool{New: func() interface{} { return new(Point) }}

func getCorner(d int) *Point {
	cp := cornerPool.Get().(*Point)
	if cap(*cp) < d {
		*cp = make(Point, d)
	}
	*cp = (*cp)[:d]
	return cp
}

// RangeSum evaluates SUM(A[lo] : A[hi]) on any prefix-sum oracle using the
// inclusion/exclusion identity of Figure 4: the signed sum over the 2^d
// corners obtained by independently choosing hi_i or lo_i - 1 in each
// dimension. Corners below the oracle's lower bound denote empty regions
// and must evaluate to 0 (see PrefixSummer).
func RangeSum(ps PrefixSummer, lo, hi Point) int64 {
	mustSameDims(len(lo), len(hi))
	d := len(lo)
	cp := getCorner(d)
	corner := *cp
	var total int64
	for mask := 0; mask < 1<<uint(d); mask++ {
		parity := 0
		for i := 0; i < d; i++ {
			if mask&(1<<uint(i)) != 0 {
				corner[i] = lo[i] - 1
				parity ^= 1
			} else {
				corner[i] = hi[i]
			}
		}
		v := ps.Prefix(corner)
		if parity == 0 {
			total += v
		} else {
			total -= v
		}
	}
	cornerPool.Put(cp)
	return total
}

// NextPow2 returns the smallest power of two >= v (v must be >= 1).
func NextPow2(v int) int {
	if v < 1 {
		panic("grid: NextPow2 needs v >= 1")
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Log2 returns floor(log2(v)) for v >= 1.
func Log2(v int) int {
	if v < 1 {
		panic("grid: Log2 needs v >= 1")
	}
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}
