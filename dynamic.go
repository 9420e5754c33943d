package ddc

import (
	"fmt"
	"time"

	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/logrec"
	"ddc/internal/psum"
)

// Options tunes a DynamicCube. The zero value selects the defaults
// (tile side 8 up to four dimensions and 4 above, B_c fanout 16, fixed
// domain).
type Options struct {
	// Tile is the leaf tile side, a power of two; 0 selects
	// core.DefaultTile(d), 8 up to four dimensions and 4 above, for
	// NewDynamic and BuildDynamic alike. Tile = 1 is the paper's full
	// tree; larger values elide the densest tree levels (the Section 4.4
	// storage optimization) at the cost of up to Tile^d cell adds per
	// query. A snapshot records its tile and loads with it, whatever
	// the default.
	Tile int
	// Fanout is the B_c tree fanout used by the two-dimensional
	// row-sum groups (minimum 3).
	Fanout int
	// AutoGrow makes Set/Add on out-of-bounds coordinates grow the
	// cube to include them (in any direction, Section 5) instead of
	// returning an error.
	AutoGrow bool
	// Backend selects the one-dimensional prefix-sum structure backing
	// the two-dimensional row-sum groups (the paper's B_c slot). The
	// default, "auto", is density-adaptive: every group starts as the
	// classic tree and switches once, for good, to the blocked layout
	// when half its universe holds keys, so dense cubes get the
	// cache-line layout while sparse ones keep storage proportional to
	// the data. The fixed choices are "classic" (the paper-exact
	// Cumulative B Tree of Section 4.1), "blocked" (flat cache-line
	// b-ary tree) and "blockfenwick" (two-level blocked Fenwick). The
	// backend is a rebuild-time choice: snapshots and WAL records are
	// backend-agnostic, so any persisted cube loads under any backend.
	Backend string
}

// Backends returns the names of the available prefix-sum backends,
// default first.
func Backends() []string {
	def, _ := psum.ParseKind("")
	out := []string{string(def)}
	for _, k := range psum.Kinds() {
		if k != def {
			out = append(out, string(k))
		}
	}
	return out
}

// DynamicCube is the Dynamic Data Cube: O(log^d n) range-sum queries and
// point updates, lazy (sparse) allocation, and dynamic growth of the
// domain in any direction.
type DynamicCube struct {
	t *core.Tree
	// be is the cube's psum.Index, cached so telemetry recording costs
	// an array index instead of a string resolution per operation.
	be int
}

// newDynamicCube wraps a core tree, caching its backend label index.
func newDynamicCube(t *core.Tree) *DynamicCube {
	return &DynamicCube{t: t, be: psum.Index(psum.Kind(t.Config().Backend))}
}

// NewDynamic returns a Dynamic Data Cube over the given dimension sizes
// with default options.
func NewDynamic(dims []int) (*DynamicCube, error) {
	return NewDynamicWithOptions(dims, Options{})
}

// NewDynamicWithOptions returns a Dynamic Data Cube with explicit
// options.
func NewDynamicWithOptions(dims []int, opt Options) (*DynamicCube, error) {
	t, err := core.NewWithConfig(dims, core.Config{
		Tile:     opt.Tile,
		Fanout:   opt.Fanout,
		AutoGrow: opt.AutoGrow,
		Backend:  opt.Backend,
	})
	if err != nil {
		return nil, err
	}
	return newDynamicCube(t), nil
}

// BuildDynamic bulk-loads a Dynamic Data Cube from dense row-major
// values (len(values) must equal the product of dims), reading them in
// place. Construction is bottom-up, one pass over the cells — tens of
// times faster and far fewer allocations than replaying one Add per
// cell — and the result is identical to the incremental path.
func BuildDynamic(dims []int, values []int64, opt Options) (*DynamicCube, error) {
	t, err := core.BuildFromValues(dims, values, core.Config{
		Tile:     opt.Tile,
		Fanout:   opt.Fanout,
		AutoGrow: opt.AutoGrow,
		Backend:  opt.Backend,
	})
	if err != nil {
		return nil, err
	}
	return newDynamicCube(t), nil
}

// ConcurrentReads reports that the cube's read methods (Get, Prefix,
// RangeSum, Total, Ops, ExplainPrefix, the iterators) are safe for any
// number of concurrent callers, as long as no mutation (Add, Set, Grow,
// Materialize, Compact) runs at the same time; it implements
// ConcurrentReader.
func (c *DynamicCube) ConcurrentReads() bool { return true }

// AddBatch applies every delta in order, implementing BatchAdder. On the
// first failing point the batch stops and the error reports its index;
// earlier deltas remain applied (the cube is an aggregate index, not a
// transactional store).
func (c *DynamicCube) AddBatch(batch []PointDelta) error {
	tel := globalTelemetry
	on := tel.on()
	var start time.Time
	if on {
		start = time.Now()
	}
	var merged cube.OpCounter
	var batchErr error
	for i, pd := range batch {
		ops, err := c.t.AddOps(grid.Point(pd.Point), pd.Delta)
		merged.Add(ops)
		if err != nil {
			batchErr = fmt.Errorf("batch[%d]: %w", i, err)
			break
		}
	}
	if on {
		tel.recordUpdate(uOpBatch, c.be, time.Since(start), merged)
	}
	return batchErr
}

// Dims implements Cube (the sizes declared at construction; see Bounds
// for the current grown domain).
func (c *DynamicCube) Dims() []int { return c.t.Dims() }

// Bounds returns the current logical domain as an inclusive low corner
// and exclusive high corner; growth in a "before" direction makes the
// low corner negative.
func (c *DynamicCube) Bounds() (lo, hi []int) {
	l, h := c.t.Bounds()
	return l, h
}

// Get implements Cube.
func (c *DynamicCube) Get(p []int) int64 { return c.t.Get(grid.Point(p)) }

// Set implements Cube. With telemetry enabled the update's latency and
// operation counts are recorded; disabled, one atomic flag load is the
// only overhead.
func (c *DynamicCube) Set(p []int, v int64) error {
	return c.apply(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: v})
}

// Add implements Cube; see Set for the telemetry contract.
func (c *DynamicCube) Add(p []int, d int64) error {
	return c.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: d})
}

// RangeAdd implements Cube: the box delta is recorded as a pending
// lazy update in O(d) — independent of the box volume — and composed
// into every subsequent query until Grow, Materialize or Compact push
// it down into the tree (see FlushPending). Each outstanding pending
// box adds O(d) once per query box (not per corner: the corners
// descend the tree alone), so interleave RangeAdd bursts with
// Materialize/Compact at quiet moments. See Set for the telemetry
// contract.
func (c *DynamicCube) RangeAdd(lo, hi []int, d int64) error {
	return c.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: d})
}

// kindOp maps a mutation kind to its telemetry update op.
var kindOp = [...]int{logrec.Add: uOpAdd, logrec.Set: uOpSet, logrec.RangeAdd: uOpRangeAdd}

// apply is the one mutator behind Set, Add and RangeAdd: it applies m
// to the tree and, with telemetry enabled, records the update's
// latency and operation counts.
func (c *DynamicCube) apply(m logrec.Mutation) error {
	tel := globalTelemetry
	on := tel.on()
	var start time.Time
	if on {
		start = time.Now()
	}
	var ops cube.OpCounter
	var err error
	switch m.Kind {
	case logrec.Add:
		ops, err = c.t.AddOps(grid.Point(m.Lo), m.Delta)
	case logrec.Set:
		ops, err = c.t.SetOps(grid.Point(m.Lo), m.Delta)
	case logrec.RangeAdd:
		ops, err = c.t.RangeAddOps(grid.Point(m.Lo), grid.Point(m.Hi), m.Delta)
	default:
		return fmt.Errorf("ddc: unknown mutation kind %d", m.Kind)
	}
	if on {
		tel.recordUpdate(kindOp[m.Kind], c.be, time.Since(start), ops)
	}
	return err
}

// FlushPending pushes every outstanding RangeAdd box down into the
// tree, one point update per covered cell, restoring pending-free
// queries. Grow, Materialize and Compact flush implicitly.
func (c *DynamicCube) FlushPending() { c.t.FlushPending() }

// PendingBoxes returns the number of outstanding lazy range updates.
func (c *DynamicCube) PendingBoxes() int { return c.t.PendingBoxes() }

// Prefix implements Cube. With telemetry enabled the query's latency,
// node visits and contribution kinds are recorded, and a sampled or
// slow query lands in the trace ring as a span tree (a sampled one
// re-walks the descent for per-level spans).
func (c *DynamicCube) Prefix(p []int) int64 {
	tel := globalTelemetry
	if !tel.on() {
		return c.t.Prefix(grid.Point(p))
	}
	start := time.Now()
	v, ops := c.t.PrefixOps(grid.Point(p))
	tel.queryDone(&cubeQuery{op: qOpPrefix, be: c.be, start: start, lo: p, ops: ops, tree: c.t})
	return v
}

// RangeSum implements Cube; see Prefix for the telemetry contract
// (range traces carry the query box, not a per-level walk).
func (c *DynamicCube) RangeSum(lo, hi []int) (int64, error) {
	tel := globalTelemetry
	if !tel.on() {
		return c.t.RangeSum(grid.Point(lo), grid.Point(hi))
	}
	start := time.Now()
	v, ops, err := c.t.RangeSumOps(grid.Point(lo), grid.Point(hi))
	tel.queryDone(&cubeQuery{op: qOpRange, be: c.be, start: start, err: err, lo: lo, hi: hi, ops: ops})
	return v, err
}

// Total implements Cube.
func (c *DynamicCube) Total() int64 { return c.t.Total() }

// Ops implements Cube.
func (c *DynamicCube) Ops() OpCounts { return fromInternal(c.t.Ops()) }

// ResetOps implements Cube.
func (c *DynamicCube) ResetOps() { c.t.ResetOps() }

// Grow doubles the domain, expanding toward negative coordinates in
// every dimension i with before[i] true and toward positive coordinates
// otherwise. Growth is O(1); see Materialize.
func (c *DynamicCube) Grow(before []bool) error { return c.t.Grow(before) }

// GrowToInclude grows the cube until the point p is inside its bounds.
func (c *DynamicCube) GrowToInclude(p []int) error {
	return c.t.GrowToInclude(grid.Point(p))
}

// Materialize rebuilds the row-sum groups that growth left in delegating
// mode, restoring full query speed for ranges crossing grown regions.
// Cost is proportional to the nonzero cells below grown roots.
func (c *DynamicCube) Materialize() { c.t.Materialize() }

// HasDelegates reports whether any grown region still answers through
// delegation (i.e. Materialize would do work).
func (c *DynamicCube) HasDelegates() bool { return c.t.HasDelegates() }

// StorageCells returns the number of allocated value cells — proportional
// to the data, not the domain, for sparse cubes.
func (c *DynamicCube) StorageCells() int { return c.t.StorageCells() }

// Stats summarises the allocated structure.
type Stats struct {
	Height       int // tree levels from root to leaf tiles
	Nodes        int // allocated tree nodes
	LeafTiles    int // allocated leaf tiles
	Boxes        int // allocated overlay boxes
	Delegates    int // boxes still answering through delegation (growth)
	StorageCells int // total values retained, including group stores
}

// Stats walks the structure and returns its Stats.
func (c *DynamicCube) Stats() Stats {
	s := c.t.TreeStats()
	return Stats{
		Height:       s.Height,
		Nodes:        s.Nodes,
		LeafTiles:    s.LeafTiles,
		Boxes:        s.Boxes,
		Delegates:    s.Delegates,
		StorageCells: s.StorageCells,
	}
}

// Compact rebuilds the structure from its nonzero cells, releasing
// storage held for cells that have returned to zero. Queries answer
// identically afterwards; bounds and options are preserved.
func (c *DynamicCube) Compact() { c.t.Compact() }

// NonZeroCells returns the number of cells holding nonzero values.
func (c *DynamicCube) NonZeroCells() int { return c.t.NonZeroCells() }

// ForEachNonZero calls fn for every nonzero cell with its logical
// coordinates. The slice passed to fn is reused between calls.
func (c *DynamicCube) ForEachNonZero(fn func(p []int, v int64)) {
	c.t.ForEachNonZero(func(p grid.Point, v int64) { fn(p, v) })
}

// ForEachNonZeroUntil is ForEachNonZero with early termination: the walk
// stops as soon as fn returns false. It reports whether the walk ran to
// completion.
func (c *DynamicCube) ForEachNonZeroUntil(fn func(p []int, v int64) bool) bool {
	return c.t.ForEachNonZeroUntil(func(p grid.Point, v int64) bool { return fn(p, v) })
}

// ForEachNonZeroInRange calls fn for every nonzero cell in the inclusive
// box [lo, hi], pruning subtrees outside the box. The slice passed to fn
// is reused between calls.
func (c *DynamicCube) ForEachNonZeroInRange(lo, hi []int, fn func(p []int, v int64)) error {
	return c.t.ForEachNonZeroInRange(grid.Point(lo), grid.Point(hi), func(p grid.Point, v int64) { fn(p, v) })
}

// ForEachNonZeroInRangeUntil is ForEachNonZeroInRange with early
// termination: the walk stops as soon as fn returns false. Stopping
// early is not an error.
func (c *DynamicCube) ForEachNonZeroInRangeUntil(lo, hi []int, fn func(p []int, v int64) bool) error {
	return c.t.ForEachNonZeroInRangeUntil(grid.Point(lo), grid.Point(hi), func(p grid.Point, v int64) bool { return fn(p, v) })
}

// Options returns the cube's effective options. Backend is reported in
// canonical form (the empty string resolves to the default, "auto").
func (c *DynamicCube) Options() Options {
	cfg := c.t.Config()
	return Options{Tile: cfg.Tile, Fanout: cfg.Fanout, AutoGrow: cfg.AutoGrow, Backend: cfg.Backend}
}

// Backend returns the canonical name of the prefix-sum backend this
// cube's row-sum groups use.
func (c *DynamicCube) Backend() string { return c.t.Config().Backend }

// Contribution is one value a prefix query collected on its descent —
// the decomposition the paper walks through in Figures 10-11a.
type Contribution struct {
	// Level is the tree level, 0 at the root.
	Level int
	// BoxAnchor is the logical anchor of the contributing overlay box.
	BoxAnchor []int
	// K is the box side.
	K int
	// Kind names the contribution: "subtotal", "row sum", "delegated"
	// (a grown, unmaterialised box answered through its subtree) or
	// "leaf" (raw cells summed in the final tile).
	Kind string
	// Value is the contributed amount.
	Value int64
}

// ExplainPrefix returns the prefix sum at p together with every nonzero
// contribution collected on the way down; for debugging and education
// (it allocates per level, unlike Prefix).
func (c *DynamicCube) ExplainPrefix(p []int) (int64, []Contribution) {
	sum, parts := c.t.ExplainPrefix(grid.Point(p))
	out := make([]Contribution, len(parts))
	for i, pt := range parts {
		out[i] = Contribution{
			Level:     pt.Level,
			BoxAnchor: pt.BoxAnchor,
			K:         pt.K,
			Kind:      pt.Kind.String(),
			Value:     pt.Value,
		}
	}
	return sum, out
}
