// Package core implements the Dynamic Data Cube of Section 4 of the
// paper: a 2^d-ary overlay tree in which each overlay box's d groups of
// row-sum values are stored recursively — in a (d-1)-dimensional Dynamic
// Data Cube for d > 2 and, for the two-dimensional base case, in a
// pluggable one-dimensional prefix-sum backend (internal/psum) occupying
// the paper's B_c tree slot — giving O(log^d n) cost for both prefix
// queries and point updates (Theorems 1 and 2). The classic backend is
// the paper-exact B_c tree of Section 4.1 (internal/bctree); the blocked
// backends trade its pointer-linked sparsity for flat cache-line layouts
// (Config.Backend selects one per tree; the default, auto, picks classic
// or blocked per group from the group's own density).
//
// The tree holds no pointers between its parts. Nodes, overlay boxes,
// flat row-sum groups and leaf tiles live in per-tree slabs (arena.go)
// and name each other by int32 address: a node record names its block
// of 2^d children and its block of 2^d box records, a box record holds
// the subtotal and the address of its groups. A d = 2 box whose groups
// both hold the flat layout keeps them back to back in the cells slab
// and is read by offset through psum's flat kernel, so a row-sum read
// touches the node record, the box record and the cells and nothing
// else; other groups (the classic and blockfenwick backends, auto
// groups still sparse, nested cubes when d > 2) sit in a side table.
//
// Beyond the core structure the package implements the paper's
// engineering extensions:
//
//   - Section 4.4's level elision: the recursion stops at dense leaf
//     tiles of configurable power-of-two side, trading a bounded number
//     of leaf adds per query for the storage of the densest tree levels.
//   - Section 5's sparsity: children, boxes, group structures and B_c
//     nodes are allocated lazily on first nonzero update, so clustered
//     data costs memory proportional to the data, not the domain.
//   - Section 5's dynamic growth: the cube grows in any direction (any
//     corner) by adding root levels; logical coordinates may become
//     negative. Growth is O(1) because the grown root's box over the old
//     data starts in delegating mode (face values are answered by prefix
//     queries on the old subtree) and can later be materialised.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ddc/internal/bctree"
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/psum"
)

// DefaultFanout is the B_c fanout a zero Config.Fanout selects.
const DefaultFanout = bctree.DefaultFanout

// DefaultTile returns the leaf tile side a d-dimensional tree takes
// when Config.Tile is 0: 8 up to d = 4, where BenchmarkTile's rows back
// it, and 4 above. A leaf is a dense tile^d slab, and a tile-8 leaf
// would be 256 KiB at d = 5 and 128 MiB at d = 8.
func DefaultTile(d int) int {
	if d <= 4 {
		return 8
	}
	return 4
}

// maxSide caps the padded domain side so runaway growth is an error
// rather than an overflow.
const maxSide = 1 << 40

// ErrTooLarge is returned when growth would exceed the supported domain.
var ErrTooLarge = errors.New("core: domain too large")

// Config tunes a Dynamic Data Cube. The zero value selects the defaults.
type Config struct {
	// Tile is the leaf tile side (power of two); 0 selects
	// DefaultTile(d). Tile = 1 is the paper's full tree; larger tiles
	// elide the h = log2(Tile) densest levels (Section 4.4).
	Tile int
	// Fanout is the B_c tree fanout used by two-dimensional groups.
	// Only the classic backend (and auto groups still in the classic
	// layout) honours it; the blocked layouts derive their branching
	// from the cache line.
	Fanout int
	// AutoGrow makes Add/Set on out-of-bounds coordinates grow the cube
	// to include them (Section 5) instead of returning an error.
	AutoGrow bool
	// Backend names the prefix-sum structure occupying the B_c slot of
	// every two-dimensional row-sum group (see internal/psum): "auto"
	// (the default — each group starts as classic and switches once to
	// blocked when half its universe holds keys), "classic" (the
	// paper-exact Cumulative B Tree), "blocked" (flat cache-line b-ary
	// tree) or "blockfenwick" (two-level blocked Fenwick). withDefaults
	// normalizes "" to psum.ParseKind's default. The choice is
	// rebuild-time only — snapshots and WAL records are
	// backend-agnostic.
	Backend string
}

func (c Config) withDefaults(d int) (Config, error) {
	if c.Tile == 0 {
		c.Tile = DefaultTile(d)
	}
	if c.Fanout == 0 {
		c.Fanout = DefaultFanout
	}
	if c.Tile < 1 || c.Tile&(c.Tile-1) != 0 {
		return c, fmt.Errorf("%w: tile %d must be a power of two", grid.ErrBadExtent, c.Tile)
	}
	if c.Fanout < bctree.MinFanout {
		return c, fmt.Errorf("%w: fanout %d below minimum %d", grid.ErrBadExtent, c.Fanout, bctree.MinFanout)
	}
	kind, err := psum.ParseKind(c.Backend)
	if err != nil {
		return c, fmt.Errorf("%w: %v", grid.ErrBadExtent, err)
	}
	c.Backend = string(kind) // normalize "" to the default's canonical name
	return c, nil
}

// Tree is a Dynamic Data Cube over a d-dimensional logical domain.
//
// Logical coordinates start at the origin chosen at construction (0 in
// every dimension) but may extend below it after growth in a "before"
// direction; all methods accept logical coordinates.
//
// Concurrency: the read methods (Prefix, RangeSum, Get, Total, Ops,
// ExplainPrefix and the non-zero walks) are safe to call from any number
// of goroutines simultaneously — queries draw all per-call state from a
// pool and merge operation counts atomically. Mutating methods (Add,
// Set, Grow, Materialize, Compact, ResetOps, the load paths) require
// exclusive access: no other method, reader or writer, may run
// concurrently with them. Callers wanting mixed readers and writers
// wrap the tree (see the ddc package's Synchronized and ShardedCube).
type Tree struct {
	d      int
	cfg    Config
	dims   []int      // declared dimension sizes (bounds in fixed mode)
	origin grid.Point // logical coordinate of internal cell (0,...,0)
	n      int        // padded side (power of two), common to all dims
	grown  bool       // true once Grow has been called

	// ar holds every record and cell of the tree (shared with nested
	// group trees); root addresses the root node record, noRec while
	// the tree is empty. leafCells is tile^d, the size of a leaf tile.
	ar        *arena
	root      int32
	leafCells int

	// ops accumulates operation counts; nested group trees share it.
	// All merges into it are atomic (per-call counters accumulate the
	// raw counts), so concurrent queries never race on it.
	ops *cube.OpCounter

	// Update-path scratch (updates require exclusive access, so one set
	// per tree is sound; nested group trees borrow their outer tree's
	// next level, see scratch). Queries use pooled per-call scratch
	// instead — see queryScratch.
	scr  *scratch
	zero grid.Point // all-zero root anchor, never written
	pbuf grid.Point // internalized update point buffer (Add/Set)

	// epoch counts mutations (Add/Set, Grow, Materialize, Compact); the
	// batched query engine's prefix cache is versioned by it, so one
	// atomic bump invalidates every cached corner value (see batch.go).
	// Nested group trees carry their own epoch, which is never read.
	epoch atomic.Uint64

	// pcache memoises corner prefix values for the batched query engine
	// (outer trees only; see batch.go).
	pcache prefixCache

	// pending holds lazily-composed range updates (RangeAdd) not yet
	// pushed down into the overlay tree; queries add them once per
	// query box and Grow/Materialize/Compact flush them (see
	// rangeadd.go). Boxes are stored in logical coordinates, always
	// inside the current bounds.
	pending grid.Boxes
}

// Epoch returns the tree's mutation epoch: it moves on every Add/Set,
// Grow, Materialize and Compact. Readers use it to version derived
// values (the batched engine's prefix cache); safe to call concurrently
// with queries.
func (t *Tree) Epoch() uint64 { return t.epoch.Load() }

// bumpEpoch records that a mutation (or an explicit invalidation)
// happened; cached corner prefix values versioned by an older epoch are
// dead from here on.
func (t *Tree) bumpEpoch() { t.epoch.Add(1) }

// InvalidatePrefixCache drops every cached corner prefix value by
// bumping the mutation epoch. Mutations invalidate automatically; this
// hook serves benchmarks and tests that need a cold cache on an
// unchanged tree.
func (t *Tree) InvalidatePrefixCache() { t.bumpEpoch() }

// group stores one (d-1)-dimensional set of row sums G_j that is not
// held flat in the cells slab, and answers its prefix sums — the
// recursive storage of Section 4.2. Groups live in the arena's side
// table. Exactly one field is set: ps, the one-dimensional prefix-sum
// backend in the B_c slot, when d = 2, and tr, a nested
// (d-1)-dimensional cube sharing the parent's arena and operation
// counter, when d > 2. Operation counts flow through the caller's
// per-call counter so reads write no shared state and whole operations
// merge their counts exactly once.
type group struct {
	ps psum.Backend
	tr *Tree
}

// New returns an empty Dynamic Data Cube with a fixed logical domain
// [0, dims[i]) per dimension and the default configuration.
func New(dims []int) (*Tree, error) { return NewWithConfig(dims, Config{}) }

// NewWithConfig returns an empty Dynamic Data Cube with the given
// configuration.
func NewWithConfig(dims []int, cfg Config) (*Tree, error) {
	if _, err := grid.NewExtent(dims); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults(len(dims))
	if err != nil {
		return nil, err
	}
	return newTree(dims, cfg, &arena{}, &cube.OpCounter{}, &scratch{}), nil
}

// newTree returns an empty tree over dims with a defaulted cfg, keeping
// its records in ar, its operation counts in ops and its update buffers
// in scr.
func newTree(dims []int, cfg Config, ar *arena, ops *cube.OpCounter, scr *scratch) *Tree {
	n := cfg.Tile
	for _, sz := range dims {
		if p := grid.NextPow2(sz); p > n {
			n = p
		}
	}
	leafCells := 1
	for range dims {
		leafCells *= cfg.Tile
	}
	return &Tree{
		d:         len(dims),
		cfg:       cfg,
		dims:      append([]int(nil), dims...),
		origin:    make(grid.Point, len(dims)),
		n:         n,
		ar:        ar,
		root:      noRec,
		leafCells: leafCells,
		ops:       ops,
		scr:       scr,
		zero:      make(grid.Point, len(dims)),
		pbuf:      make(grid.Point, len(dims)),
	}
}

// newNested returns a tree used as one of t's (d-1)-dimensional group
// stores: it shares t's arena and operation counter, and the update
// scratch of the nesting level below t.
func (t *Tree) newNested(dims []int) *Tree {
	return newTree(dims, t.cfg, t.ar, t.ops, t.scr.nested())
}

// node returns the record at address a.
func (t *Tree) node(a int32) *nodeRec { return t.ar.nodes.at(a) }

// ensureRoot gives an empty tree its (absent) root record, which
// updates then fill in place.
func (t *Tree) ensureRoot() {
	if t.root == noRec {
		t.root = t.ar.newRecord(absentNode)
	}
}

// FromArray builds a cube holding the contents of a by replaying its
// nonzero cells.
func FromArray(a *cube.Array, cfg Config) (*Tree, error) {
	t, err := NewWithConfig(a.Dims(), cfg)
	if err != nil {
		return nil, err
	}
	var addErr error
	a.ForEachNonZero(func(p grid.Point, v int64) {
		if addErr == nil {
			addErr = t.Add(p, v)
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	return t, nil
}

// D returns the dimensionality.
func (t *Tree) D() int { return t.d }

// Dims returns a copy of the declared dimension sizes.
func (t *Tree) Dims() []int { return append([]int(nil), t.dims...) }

// Bounds returns the current logical domain as an inclusive low corner
// and exclusive high corner. Before any growth this is [0, dims[i]);
// after growth it is the full grown region.
func (t *Tree) Bounds() (lo, hi grid.Point) {
	lo = t.origin.Clone()
	hi = make(grid.Point, t.d)
	for i := 0; i < t.d; i++ {
		if t.grown {
			hi[i] = t.origin[i] + t.n
		} else {
			hi[i] = t.dims[i]
		}
	}
	return lo, hi
}

// PaddedSide returns the internal power-of-two domain side.
func (t *Tree) PaddedSide() int { return t.n }

// Origin returns the logical coordinate of the internal low corner;
// negative after growth in a "before" direction.
func (t *Tree) Origin() grid.Point { return t.origin.Clone() }

// Grown reports whether the cube has grown beyond its declared domain.
func (t *Tree) Grown() bool { return t.grown }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// Ops returns the accumulated operation counts (shared with all nested
// group structures); safe to call concurrently with queries.
func (t *Tree) Ops() cube.OpCounter { return t.ops.AtomicSnapshot() }

// ResetOps zeroes the operation counters.
func (t *Tree) ResetOps() { t.ops.AtomicReset() }

// boundsAt returns the logical bounds of one dimension without
// allocating (the hot-path form of Bounds).
func (t *Tree) boundsAt(i int) (lo, hi int) {
	lo = t.origin[i]
	if t.grown {
		hi = t.origin[i] + t.n
	} else {
		hi = t.dims[i]
	}
	return lo, hi
}

// checkPoint validates p against the current logical bounds.
func (t *Tree) checkPoint(p grid.Point) error {
	if len(p) != t.d {
		return fmt.Errorf("%w: point has %d dims, cube has %d", grid.ErrDims, len(p), t.d)
	}
	for i, v := range p {
		lo, hi := t.boundsAt(i)
		if v < lo || v >= hi {
			return fmt.Errorf("%w: coordinate %d = %d not in [%d, %d)", grid.ErrRange, i, v, lo, hi)
		}
	}
	return nil
}

// internalize converts logical coordinates to internal ones.
func (t *Tree) internalize(p grid.Point) grid.Point {
	q := make(grid.Point, t.d)
	for i := range q {
		q[i] = p[i] - t.origin[i]
	}
	return q
}

// Total returns the sum of every cell in O(2^d + pending).
func (t *Tree) Total() int64 {
	var s int64
	if t.pending.Len() != 0 {
		sc := getQueryScratch(t.d)
		for i := range sc.q {
			sc.q[i] = t.origin[i] + t.n - 1
		}
		s, _ = t.pending.Sum(t.origin, sc.q)
		putQueryScratch(sc)
	}
	if t.root == noRec {
		return s
	}
	n := t.node(t.root)
	if n.leaf >= 0 {
		for _, v := range t.ar.leaves.region(n.leaf, 0, t.leafCells) {
			s += v
		}
		return s
	}
	if n.box < 0 {
		return s
	}
	for ci := 0; ci < 1<<uint(t.d); ci++ {
		s += t.ar.boxes.at(n.box + int32(ci)).sub
	}
	return s
}
