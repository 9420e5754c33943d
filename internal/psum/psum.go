// Package psum defines the pluggable prefix-sum backend occupying the
// paper's B_c tree slot: the one-dimensional cumulative structure every
// two-dimensional row-sum group bottoms out in (internal/core descends
// through the Backend interface instead of hard-coding the classic
// B-tree).
//
// Four backends implement the interface:
//
//   - classic — the paper-exact Cumulative B Tree of Section 4.1
//     (internal/bctree): sparse, pointer-linked, O(log k) with the
//     constant factors of a searched B-tree.
//   - blocked — a flat-array blocked b-ary tree in the spirit of Pibiri
//     & Venturini, "Practical Trade-Offs for the Prefix-Sum Problem"
//     (arXiv:2006.14552): branching factor 8 so every node is exactly
//     one 64-byte cache line of int64s, all levels in one backing
//     slice, descent by branch-free shift/mask index arithmetic, zero
//     pointer chasing.
//   - blockfenwick — a two-level blocked Fenwick tree: raw values in
//     16-wide blocks (two cache lines) with a Fenwick tree over the
//     block totals, trading the b-ary tree's extra levels for one
//     low-frequency Fenwick walk plus one bounded linear scan.
//   - auto — the default: each group starts as classic and rebuilds
//     itself once as blocked when its own density makes the flat layout
//     the smaller one (auto.go), so dense cubes get the cache-line
//     layout while sparse and clustered cubes keep the B-tree's storage.
//
// The flat layout's arithmetic is exported as one kernel (FlatSize,
// FlatPrefix, FlatAdd, FlatFold over a caller-owned []int64): blocked
// wraps it around its own slice, and internal/core runs it on regions
// of its per-tree cell slab, asking Flat and BuildsFlat when a group
// holds or should hold that layout.
//
// The backend is a rebuild-time choice, not a wire format: snapshots
// and WAL records store raw cells, so any snapshot loads into any
// backend.
package psum

import "fmt"

// Kind names a prefix-sum backend implementation.
type Kind string

// The registered backends. Classic is the paper-exact reference;
// blocked and blockfenwick are the cache-optimized layouts (their
// kernels are priced by BenchmarkBackendPrefixSum and
// BenchmarkBackendAdd); Auto, the default, chooses between classic and
// blocked per group from the group's density.
const (
	Classic      Kind = "classic"
	Blocked      Kind = "blocked"
	BlockFenwick Kind = "blockfenwick"
	Auto         Kind = "auto"
)

// Kinds returns every registered backend kind in registration order,
// classic first; the order fixes Index, so new kinds are appended.
func Kinds() []Kind { return []Kind{Classic, Blocked, BlockFenwick, Auto} }

// ParseKind normalizes a backend name; the empty string selects the
// default (auto). ParseKind("") is the one source of the default's
// name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "":
		return Auto, nil
	case Classic, Blocked, BlockFenwick, Auto:
		return Kind(s), nil
	}
	return "", fmt.Errorf("psum: unknown backend %q (have auto, classic, blocked, blockfenwick)", s)
}

// Index returns a dense stable index for a kind (classic = 0), for
// label arrays; unknown kinds map to classic.
func Index(k Kind) int {
	for i, kk := range Kinds() {
		if kk == k {
			return i
		}
	}
	return 0
}

// Backend is the 1-d cumulative structure in the B_c slot. Keys are
// dense indices in [0, Universe()); absent keys read as 0.
//
// Concurrency follows the core tree's contract: PrefixSumVisits, Get,
// Total, Len, StorageCells and ForEach are pure reads, safe for any
// number of concurrent callers; Add and Grow require exclusive access.
type Backend interface {
	// PrefixSum returns the sum of all values with index <= key — the
	// cumulative row sum of Section 4.1. Negative keys yield 0; keys at
	// or beyond the universe yield the total.
	PrefixSum(key int) int64
	// PrefixSumVisits is PrefixSum returning, in addition, the number
	// of storage cells the descent read (the operation-cost model's
	// currency). It writes no state at all.
	PrefixSumVisits(key int) (int64, uint64)
	// Add adds delta to the value at key (0 <= key < Universe()) and
	// returns the number of cells written.
	Add(key int, delta int64) uint64
	// Get returns the value stored at key (0 if absent or out of range).
	Get(key int) int64
	// Total returns the sum of every value.
	Total() int64
	// Universe returns the exclusive key bound fixed at construction
	// (or extended by Grow).
	Universe() int
	// Grow extends the key space to newUniverse; keys below the old
	// universe keep their values. A smaller or equal universe is a
	// no-op. Growth is a rebuild (O(universe) for the flat layouts), so
	// callers treat it as a rare, exclusive-access operation.
	Grow(newUniverse int)
	// Len returns the number of keys holding nonzero values.
	Len() int
	// StorageCells returns the number of int64 cells the structure
	// retains — the storage-cost model of Section 5.
	StorageCells() int
	// ForEach calls fn for every nonzero key in ascending order.
	ForEach(fn func(key int, value int64))
	// Kind names the implementation.
	Kind() Kind
}

// New returns an empty backend of the given kind over [0, universe).
// Fanout applies to the classic B-tree only (the blocked layouts have
// fixed, cache-line-derived branching). It panics on an unregistered
// kind: callers validate via ParseKind at configuration time.
func New(kind Kind, universe, fanout int) Backend {
	switch kind {
	case Auto, "":
		return newAuto(universe, fanout)
	case Classic:
		c := newClassic(universe, fanout)
		return &c
	case Blocked:
		b := makeBlocked(universe)
		return &b
	case BlockFenwick:
		return newBlockFenwick(universe)
	}
	panic(fmt.Sprintf("psum: unknown backend %q", kind))
}

// FromSlice bulk-builds a backend whose key i holds values[i]; the
// universe is len(values). Construction is a single bottom-up pass —
// O(k) for the flat layouts — with no per-key update maintenance.
func FromSlice(kind Kind, values []int64, fanout int) Backend {
	switch kind {
	case Auto, "":
		return autoFromSlice(values, fanout)
	case Classic:
		c := classicFromSlice(values, fanout)
		return &c
	case Blocked:
		b := blockedFromSlice(values)
		return &b
	case BlockFenwick:
		return blockFenwickFromSlice(values)
	}
	panic(fmt.Sprintf("psum: unknown backend %q", kind))
}

// BuildsFlat reports whether FromSlice(kind, values, _) builds the flat
// layout of the flat kernel (FlatSize and friends) — always for
// blocked, for auto once the values are dense enough — so a caller
// keeping its own cell storage can lay the group out there with
// FlatFold instead. An empty group of any universe starts flat exactly
// when BuildsFlat(kind, nil) does.
func BuildsFlat(kind Kind, values []int64) bool {
	switch kind {
	case Blocked:
		return true
	case Auto, "":
		nonzero := 0
		for _, v := range values {
			if v != 0 {
				nonzero++
			}
		}
		return dense(nonzero, len(values))
	}
	return false
}

// Flat returns the cells of b's flat layout (FlatSize(b.Universe())
// long) when b currently holds one: a blocked backend, or an auto
// backend past its promotion. The slice aliases b's storage.
func Flat(b Backend) ([]int64, bool) {
	switch t := b.(type) {
	case *blocked:
		return t.cells, true
	case *auto:
		return t.bl.cells, t.tr == nil
	}
	return nil, false
}
