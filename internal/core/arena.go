package core

import (
	"fmt"

	"ddc/internal/psum"
)

// Slab addressing. Every record and cell region of a tree lives in one
// of its arena's slabs and is named by an int32 address
// page<<pageShift | offset. Pages start at firstPage elements and
// double up to pageCap; a region never straddles a page, and a region
// longer than pageCap gets a page of its own (offset 0). Pages are never
// reallocated once made — a slab grows by adding pages — so no update
// copies the slab, a pointer into a page stays valid across later
// allocations, and the unused tail of the open page bounds the slack.
const (
	pageShift = 14
	pageCap   = 1 << pageShift
	pageMask  = pageCap - 1
	firstPage = 64
	maxPages  = 1 << (31 - pageShift)
)

// noRec is the absent address: no children block, no leaf tile, no
// group storage.
const noRec int32 = -1

// slab is a paged store of T addressed by int32. Each page's len is its
// used prefix and its cap its size; open indexes the page new regions
// are cut from.
type slab[T any] struct {
	pages [][]T
	open  int
}

// alloc reserves n consecutive zero-valued elements inside one page
// and returns the address of the first.
func (s *slab[T]) alloc(n int) int32 {
	if len(s.pages) > 0 {
		pg := s.pages[s.open]
		if off := len(pg); off+n <= cap(pg) {
			s.pages[s.open] = pg[:off+n]
			return int32(s.open<<pageShift | off)
		}
	}
	if len(s.pages) >= maxPages {
		panic(fmt.Sprintf("core: arena slab exceeds %d pages", maxPages))
	}
	if n > pageCap {
		// An oversized region gets a page of its own; the open page
		// stays open for the regions after it.
		s.pages = append(s.pages, make([]T, n))
		return int32((len(s.pages) - 1) << pageShift)
	}
	size := firstPage
	if len(s.pages) > 0 {
		size = min(2*cap(s.pages[s.open]), pageCap)
	}
	s.pages = append(s.pages, make([]T, n, max(size, n)))
	s.open = len(s.pages) - 1
	return int32(s.open << pageShift)
}

// at returns the element at address a. Records come in blocks of at
// most 2^d, never in an oversized page, so a block member's address is
// the block's plus its index.
func (s *slab[T]) at(a int32) *T { return &s.pages[a>>pageShift][a&pageMask] }

// region returns the n elements starting i past address a.
func (s *slab[T]) region(a int32, i, n int) []T {
	off := int(a&pageMask) + i
	return s.pages[a>>pageShift][off : off+n : off+n]
}

// valid reports whether [a, a+n) lies inside the used part of one page.
func (s *slab[T]) valid(a int32, n int) bool {
	if a < 0 || int(a>>pageShift) >= len(s.pages) {
		return false
	}
	return int(a&pageMask)+n <= len(s.pages[a>>pageShift])
}

// nodeRec is one tree node. An inner node names its block of 2^d child
// records (child ci at child+ci) and its block of 2^d box records; a
// leaf names its tile^d raw cells in the leaves slab. A record whose
// fields are all noRec is an all-zero region.
type nodeRec struct {
	child, box, leaf int32
}

var absentNode = nodeRec{noRec, noRec, noRec}

// absent reports whether the record stands for an all-zero region.
func (n nodeRec) absent() bool { return n.box < 0 && n.leaf < 0 }

// boxKind says where an overlay box keeps its d row-sum groups.
type boxKind uint8

const (
	// boxAbsent: no box (the zero value, so a fresh block is empty).
	boxAbsent boxKind = iota
	// boxFlat: the groups are flat layouts back to back in the cells
	// slab, group j at ref + j*psum.FlatSize(k); at d = 1 the box has
	// no groups and ref is noRec.
	boxFlat
	// boxSide: the groups are the d side-table slots at ref.
	boxSide
	// boxDelegate: Section 5 growth left the box without groups; face
	// values are answered through the child subtree.
	boxDelegate
)

// boxRec is one overlay box: the subtotal and where its groups live.
// Sixteen bytes, so a d = 2 node's four boxes fill one cache line.
type boxRec struct {
	sub  int64
	ref  int32
	kind boxKind
}

// arena holds a tree's records and cells. Nested group trees (d > 2)
// share their outer tree's arena, so a small nested cube pays for no
// page of its own.
type arena struct {
	nodes  slab[nodeRec]
	boxes  slab[boxRec]
	cells  slab[int64] // flat row-sum groups
	leaves slab[int64] // leaf tiles
	side   slab[group] // non-flat groups

	// free lists two-slot side blocks released when a d = 2 box moved
	// its groups into the cells slab; allocSide(2) reuses them.
	free []int32
}

// newBlock allocates an inner node's child block (all absent) and box
// block (all empty) and returns the node's record.
func (ar *arena) newBlock(nc int) nodeRec {
	child := ar.nodes.alloc(nc)
	for i, kids := 0, ar.nodes.region(child, 0, nc); i < nc; i++ {
		kids[i] = absentNode
	}
	return nodeRec{child: child, box: ar.boxes.alloc(nc), leaf: noRec}
}

// newRecord stores rec as a single record (a root) and returns its
// address.
func (ar *arena) newRecord(rec nodeRec) int32 {
	a := ar.nodes.alloc(1)
	*ar.nodes.at(a) = rec
	return a
}

// allocSide reserves n side-table slots; only d = 2 boxes release
// blocks, so only two-slot requests reuse freed ones.
func (ar *arena) allocSide(n int) int32 {
	if n == 2 && len(ar.free) > 0 {
		a := ar.free[len(ar.free)-1]
		ar.free = ar.free[:len(ar.free)-1]
		return a
	}
	return ar.side.alloc(n)
}

// flatten moves a d = 2 side box into the cells slab once both of its
// groups hold the flat layout — psum decides when a group is flat
// (auto promotion), core only relocates the cells — and frees the side
// block for reuse.
func (ar *arena) flatten(b *boxRec, k int) {
	gs := ar.side.region(b.ref, 0, 2)
	c0, ok0 := psum.Flat(gs[0].ps)
	c1, ok1 := psum.Flat(gs[1].ps)
	if !ok0 || !ok1 {
		return
	}
	fs := psum.FlatSize(k)
	ref := ar.cells.alloc(2 * fs)
	copy(ar.cells.region(ref, 0, fs), c0)
	copy(ar.cells.region(ref, fs, fs), c1)
	gs[0], gs[1] = group{}, group{}
	ar.free = append(ar.free, b.ref)
	b.ref, b.kind = ref, boxFlat
}
