package grid

import "slices"

// Boxes is a list of weighted inclusive boxes: box i raises every cell
// of [lo, hi] by its delta. It is the one representation of outstanding
// range updates — the core tree's pending list and the buffered write
// front's delta boxes both compose queries from it — stored flat and
// pointer-free: box i's corners are corners[2d·i : 2d·(i+1)] (lo, then
// hi) and its delta is deltas[i], so a query pass reads two contiguous
// arrays. The zero value is an empty list; the first Add fixes d.
type Boxes struct {
	d       int
	corners []int
	deltas  []int64
}

// Len returns the number of boxes.
func (b *Boxes) Len() int { return len(b.deltas) }

// Box returns box i's corners and delta. The corners alias the list's
// storage: they stay valid until the next Add and must not be modified.
func (b *Boxes) Box(i int) (lo, hi Point, delta int64) {
	c := b.corners[2*b.d*i : 2*b.d*(i+1)]
	return c[:b.d], c[b.d:], b.deltas[i]
}

// Add records delta (nonzero) over the inclusive box [lo, hi], copying
// the corners. An identical outstanding box absorbs it instead — and is
// dropped when the deltas cancel, so an update followed by its exact
// inverse leaves nothing behind. Add reports whether it merged.
func (b *Boxes) Add(lo, hi Point, delta int64) (merged bool) {
	mustSameDims(len(lo), len(hi))
	b.d = len(lo)
	for i := range b.deltas {
		l, h, _ := b.Box(i)
		if !l.Equal(lo) || !h.Equal(hi) {
			continue
		}
		if b.deltas[i] += delta; b.deltas[i] == 0 {
			b.corners = slices.Delete(b.corners, 2*b.d*i, 2*b.d*(i+1))
			b.deltas = slices.Delete(b.deltas, i, i+1)
		}
		return true
	}
	b.corners = append(append(b.corners, lo...), hi...)
	b.deltas = append(b.deltas, delta)
	return false
}

// Cells returns the number of cells box i shares with the inclusive box
// [lo, hi], 0 when they are disjoint.
func (b *Boxes) Cells(i int, lo, hi Point) int64 {
	c := b.corners[2*b.d*i : 2*b.d*(i+1)]
	cells := int64(1)
	for j, l := range lo {
		w := min(c[b.d+j], hi[j]) - max(c[j], l) + 1
		if w <= 0 {
			return 0
		}
		cells *= int64(w)
	}
	return cells
}

// Sum returns Σ delta_i · |box_i ∩ [lo, hi]| — the boxes' share of the
// range sum over the inclusive box [lo, hi] — and hits, the number of
// boxes that meet it. One pass, O(d) per box; the product wraps mod
// 2^64 exactly like the per-cell sum it stands for. Two-dimensional
// lists take a scalar loop.
func (b *Boxes) Sum(lo, hi Point) (sum int64, hits int) {
	if b.d == 2 {
		return b.sum2(lo[0], lo[1], hi[0], hi[1])
	}
	for i, delta := range b.deltas {
		if c := b.Cells(i, lo, hi); c != 0 {
			sum += delta * c
			hits++
		}
	}
	return sum, hits
}

// sum2 is Sum for d = 2 over [l0, h0] × [l1, h1]. It takes no branch
// per box — a disjoint box has a zero width and adds delta · 0, and the
// sign bit of -cells counts the boxes that meet the query — which
// measured about a third faster than branching on the overlap.
func (b *Boxes) sum2(l0, l1, h0, h1 int) (sum int64, hits int) {
	c := b.corners
	for i, delta := range b.deltas {
		bx := c[4*i : 4*i+4 : 4*i+4]
		w0 := max(0, min(bx[2], h0)-max(bx[0], l0)+1)
		w1 := max(0, min(bx[3], h1)-max(bx[1], l1)+1)
		cells := int64(w0 * w1)
		sum += delta * cells
		hits += int(uint64(-cells) >> 63)
	}
	return sum, hits
}
