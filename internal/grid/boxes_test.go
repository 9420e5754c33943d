package grid

import (
	"math/rand"
	"testing"
)

// TestBoxesSumMatchesCells checks Sum — the scalar d = 2 loop and the
// general one — and Cells against a cell-by-cell count of each box's
// intersection with random query boxes, for d = 1..3, with deltas near
// ±2^62 so the products wrap.
func TestBoxesSumMatchesCells(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	randBox := func(d int) (Point, Point) {
		lo, hi := make(Point, d), make(Point, d)
		for i := range lo {
			x, y := r.Intn(9)-2, r.Intn(9)-2
			lo[i], hi[i] = min(x, y), max(x, y)
		}
		return lo, hi
	}
	for d := 1; d <= 3; d++ {
		var b Boxes
		type box struct {
			lo, hi Point
			delta  int64
		}
		var ref []box
	fresh:
		for len(ref) < 12 {
			lo, hi := randBox(d)
			for _, bx := range ref {
				if bx.lo.Equal(lo) && bx.hi.Equal(hi) {
					continue fresh // keep the merge out of this test
				}
			}
			delta := int64(1)<<62 - int64(r.Intn(100))
			if r.Intn(2) == 0 {
				delta = -delta
			}
			b.Add(lo, hi, delta)
			ref = append(ref, box{lo, hi, delta})
		}
		for k := 0; k < 200; k++ {
			qlo, qhi := randBox(d)
			var want int64
			wantHits := 0
			for i, bx := range ref {
				var cells int64
				ForEachInBox(bx.lo, bx.hi, func(p Point) {
					in := true
					for j, v := range p {
						in = in && qlo[j] <= v && v <= qhi[j]
					}
					if in {
						cells++
					}
				})
				if got := b.Cells(i, qlo, qhi); got != cells {
					t.Fatalf("d%d: Cells(%d, %v, %v) = %d, want %d", d, i, qlo, qhi, got, cells)
				}
				want += bx.delta * cells
				if cells != 0 {
					wantHits++
				}
			}
			if got, hits := b.Sum(qlo, qhi); got != want || hits != wantHits {
				t.Fatalf("d%d: Sum(%v, %v) = %d (%d hits), want %d (%d hits)", d, qlo, qhi, got, hits, want, wantHits)
			}
		}
	}
}

// TestBoxesAddMergesAndCancels pins Add's identical-box merge: a
// repeat of an outstanding box changes its delta in place, an exact
// inverse drops it, and Box reads back the survivors in order.
func TestBoxesAddMergesAndCancels(t *testing.T) {
	var b Boxes
	a0, a1 := Point{0, 1}, Point{2, 3}
	c0, c1 := Point{1, 1}, Point{1, 4}
	if b.Add(a0, a1, 5) || b.Add(c0, c1, 7) {
		t.Fatal("fresh boxes reported a merge")
	}
	if !b.Add(a0, a1, 2) || b.Len() != 2 {
		t.Fatalf("repeat: merged into %d boxes, want 2", b.Len())
	}
	if lo, hi, delta := b.Box(0); !lo.Equal(a0) || !hi.Equal(a1) || delta != 7 {
		t.Fatalf("Box(0) = %v %v %d, want %v %v 7", lo, hi, delta, a0, a1)
	}
	if !b.Add(a0, a1, -7) || b.Len() != 1 {
		t.Fatalf("inverse: %d boxes left, want 1", b.Len())
	}
	if lo, hi, delta := b.Box(0); !lo.Equal(c0) || !hi.Equal(c1) || delta != 7 {
		t.Fatalf("Box(0) after cancel = %v %v %d, want %v %v 7", lo, hi, delta, c0, c1)
	}
	a0[0] = 9 // Add copied the corners
	if got, hits := b.Sum(Point{0, 0}, Point{5, 5}); got != 7*4 || hits != 1 {
		t.Fatalf("Sum = %d (%d hits), want 28 (1 hit)", got, hits)
	}
}
