package core

import (
	"errors"
	"testing"

	"ddc/internal/grid"
)

// refCube is a flat map ground truth for mixed point/box updates.
type refCube map[string]int64

func (r refCube) add(p grid.Point, v int64) { r[p.String()] += v }
func (r refCube) addBox(lo, hi grid.Point, v int64) {
	grid.ForEachInBox(lo, hi, func(p grid.Point) { r[p.String()] += v })
}
func (r refCube) get(p grid.Point) int64 { return r[p.String()] }

// TestRangeAddMatchesPerCellReference interleaves point adds and box
// adds against a per-cell map reference and checks every cell, prefix
// and a sample of range sums both while deltas are pending and after
// FlushPending, across tile/fanout configurations and dimensionalities.
func TestRangeAddMatchesPerCellReference(t *testing.T) {
	for _, dims := range [][]int{{13}, {8, 8}, {5, 9}, {4, 4, 4}} {
		for _, cfg := range []Config{{Tile: 1, Fanout: 3}, {Tile: 2}, {}} {
			tr, err := NewWithConfig(dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := refCube{}
			s := int64(99)
			next := func(n int) int {
				s = s*6364136223846793005 + 1442695040888963407
				v := int(s % int64(n))
				if v < 0 {
					v += n
				}
				return v
			}
			for i := 0; i < 60; i++ {
				p := make(grid.Point, len(dims))
				for j := range p {
					p[j] = next(dims[j])
				}
				delta := int64(next(11) - 5)
				if i%3 == 0 {
					if err := tr.Add(p, delta); err != nil {
						t.Fatal(err)
					}
					ref.add(p, delta)
					continue
				}
				lo := make(grid.Point, len(dims))
				hi := make(grid.Point, len(dims))
				for j := range lo {
					a, b := p[j], next(dims[j])
					if a > b {
						a, b = b, a
					}
					lo[j], hi[j] = a, b
				}
				if err := tr.RangeAdd(lo, hi, delta); err != nil {
					t.Fatal(err)
				}
				ref.addBox(lo, hi, delta)
			}

			check := func(stage string) {
				t.Helper()
				var total, prefix int64
				_ = total
				ext, _ := grid.NewExtent(dims)
				ext.ForEach(func(p grid.Point) {
					if got, want := tr.Get(p), ref.get(p); got != want {
						t.Fatalf("dims %v cfg %+v %s: Get(%v) = %d, want %d", dims, cfg, stage, p, got, want)
					}
					prefix = 0
					pext, _ := grid.NewExtent(intsAdd(p, 1))
					pext.ForEach(func(q grid.Point) { prefix += ref.get(q) })
					if got := tr.Prefix(p); got != prefix {
						t.Fatalf("dims %v cfg %+v %s: Prefix(%v) = %d, want %d", dims, cfg, stage, p, got, prefix)
					}
				})
				for _, v := range ref {
					total += v
				}
				if got := tr.Total(); got != total {
					t.Fatalf("dims %v cfg %+v %s: Total = %d, want %d", dims, cfg, stage, got, total)
				}
			}
			check("pending")
			if tr.PendingBoxes() == 0 {
				t.Fatalf("dims %v cfg %+v: no pending boxes recorded", dims, cfg)
			}
			tr.FlushPending()
			if tr.PendingBoxes() != 0 {
				t.Fatalf("dims %v cfg %+v: %d pending boxes after flush", dims, cfg, tr.PendingBoxes())
			}
			check("flushed")
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("dims %v cfg %+v: invariants after flush: %v", dims, cfg, err)
			}
		}
	}
}

func intsAdd(p grid.Point, k int) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[i] = v + k
	}
	return out
}

// TestRangeAddBatchCacheInvalidation pins the epoch bump: a batched
// range sum populates the corner prefix cache, and a RangeAdd (a pure
// pending-list mutation that touches no tree node) must still
// invalidate it so the next batch sees the box delta.
func TestRangeAddBatchCacheInvalidation(t *testing.T) {
	tr, err := NewWithConfig([]int{16, 16}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(grid.Point{3, 3}, 7); err != nil {
		t.Fatal(err)
	}
	queries := []Box{
		{Lo: grid.Point{0, 0}, Hi: grid.Point{7, 7}},
		{Lo: grid.Point{2, 2}, Hi: grid.Point{7, 7}},
		{Lo: grid.Point{0, 0}, Hi: grid.Point{15, 15}},
	}
	got, _, _, err := tr.RangeSumBatchOps(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{7, 7, 7} {
		if got[i] != want {
			t.Fatalf("pre-update batch[%d] = %d, want %d", i, got[i], want)
		}
	}
	if err := tr.RangeAdd(grid.Point{0, 0}, grid.Point{3, 3}, 2); err != nil {
		t.Fatal(err)
	}
	got, _, _, err = tr.RangeSumBatchOps(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{7 + 32, 7 + 8, 7 + 32} {
		if got[i] != want {
			t.Fatalf("post-update batch[%d] = %d, want %d (stale prefix cache?)", i, got[i], want)
		}
	}
}

// TestRangeAddFlushOnGrow: Grow must push pending deltas down before
// freezing the old region behind a delegating box, and a pending box
// must stay inside bounds (never silently cover grown space).
func TestRangeAddFlushOnGrow(t *testing.T) {
	tr, err := NewWithConfig([]int{8, 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RangeAdd(grid.Point{1, 1}, grid.Point{4, 4}, 3); err != nil {
		t.Fatal(err)
	}
	if tr.PendingBoxes() != 1 {
		t.Fatalf("pending = %d, want 1", tr.PendingBoxes())
	}
	if err := tr.Grow([]bool{false, true}); err != nil {
		t.Fatal(err)
	}
	if tr.PendingBoxes() != 0 {
		t.Fatalf("pending after Grow = %d, want 0", tr.PendingBoxes())
	}
	lo, hi := tr.Bounds()
	if lo[1] != -8 || hi[0] != 16 {
		t.Fatalf("bounds after grow = %v..%v", lo, hi)
	}
	if got := tr.Get(grid.Point{2, 2}); got != 3 {
		t.Fatalf("old-region cell = %d, want 3", got)
	}
	if got := tr.Get(grid.Point{2, -2}); got != 0 {
		t.Fatalf("grown-region cell = %d, want 0", got)
	}
	if got := tr.Total(); got != 16*3 {
		t.Fatalf("total after grow = %d, want 48", got)
	}
	// A fresh box in the grown (negative) region works post-growth.
	if err := tr.RangeAdd(grid.Point{0, -4}, grid.Point{1, -3}, 5); err != nil {
		t.Fatal(err)
	}
	if got := tr.Get(grid.Point{1, -3}); got != 5 {
		t.Fatalf("negative-coordinate box cell = %d, want 5", got)
	}
	tr.Materialize()
	if tr.PendingBoxes() != 0 {
		t.Fatalf("pending after Materialize = %d, want 0", tr.PendingBoxes())
	}
	if got := tr.Total(); got != 16*3+4*5 {
		t.Fatalf("total after materialize = %d, want 68", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeAddExplainPendingContribution: ExplainPrefix over a region
// intersecting pending boxes reports KindPending parts whose values sum
// to exactly the pending share of the answer.
func TestRangeAddExplainPendingContribution(t *testing.T) {
	tr, err := NewWithConfig([]int{8, 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(grid.Point{1, 1}, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.RangeAdd(grid.Point{0, 0}, grid.Point{2, 2}, 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.RangeAdd(grid.Point{2, 2}, grid.Point{7, 7}, 1); err != nil {
		t.Fatal(err)
	}
	sum, parts := tr.ExplainPrefix(grid.Point{3, 3})
	// 10 + 4*9 (full first box) + 1*4 (clipped second box).
	if sum != 50 {
		t.Fatalf("ExplainPrefix sum = %d, want 50", sum)
	}
	var pendingSum int64
	var pendingParts int
	for _, c := range parts {
		if c.Kind == KindPending {
			pendingSum += c.Value
			pendingParts++
		}
	}
	if pendingParts != 2 || pendingSum != 40 {
		t.Fatalf("pending contributions: %d parts summing %d, want 2 parts summing 40", pendingParts, pendingSum)
	}
	if KindPending.String() != "pending" {
		t.Fatalf("KindPending.String() = %q", KindPending.String())
	}
	tr.FlushPending()
	sum, parts = tr.ExplainPrefix(grid.Point{3, 3})
	if sum != 50 {
		t.Fatalf("flushed ExplainPrefix sum = %d, want 50", sum)
	}
	for _, c := range parts {
		if c.Kind == KindPending {
			t.Fatalf("pending contribution survives flush: %+v", c)
		}
	}
}

// TestRangeAddValidationAndMerge: error contract and the identical-box
// merge that keeps an update plus its exact inverse residue-free.
func TestRangeAddValidationAndMerge(t *testing.T) {
	tr, err := NewWithConfig([]int{8, 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi grid.Point
		want   error
	}{
		{grid.Point{0}, grid.Point{1, 1}, grid.ErrDims},
		{grid.Point{0, 0}, grid.Point{8, 3}, grid.ErrRange},
		{grid.Point{-1, 0}, grid.Point{3, 3}, grid.ErrRange},
		{grid.Point{4, 4}, grid.Point{2, 6}, grid.ErrEmptyRange},
	}
	for _, c := range cases {
		if err := tr.RangeAdd(c.lo, c.hi, 1); !errors.Is(err, c.want) {
			t.Fatalf("RangeAdd(%v, %v) = %v, want %v", c.lo, c.hi, err, c.want)
		}
	}
	if tr.PendingBoxes() != 0 {
		t.Fatalf("rejected updates left %d pending boxes", tr.PendingBoxes())
	}

	box := [2]grid.Point{{1, 1}, {5, 5}}
	if err := tr.RangeAdd(box[0], box[1], 0); err != nil {
		t.Fatal(err)
	}
	if tr.PendingBoxes() != 0 {
		t.Fatal("zero delta recorded a pending box")
	}
	for _, d := range []int64{3, 4} {
		if err := tr.RangeAdd(box[0], box[1], d); err != nil {
			t.Fatal(err)
		}
	}
	if tr.PendingBoxes() != 1 {
		t.Fatalf("identical boxes not merged: pending = %d", tr.PendingBoxes())
	}
	if got := tr.Get(grid.Point{2, 2}); got != 7 {
		t.Fatalf("merged cell = %d, want 7", got)
	}
	if err := tr.RangeAdd(box[0], box[1], -7); err != nil {
		t.Fatal(err)
	}
	if tr.PendingBoxes() != 0 {
		t.Fatalf("exact inverse left %d pending boxes", tr.PendingBoxes())
	}
	if got := tr.Total(); got != 0 {
		t.Fatalf("total after cancel = %d, want 0", got)
	}
}
