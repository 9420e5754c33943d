package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/obs"
)

// batchTree builds a tree over random data and brings it into state:
// "fixed" (bulk-built), "pending" (plus lazily composed RangeAdd
// boxes) or "grown" (grown before in dimension 0 and after in the
// others, new cells written, one box pending across the seam).
func batchTree(t *testing.T, dims []int, state string, r *rand.Rand) *Tree {
	t.Helper()
	tr, err := BuildFromArray(randomArray(t, dims, r.Int63()), Config{Tile: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := len(dims)
	randBox := func() (lo, hi grid.Point) {
		blo, bhi := tr.Bounds()
		lo, hi = make(grid.Point, d), make(grid.Point, d)
		for i := range lo {
			x, y := blo[i]+r.Intn(bhi[i]-blo[i]), blo[i]+r.Intn(bhi[i]-blo[i])
			lo[i], hi[i] = min(x, y), max(x, y)
		}
		return lo, hi
	}
	switch state {
	case "pending":
		for i := 0; i < 5; i++ {
			lo, hi := randBox()
			if err := tr.RangeAdd(lo, hi, int64(r.Intn(21)-10)); err != nil {
				t.Fatal(err)
			}
		}
	case "grown":
		before := make([]bool, d)
		before[0] = true
		if err := tr.Grow(before); err != nil {
			t.Fatal(err)
		}
		blo, bhi := tr.Bounds()
		for i := 0; i < 40; i++ {
			p := make(grid.Point, d)
			for j := range p {
				p[j] = blo[j] + r.Intn(bhi[j]-blo[j])
			}
			if err := tr.Add(p, int64(r.Intn(50)+1)); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi := randBox()
		if err := tr.RangeAdd(lo, hi, 3); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// randomBoxes returns n random boxes inside tr's bounds.
func randomBoxes(tr *Tree, n int, r *rand.Rand) []Box {
	blo, bhi := tr.Bounds()
	out := make([]Box, n)
	for k := range out {
		lo, hi := make(grid.Point, len(blo)), make(grid.Point, len(blo))
		for i := range lo {
			x, y := blo[i]+r.Intn(bhi[i]-blo[i]), blo[i]+r.Intn(bhi[i]-blo[i])
			lo[i], hi[i] = min(x, y), max(x, y)
		}
		out[k] = Box{Lo: lo, Hi: hi}
	}
	return out
}

// distinctCorners lists the distinct non-empty corners of boxes (a
// coordinate below the origin makes a corner empty) in first-seen
// order — the descents a cold batch must pay for.
func distinctCorners(tr *Tree, boxes []Box) []grid.Point {
	origin := tr.Origin()
	seen := map[string]bool{}
	var out []grid.Point
	for _, b := range boxes {
	corners:
		for mask := 0; mask < 1<<uint(len(origin)); mask++ {
			c := b.Hi.Clone()
			for i := range c {
				if mask>>uint(i)&1 != 0 {
					c[i] = b.Lo[i] - 1
				}
				if c[i] < origin[i] {
					continue corners
				}
			}
			if k := fmt.Sprint(c); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// checkBatch runs boxes as one batch on tr (cache state as the caller
// left it) and checks the answers against a RangeSum loop, the op
// counts against the reference tree-only descents of the corners in
// wantMiss plus one pending term per (query box, pending box) pair
// that meets, and the cache split.
func checkBatch(t *testing.T, name string, tr *Tree, boxes []Box, wantMiss []grid.Point, wantHits int) BatchStats {
	t.Helper()
	out := make([]int64, len(boxes))
	gotOps, st, _, err := tr.RangeSumBatchTraceOps(boxes, out, nil, obs.NoSpan)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range boxes {
		want, err := tr.RangeSum(b.Lo, b.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("%s: box %d [%v, %v] = %d, RangeSum %d", name, i, b.Lo, b.Hi, out[i], want)
		}
	}
	var wantOps cube.OpCounter
	for _, c := range wantMiss {
		refTreePrefix(tr, c, &wantOps, nil)
	}
	for _, b := range boxes {
		refPendingHits(tr, b.Lo, b.Hi, &wantOps)
	}
	if gotOps != wantOps {
		t.Fatalf("%s: batch ops %+v, reference over %d missing corners and %d boxes %+v", name, gotOps, len(wantMiss), len(boxes), wantOps)
	}
	if st.CacheMisses != len(wantMiss) || st.CacheHits != wantHits {
		t.Fatalf("%s: cache hits/misses %d/%d, want %d/%d", name, st.CacheHits, st.CacheMisses, wantHits, len(wantMiss))
	}
	return st
}

// TestBatchMatchesDistinctPrefixes pins what a batch costs: its values
// equal a RangeSum loop's, and its op count is exactly the sum of the
// tree-only descents of its distinct cache-missing corners plus one
// pending term per pending box each query box meets — cold (every
// distinct corner misses) and half warm (a first batch over half the
// boxes has cached its corners). Every tree runs a small batch, which
// descends on the calling goroutine, and a batch with at least
// batchFanoutMin misses, which fans out.
func TestBatchMatchesDistinctPrefixes(t *testing.T) {
	r := rand.New(rand.NewSource(2020))
	for _, tc := range []struct {
		dims  []int
		large int // boxes in the batch above the crossover
	}{
		{[]int{3000}, 1500},
		{[]int{60, 50}, 700},
		{[]int{12, 10, 14}, 500},
	} {
		for _, state := range []string{"fixed", "pending", "grown"} {
			tr := batchTree(t, tc.dims, state, r)
			for _, n := range []int{6, tc.large} {
				name := fmt.Sprintf("d%d/%s/%d", len(tc.dims), state, n)
				boxes := randomBoxes(tr, n, r)
				all := distinctCorners(tr, boxes)

				tr.InvalidatePrefixCache()
				st := checkBatch(t, name+"/cold", tr, boxes, all, 0)
				if n == tc.large && st.CacheMisses < batchFanoutMin {
					t.Fatalf("%s: %d misses, below the fan-out crossover %d", name, st.CacheMisses, batchFanoutMin)
				}

				tr.InvalidatePrefixCache()
				first := boxes[:n/2]
				checkBatch(t, name+"/first", tr, first, distinctCorners(tr, first), 0)
				warm := map[string]bool{}
				for _, c := range distinctCorners(tr, first) {
					warm[fmt.Sprint(c)] = true
				}
				var miss []grid.Point
				for _, c := range all {
					if !warm[fmt.Sprint(c)] {
						miss = append(miss, c)
					}
				}
				checkBatch(t, name+"/warm", tr, boxes, miss, len(all)-len(miss))
			}
		}
	}
}

// TestBatchHighEdgeBoxes runs batches of boxes that touch the domain's
// high edge — the logical bound of a fixed tree whose padded side is
// larger, and the grown bound of a grown tree — against a RangeSum loop
// and a cell-by-cell sum. The planner does not clamp: checkRange has
// already bounded every hi by the domain.
func TestBatchHighEdgeBoxes(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, dims := range [][]int{{13}, {5, 9}, {3, 6, 5}} {
		for _, state := range []string{"fixed", "grown"} {
			tr := batchTree(t, dims, state, r)
			blo, bhi := tr.Bounds()
			d := len(dims)
			var boxes []Box
			for mask := 1; mask < 1<<uint(d); mask++ {
				// Hi on the high edge in the dimensions of mask, lo
				// anywhere (including the edge itself and the origin).
				for k := 0; k < 4; k++ {
					lo, hi := make(grid.Point, d), make(grid.Point, d)
					for i := 0; i < d; i++ {
						lo[i] = blo[i] + r.Intn(bhi[i]-blo[i])
						hi[i] = lo[i] + r.Intn(bhi[i]-lo[i])
						if mask>>uint(i)&1 != 0 {
							hi[i] = bhi[i] - 1
							switch k {
							case 0:
								lo[i] = blo[i]
							case 1:
								lo[i] = hi[i]
							}
						}
					}
					boxes = append(boxes, Box{Lo: lo, Hi: hi})
				}
			}
			tr.InvalidatePrefixCache()
			out, _, _, err := tr.RangeSumBatchOps(boxes)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range boxes {
				want, err := tr.RangeSum(b.Lo, b.Hi)
				if err != nil {
					t.Fatal(err)
				}
				var cells int64
				grid.ForEachInBox(b.Lo, b.Hi, func(p grid.Point) { cells += tr.Get(p) })
				if out[i] != want || out[i] != cells {
					t.Fatalf("dims %v %s: box [%v, %v] batch %d, RangeSum %d, cells %d",
						dims, state, b.Lo, b.Hi, out[i], want, cells)
				}
			}
		}
	}
}
