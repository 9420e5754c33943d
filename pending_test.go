package ddc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ddc/internal/grid"
)

// pendingOracle is the reference side of TestPendingComposePerBox: a
// NaiveCube holding every update cell by cell, a NaiveCube holding the
// point updates only, and the raw list of box updates (unmerged). Its
// per-corner answer is the composition the tree used before pending
// boxes moved to one pass per query box: at each of the 2^d corners,
// the point-only prefix plus every box clipped to the corner's
// dominated region.
type pendingOracle struct {
	naive, points *NaiveCube
	boxes         []RangeQuery
	deltas        []int64
}

func newPendingOracle(t *testing.T, dims []int) *pendingOracle {
	t.Helper()
	naive, err := NewNaive(dims)
	if err != nil {
		t.Fatal(err)
	}
	points, err := NewNaive(dims)
	if err != nil {
		t.Fatal(err)
	}
	return &pendingOracle{naive: naive, points: points}
}

// cornerPrefix is the per-corner reference prefix at p; a coordinate
// below 0 denotes an empty region.
func (o *pendingOracle) cornerPrefix(p []int) int64 {
	for _, v := range p {
		if v < 0 {
			return 0
		}
	}
	sum := o.points.Prefix(p)
	for i, b := range o.boxes {
		cells := int64(1)
		for j, v := range p {
			w := min(b.Hi[j], v) - b.Lo[j] + 1
			if w <= 0 {
				cells = 0
				break
			}
			cells *= int64(w)
		}
		sum += o.deltas[i] * cells
	}
	return sum
}

// cornerRange is the per-corner reference range sum: the signed sum of
// cornerPrefix over the 2^d corners of [lo, hi].
func (o *pendingOracle) cornerRange(lo, hi []int) int64 {
	c := make([]int, len(lo))
	var sum int64
	for mask := 0; mask < 1<<len(lo); mask++ {
		neg := false
		for i := range c {
			c[i] = hi[i]
			if mask>>i&1 != 0 {
				c[i] = lo[i] - 1
				neg = !neg
			}
		}
		if v := o.cornerPrefix(c); neg {
			sum -= v
		} else {
			sum += v
		}
	}
	return sum
}

// pendingDelta draws a box delta: small, or within 1000 of ±2^62 so
// that delta times a box volume wraps mod 2^64.
func pendingDelta(r *rand.Rand) int64 {
	switch r.Intn(3) {
	case 0:
		return 1<<62 - int64(r.Intn(1000))
	case 1:
		return -(1 << 62) + int64(r.Intn(1000))
	default:
		return int64(r.Intn(41) - 20)
	}
}

// pendingProgram applies n seeded updates to c and the oracle: point
// adds, fresh boxes, repeats of an earlier box (which merge) and exact
// inverses of an earlier box's net delta (which cancel). net tracks
// each box's net delta across calls.
func pendingProgram(t *testing.T, c Cube, o *pendingOracle, net map[string]int64, dims []int, r *rand.Rand, n int) {
	t.Helper()
	randBox := func() ([]int, []int) {
		lo, hi := make([]int, len(dims)), make([]int, len(dims))
		for i, side := range dims {
			x, y := r.Intn(side), r.Intn(side)
			lo[i], hi[i] = min(x, y), max(x, y)
		}
		return lo, hi
	}
	for i := 0; i < n; i++ {
		k := r.Intn(8)
		if k < 3 {
			p, _ := randBox()
			v := int64(r.Intn(201) - 100)
			for _, cc := range []Cube{c, o.naive, o.points} {
				if err := cc.Add(p, v); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		lo, hi := randBox()
		delta := pendingDelta(r)
		if k >= 6 && len(o.boxes) > 0 {
			prev := o.boxes[r.Intn(len(o.boxes))]
			lo, hi = prev.Lo, prev.Hi
			if k == 7 {
				delta = -net[fmt.Sprint(lo, hi)]
			}
		}
		for _, cc := range []Cube{c, o.naive} {
			if err := cc.RangeAdd(lo, hi, delta); err != nil {
				t.Fatal(err)
			}
		}
		net[fmt.Sprint(lo, hi)] += delta
		o.boxes = append(o.boxes, RangeQuery{Lo: lo, Hi: hi})
		o.deltas = append(o.deltas, delta)
	}
}

// pendingReader is what checkPendingCompose reads: a cube that explains
// its prefix sums.
type pendingReader interface {
	Cube
	ExplainPrefix(p []int) (int64, []Contribution)
}

// checkPendingCompose compares c with the oracle's NaiveCube and its
// per-corner reference: Get and Prefix (and the ExplainPrefix sum) at
// every cell, RangeSum, a cold batch (invalidate drops the prefix
// cache) and a warm repeat over random boxes, and Total.
func checkPendingCompose(t *testing.T, label string, c pendingReader, invalidate func(), o *pendingOracle, dims []int, r *rand.Rand) {
	t.Helper()
	hi := make(grid.Point, len(dims))
	for i, side := range dims {
		hi[i] = side - 1
	}
	grid.ForEachInBox(make(grid.Point, len(dims)), hi, func(p grid.Point) {
		if got, want := c.Get(p), o.naive.Get(p); got != want {
			t.Fatalf("%s: Get(%v) = %d, naive %d", label, p, got, want)
		}
		want := o.naive.Prefix(p)
		if ref := o.cornerPrefix(p); ref != want {
			t.Fatalf("%s: per-corner reference Prefix(%v) = %d, naive %d", label, p, ref, want)
		}
		if got := c.Prefix(p); got != want {
			t.Fatalf("%s: Prefix(%v) = %d, want %d", label, p, got, want)
		}
		sum, parts := c.ExplainPrefix(p)
		var partSum int64
		for _, pt := range parts {
			partSum += pt.Value
		}
		if sum != want || partSum != want {
			t.Fatalf("%s: ExplainPrefix(%v) = %d (parts sum %d), want %d", label, p, sum, partSum, want)
		}
	})
	queries := make([]RangeQuery, 80)
	want := make([]int64, len(queries))
	for qi := range queries {
		lo, hi := make([]int, len(dims)), make([]int, len(dims))
		for i, side := range dims {
			x, y := r.Intn(side), r.Intn(side)
			lo[i], hi[i] = min(x, y), max(x, y)
		}
		queries[qi] = RangeQuery{Lo: lo, Hi: hi}
		w, err := o.naive.RangeSum(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if ref := o.cornerRange(lo, hi); ref != w {
			t.Fatalf("%s: per-corner reference RangeSum(%v, %v) = %d, naive %d", label, lo, hi, ref, w)
		}
		got, err := c.RangeSum(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("%s: RangeSum(%v, %v) = %d, want %d", label, lo, hi, got, w)
		}
		want[qi] = w
	}
	invalidate()
	for _, pass := range []string{"cold", "warm"} {
		got, err := c.RangeSumBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if got[qi] != want[qi] {
				t.Fatalf("%s: %s batch box %d [%v, %v] = %d, want %d",
					label, pass, qi, queries[qi].Lo, queries[qi].Hi, got[qi], want[qi])
			}
		}
	}
	if got, want := c.Total(), o.naive.Total(); got != want {
		t.Fatalf("%s: Total = %d, want %d", label, got, want)
	}
}

// checkNonZero compares DynamicCube.ForEachNonZero, which merges the
// pending boxes into the stored cells, with the naive cube's cells.
func checkNonZero(t *testing.T, label string, c *DynamicCube, o *pendingOracle, dims []int) {
	t.Helper()
	seen := 0
	c.ForEachNonZero(func(p []int, v int64) {
		seen++
		if want := o.naive.Get(p); v != want || v == 0 {
			t.Fatalf("%s: ForEachNonZero yields %v = %d, naive %d", label, p, v, want)
		}
	})
	want := 0
	hi := make(grid.Point, len(dims))
	for i, side := range dims {
		hi[i] = side - 1
	}
	grid.ForEachInBox(make(grid.Point, len(dims)), hi, func(p grid.Point) {
		if o.naive.Get(p) != 0 {
			want++
		}
	})
	if seen != want {
		t.Fatalf("%s: ForEachNonZero yields %d cells, naive has %d nonzero", label, seen, want)
	}
}

// netBoxes counts the boxes whose net delta is nonzero — the pending
// list's length once identical boxes have merged and cancelled ones
// dropped.
func netBoxes(net map[string]int64) int {
	n := 0
	for _, v := range net {
		if v != 0 {
			n++
		}
	}
	return n
}

// TestPendingComposePerBox pins the pending composition — tree-only
// corner descents plus one pass over the pending boxes per query box —
// to NaiveCube and to the per-corner reference above, for d = 1, 2 and
// 3, on pending sets with merged and cancelled boxes and deltas near
// ±2^62 (so products wrap): on a DynamicCube, and on a Buffered front
// over one with boxes pending in the core tree, the frozen generation
// and the active one. It also pins RangeSum and a warm batch with 64
// pending boxes at zero allocations.
func TestPendingComposePerBox(t *testing.T) {
	// 16x16 fills its padded side exactly, so boxes reach the tree's
	// last internal coordinate.
	for _, dims := range [][]int{{37}, {19, 23}, {16, 16}, {7, 9, 8}} {
		t.Run(strings.Trim(fmt.Sprint(dims), "[]"), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(dims)) * 7919))

			dc, err := NewDynamicWithOptions(dims, Options{Tile: 2})
			if err != nil {
				t.Fatal(err)
			}
			o := newPendingOracle(t, dims)
			net := map[string]int64{}
			pendingProgram(t, dc, o, net, dims, r, 120)
			if got, want := dc.PendingBoxes(), netBoxes(net); got != want || got == 0 {
				t.Fatalf("dynamic: %d pending boxes, want %d (nonzero)", got, want)
			}
			checkPendingCompose(t, "dynamic", dc, dc.InvalidatePrefixCache, o, dims, r)
			checkNonZero(t, "dynamic", dc, o, dims)

			inner, err := NewDynamicWithOptions(dims, Options{Tile: 2})
			if err != nil {
				t.Fatal(err)
			}
			b := newBufferedManual(t, inner)
			o = newPendingOracle(t, dims)
			net = map[string]int64{}
			pendingProgram(t, b, o, net, dims, r, 40)
			if err := b.Drain(); err != nil {
				t.Fatal(err)
			}
			pendingProgram(t, b, o, net, dims, r, 40)
			frozen := freezeActive(b)
			pendingProgram(t, b, o, net, dims, r, 40)
			if st := b.Stats(); inner.PendingBoxes() == 0 || st.FrozenBoxes == 0 || st.Boxes == 0 {
				t.Fatalf("buffered: boxes pending in core/frozen/active = %d/%d/%d, want all nonzero",
					inner.PendingBoxes(), st.FrozenBoxes, st.Boxes)
			}
			checkPendingCompose(t, "buffered", b, inner.InvalidatePrefixCache, o, dims, r)
			finishFrozen(t, b, frozen)
			if err := b.Drain(); err != nil {
				t.Fatal(err)
			}
			checkPendingCompose(t, "buffered/drained", inner, inner.InvalidatePrefixCache, o, dims, r)
			checkNonZero(t, "buffered/drained", inner, o, dims)
		})
	}
	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector instruments allocations")
		}
		dims := []int{128, 128}
		c, err := NewDynamic(dims)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(64))
		for i := 0; i < 2000; i++ {
			if err := c.Add([]int{r.Intn(128), r.Intn(128)}, int64(r.Intn(100)+1)); err != nil {
				t.Fatal(err)
			}
		}
		for c.PendingBoxes() < 64 {
			lo := []int{r.Intn(112), r.Intn(112)}
			hi := []int{lo[0] + r.Intn(16), lo[1] + r.Intn(16)}
			if err := c.RangeAdd(lo, hi, int64(r.Intn(100)+1)); err != nil {
				t.Fatal(err)
			}
		}
		queries := make([]RangeQuery, 16)
		for i := range queries {
			lo := []int{r.Intn(64), r.Intn(64)}
			queries[i] = RangeQuery{Lo: lo, Hi: []int{lo[0] + r.Intn(64), lo[1] + r.Intn(64)}}
		}
		q := queries[0]
		if a := testing.AllocsPerRun(100, func() {
			if _, err := c.RangeSum(q.Lo, q.Hi); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("RangeSum with 64 pending boxes: %.1f allocs/op, want 0", a)
		}
		out := make([]int64, len(queries))
		if err := c.RangeSumBatchInto(queries, out); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() {
			if err := c.RangeSumBatchInto(queries, out); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("warm batch with 64 pending boxes: %.1f allocs/op, want 0", a)
		}
	})
}

// freezeActive moves b's active generation to frozen, as a drain does
// before it takes the tree, so queries compose both generations; it
// returns the frozen generation for finishFrozen.
func freezeActive(b *Buffered) *deltaBuf {
	b.dmu.Lock()
	defer b.dmu.Unlock()
	f := b.active
	b.frozen, b.active = f, newDeltaBuf()
	return f
}

// finishFrozen completes the drain freezeActive began.
func finishFrozen(t *testing.T, b *Buffered, f *deltaBuf) {
	t.Helper()
	b.applyMu.Lock()
	err := b.drainInto(f)
	b.dmu.Lock()
	b.frozen = nil
	b.dmu.Unlock()
	b.applyMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}
