package grid

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewExtentValidation(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		ok   bool
	}{
		{"empty", nil, false},
		{"zero dim", []int{4, 0}, false},
		{"negative dim", []int{-1}, false},
		{"single", []int{1}, true},
		{"square", []int{8, 8}, true},
		{"ragged", []int{3, 5, 7}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewExtent(c.dims)
			if (err == nil) != c.ok {
				t.Fatalf("NewExtent(%v) error = %v, want ok=%v", c.dims, err, c.ok)
			}
			if err != nil && !errors.Is(err, ErrBadExtent) {
				t.Fatalf("error %v should wrap ErrBadExtent", err)
			}
		})
	}
}

func TestExtentBasics(t *testing.T) {
	e := MustExtent(3, 4, 5)
	if e.D() != 3 {
		t.Fatalf("D = %d, want 3", e.D())
	}
	if e.Cells() != 60 {
		t.Fatalf("Cells = %d, want 60", e.Cells())
	}
	if e.Dim(1) != 4 {
		t.Fatalf("Dim(1) = %d, want 4", e.Dim(1))
	}
	dims := e.Dims()
	dims[0] = 99 // must not alias internal state
	if e.Dim(0) != 3 {
		t.Fatal("Dims() aliases internal state")
	}
}

func TestOffsetCoordRoundTrip(t *testing.T) {
	e := MustExtent(3, 4, 5)
	seen := make(map[int]bool)
	e.ForEach(func(p Point) {
		off := e.Offset(p)
		if off < 0 || off >= e.Cells() {
			t.Fatalf("offset %d of %v out of range", off, p)
		}
		if seen[off] {
			t.Fatalf("offset %d visited twice", off)
		}
		seen[off] = true
		back := e.Coord(off, nil)
		if !back.Equal(p) {
			t.Fatalf("Coord(Offset(%v)) = %v", p, back)
		}
	})
	if len(seen) != e.Cells() {
		t.Fatalf("ForEach visited %d cells, want %d", len(seen), e.Cells())
	}
}

func TestOffsetIsRowMajor(t *testing.T) {
	e := MustExtent(2, 3)
	want := 0
	e.ForEach(func(p Point) {
		if got := e.Offset(p); got != want {
			t.Fatalf("Offset(%v) = %d, want %d", p, got, want)
		}
		want++
	})
}

func TestCheckAndContains(t *testing.T) {
	e := MustExtent(4, 4)
	if err := e.Check(Point{3, 3}); err != nil {
		t.Fatalf("Check in-range: %v", err)
	}
	if err := e.Check(Point{4, 0}); !errors.Is(err, ErrRange) {
		t.Fatalf("Check out-of-range error = %v, want ErrRange", err)
	}
	if err := e.Check(Point{0, -1}); !errors.Is(err, ErrRange) {
		t.Fatalf("Check negative error = %v, want ErrRange", err)
	}
	if err := e.Check(Point{1}); !errors.Is(err, ErrDims) {
		t.Fatalf("Check wrong-dims error = %v, want ErrDims", err)
	}
	if !e.Contains(Point{0, 0}) || e.Contains(Point{0, 4}) || e.Contains(Point{0}) {
		t.Fatal("Contains disagrees with Check")
	}
}

func TestCheckRange(t *testing.T) {
	e := MustExtent(4, 4)
	if err := e.CheckRange(Point{1, 1}, Point{2, 3}); err != nil {
		t.Fatalf("valid range: %v", err)
	}
	if err := e.CheckRange(Point{2, 1}, Point{1, 3}); !errors.Is(err, ErrEmptyRange) {
		t.Fatalf("inverted range error = %v, want ErrEmptyRange", err)
	}
	if err := e.CheckRange(Point{0, 0}, Point{4, 0}); !errors.Is(err, ErrRange) {
		t.Fatalf("out-of-range hi error = %v, want ErrRange", err)
	}
}

func TestForEachInBox(t *testing.T) {
	var got []Point
	ForEachInBox(Point{1, 2}, Point{2, 3}, func(p Point) {
		got = append(got, p.Clone())
	})
	want := []Point{{1, 2}, {1, 3}, {2, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("visited %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestForEachInBoxEmpty(t *testing.T) {
	calls := 0
	ForEachInBox(Point{2, 0}, Point{1, 5}, func(Point) { calls++ })
	if calls != 0 {
		t.Fatalf("empty box visited %d cells", calls)
	}
}

func TestBoxCells(t *testing.T) {
	if n := BoxCells(Point{0, 0}, Point{3, 4}); n != 20 {
		t.Fatalf("BoxCells = %d, want 20", n)
	}
	if n := BoxCells(Point{2}, Point{2}); n != 1 {
		t.Fatalf("single-cell BoxCells = %d, want 1", n)
	}
	if n := BoxCells(Point{3}, Point{2}); n != 0 {
		t.Fatalf("empty BoxCells = %d, want 0", n)
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Fatal("Clone aliases")
	}
	if !(Point{1, 2}).DominatedBy(Point{1, 3}) {
		t.Fatal("DominatedBy false negative")
	}
	if (Point{2, 2}).DominatedBy(Point{1, 3}) {
		t.Fatal("DominatedBy false positive")
	}
	if got := (Point{1, 2}).Add(Point{3, 4}); !got.Equal(Point{4, 6}) {
		t.Fatalf("Add = %v", got)
	}
	if got := (Point{3, 4}).Sub(Point{1, 2}); !got.Equal(Point{2, 2}) {
		t.Fatalf("Sub = %v", got)
	}
	if s := (Point{1, 2}).String(); s != "(1, 2)" {
		t.Fatalf("String = %q", s)
	}
}

func TestPointMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimensionality mismatch")
		}
	}()
	(Point{1}).Add(Point{1, 2})
}

// densePrefix is a reference PrefixSummer over a tiny dense array.
type densePrefix struct {
	e *Extent
	a []int64
}

func (dp *densePrefix) Prefix(p Point) int64 {
	var s int64
	dp.e.ForEach(func(q Point) {
		if q.DominatedBy(p) {
			s += dp.a[dp.e.Offset(q)]
		}
	})
	return s
}

func (dp *densePrefix) boxSum(lo, hi Point) int64 {
	var s int64
	ForEachInBox(lo, hi, func(p Point) { s += dp.a[dp.e.Offset(p)] })
	return s
}

// TestRangeSumInclusionExclusion verifies Figure 4's identity: the signed
// corner combination of prefix sums equals the direct box sum, for every
// box of a random 3-d array.
func TestRangeSumInclusionExclusion(t *testing.T) {
	e := MustExtent(3, 4, 2)
	dp := &densePrefix{e: e, a: make([]int64, e.Cells())}
	seed := int64(12345)
	for i := range dp.a {
		seed = seed*6364136223846793005 + 1442695040888963407
		dp.a[i] = seed % 100
	}
	e.ForEach(func(lo Point) {
		loC := lo.Clone()
		e.ForEach(func(hi Point) {
			if !loC.DominatedBy(hi) {
				return
			}
			got := RangeSum(dp, loC, hi)
			want := dp.boxSum(loC, hi)
			if got != want {
				t.Fatalf("RangeSum(%v, %v) = %d, want %d", loC, hi, got, want)
			}
		})
	})
}

func TestRangeSumPropertyQuick(t *testing.T) {
	e := MustExtent(5, 5)
	f := func(vals [25]int32, lo1, lo2, w1, w2 uint8) bool {
		dp := &densePrefix{e: e, a: make([]int64, 25)}
		for i, v := range vals {
			dp.a[i] = int64(v)
		}
		l := Point{int(lo1) % 5, int(lo2) % 5}
		h := Point{l[0] + int(w1)%(5-l[0]), l[1] + int(w2)%(5-l[1])}
		return RangeSum(dp, l, h) == dp.boxSum(l, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Fatalf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2PanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NextPow2(0)
}

// flatPrefix is a constant-time oracle, so the benchmark measures only
// the corner reduction itself.
type flatPrefix struct{}

func (flatPrefix) Prefix(p Point) int64 { return int64(p[0]) }

// BenchmarkRangeSum pins the allocation profile of the corner reduction:
// the corner buffer comes from a pool, so the reduction must not
// allocate (0 allocs/op).
func BenchmarkRangeSum(b *testing.B) {
	lo, hi := Point{1, 1, 1}, Point{6, 6, 6}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += RangeSum(flatPrefix{}, lo, hi)
	}
	_ = sink
}
