package ddc

import (
	"errors"
	"sync"
	"testing"

	"ddc/internal/workload"
)

func TestShardedMatchesNaive(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 100} {
		dims := []int{20, 12}
		sc, err := NewSharded(dims, shards, Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, _ := NewNaive(dims)
		r := workload.NewRNG(uint64(shards))
		for _, u := range workload.Uniform(r, dims, 150, 60) {
			if err := sc.Add(u.Point, u.Value); err != nil {
				t.Fatal(err)
			}
			if err := naive.Add(u.Point, u.Value); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range workload.Ranges(r, dims, 80, 0.9) {
			want, _ := naive.RangeSum(q.Lo, q.Hi)
			got, err := sc.RangeSum(q.Lo, q.Hi)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("shards=%d: RangeSum(%v,%v) = %d, want %d", shards, q.Lo, q.Hi, got, want)
			}
		}
		for x := 0; x < dims[0]; x++ {
			for y := 0; y < dims[1]; y++ {
				p := []int{x, y}
				if sc.Get(p) != naive.Get(p) {
					t.Fatalf("shards=%d: Get(%v)", shards, p)
				}
				if sc.Prefix(p) != naive.Prefix(p) {
					t.Fatalf("shards=%d: Prefix(%v) = %d, want %d", shards, p, sc.Prefix(p), naive.Prefix(p))
				}
			}
		}
		if sc.Total() != naive.Total() {
			t.Fatalf("shards=%d: Total", shards)
		}
	}
}

func TestShardedSetAndOps(t *testing.T) {
	sc, err := NewSharded([]int{16, 16}, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards() != 4 {
		t.Fatalf("Shards = %d", sc.Shards())
	}
	if err := sc.Set([]int{9, 9}, 7); err != nil {
		t.Fatal(err)
	}
	if err := sc.Set([]int{9, 9}, 3); err != nil {
		t.Fatal(err)
	}
	if got := sc.Get([]int{9, 9}); got != 3 {
		t.Fatalf("Get = %d", got)
	}
	_, _ = sc.RangeSum([]int{0, 0}, []int{15, 15})
	if sc.Ops() == (OpCounts{}) {
		t.Fatal("ops not aggregated")
	}
	sc.ResetOps()
	if sc.Ops() != (OpCounts{}) {
		t.Fatal("ResetOps")
	}
	if d := sc.Dims(); d[0] != 16 || d[1] != 16 {
		t.Fatalf("Dims = %v", d)
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded([]int{16, 16}, 0, Options{}); !errors.Is(err, ErrBadExtent) {
		t.Fatalf("zero shards: %v", err)
	}
	if _, err := NewSharded([]int{16, 16}, 2, Options{AutoGrow: true}); !errors.Is(err, ErrBadExtent) {
		t.Fatalf("autogrow: %v", err)
	}
	if _, err := NewSharded(nil, 2, Options{}); !errors.Is(err, ErrBadExtent) {
		t.Fatalf("no dims: %v", err)
	}
	sc, _ := NewSharded([]int{16, 16}, 4, Options{})
	if err := sc.Add([]int{16, 0}, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := sc.Add([]int{0}, 1); !errors.Is(err, ErrDims) {
		t.Fatalf("wrong dims: %v", err)
	}
	if _, err := sc.RangeSum([]int{5, 5}, []int{2, 2}); !errors.Is(err, ErrEmptyRange) {
		t.Fatalf("inverted: %v", err)
	}
	if _, err := sc.RangeSum([]int{0, 0}, []int{16, 0}); !errors.Is(err, ErrRange) {
		t.Fatalf("range oob: %v", err)
	}
	if got := sc.Get([]int{99, 99}); got != 0 {
		t.Fatalf("oob Get = %d", got)
	}
	if got := sc.Prefix([]int{-1, 0}); got != 0 {
		t.Fatalf("negative Prefix = %d", got)
	}
	if got := sc.Prefix([]int{100, 15}); got != sc.Total() {
		t.Fatalf("clamped Prefix = %d, want %d", got, sc.Total())
	}
}

// TestShardedConcurrent hammers different slabs from many goroutines;
// run under -race this validates the locking discipline.
func TestShardedConcurrent(t *testing.T) {
	sc, err := NewSharded([]int{64, 32}, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(g))
			for i := 0; i < 300; i++ {
				p := []int{r.Intn(64), r.Intn(32)}
				if err := sc.Add(p, 1); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if _, err := sc.RangeSum([]int{0, 0}, []int{63, 31}); err != nil {
						t.Error(err)
						return
					}
					_ = sc.Prefix(p)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := sc.Total(); got != 8*300 {
		t.Fatalf("Total = %d, want %d", got, 8*300)
	}
}

func TestIterators(t *testing.T) {
	c := mustNewDynamic(t, []int{8, 8})
	_ = c.Add([]int{1, 1}, 5)
	_ = c.Add([]int{6, 2}, 7)
	_ = c.Add([]int{3, 3}, -2)
	var total int64
	cells := 0
	for p, v := range c.All() {
		total += v
		cells++
		if len(p) != 2 {
			t.Fatal("bad point")
		}
	}
	if cells != 3 || total != 10 {
		t.Fatalf("All: %d cells, total %d", cells, total)
	}
	// Early break works.
	n := 0
	for range c.All() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("early break iterated %d", n)
	}
	// Range iterator respects the box.
	var inBox int64
	for _, v := range c.InRange([]int{0, 0}, []int{3, 3}) {
		inBox += v
	}
	if inBox != 3 {
		t.Fatalf("InRange total = %d", inBox)
	}
	// Invalid range yields nothing.
	count := 0
	for range c.InRange([]int{5, 5}, []int{1, 1}) {
		count++
	}
	if count != 0 {
		t.Fatalf("invalid range yielded %d", count)
	}
}

// TestBuildShardedMatchesBuildDynamic bulk-loads the same values as one
// cube and as slabs of dimension 0 — slab counts that do and do not
// divide the side, d = 2 and 3 — and requires every prefix sum and the
// total to agree, and a short values slice to be rejected.
func TestBuildShardedMatchesBuildDynamic(t *testing.T) {
	for _, dims := range [][]int{{20, 12}, {9, 6, 5}} {
		vals := make([]int64, volume(dims))
		r := workload.NewRNG(uint64(len(dims)))
		for i := range vals {
			if r.Intn(3) == 0 {
				vals[i] = r.Int63n(41) - 20
			}
		}
		whole, err := BuildDynamic(dims, vals, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 4, 100} {
			sc, err := BuildSharded(dims, vals, shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sc.Total() != whole.Total() {
				t.Fatalf("dims %v shards %d: Total %d, want %d", dims, shards, sc.Total(), whole.Total())
			}
			p := make([]int, len(dims))
			for off := range vals {
				for i, rest := len(dims)-1, off; i >= 0; i-- {
					p[i], rest = rest%dims[i], rest/dims[i]
				}
				if got, want := sc.Prefix(p), whole.Prefix(p); got != want {
					t.Fatalf("dims %v shards %d: Prefix(%v) = %d, want %d", dims, shards, p, got, want)
				}
			}
		}
		if _, err := BuildSharded(dims, vals[1:], 2, Options{}); !errors.Is(err, ErrDims) {
			t.Fatalf("dims %v: short values gave %v, want ErrDims", dims, err)
		}
	}
}
