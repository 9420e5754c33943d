package psum

import (
	"math/rand"
	"testing"
)

// reference is the obviously-correct model every backend is checked
// against: a plain slice.
type reference struct {
	vals []int64
}

func (r *reference) prefix(key int) int64 {
	var s int64
	for i := 0; i <= key && i < len(r.vals); i++ {
		s += r.vals[i]
	}
	return s
}

func (r *reference) add(key int, delta int64) { r.vals[key] += delta }

func (r *reference) grow(m int) {
	for len(r.vals) < m {
		r.vals = append(r.vals, 0)
	}
}

// checkAgainst asserts b answers exactly like the reference at every
// key (plus the out-of-range edges).
func checkAgainst(t *testing.T, b Backend, r *reference) {
	t.Helper()
	if b.Universe() != len(r.vals) {
		t.Fatalf("%s: universe = %d, want %d", b.Kind(), b.Universe(), len(r.vals))
	}
	if got := b.PrefixSum(-1); got != 0 {
		t.Fatalf("%s: PrefixSum(-1) = %d", b.Kind(), got)
	}
	if got, want := b.PrefixSum(len(r.vals)+3), r.prefix(len(r.vals)-1); got != want {
		t.Fatalf("%s: PrefixSum(beyond) = %d, want total %d", b.Kind(), got, want)
	}
	if got, want := b.Total(), r.prefix(len(r.vals)-1); got != want {
		t.Fatalf("%s: Total = %d, want %d", b.Kind(), got, want)
	}
	for k := 0; k < len(r.vals); k++ {
		if got, want := b.PrefixSum(k), r.prefix(k); got != want {
			t.Fatalf("%s: PrefixSum(%d) = %d, want %d", b.Kind(), k, got, want)
		}
		if got := b.Get(k); got != r.vals[k] {
			t.Fatalf("%s: Get(%d) = %d, want %d", b.Kind(), k, got, r.vals[k])
		}
	}
	nonzero := 0
	for _, v := range r.vals {
		if v != 0 {
			nonzero++
		}
	}
	if got := b.Len(); got != nonzero {
		t.Fatalf("%s: Len = %d, want %d", b.Kind(), got, nonzero)
	}
}

// TestBackendsAgainstReference drives every backend through the same
// random op sequence — adds (including cancellations back to zero),
// grows, prefix sums — and checks each against the slice model after
// every mutation batch.
func TestBackendsAgainstReference(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				m := 1 + rng.Intn(200)
				fanout := 3 + rng.Intn(14)
				b := New(kind, m, fanout)
				r := &reference{vals: make([]int64, m)}
				for step := 0; step < 60; step++ {
					switch rng.Intn(10) {
					case 0: // grow
						nm := len(r.vals) + rng.Intn(64)
						b.Grow(nm)
						r.grow(nm)
					case 1: // cancel an existing key back to zero
						k := rng.Intn(len(r.vals))
						if r.vals[k] != 0 {
							b.Add(k, -r.vals[k])
							r.add(k, -r.vals[k])
						}
					default:
						k := rng.Intn(len(r.vals))
						d := rng.Int63n(100) - 50
						b.Add(k, d)
						r.add(k, d)
					}
				}
				checkAgainst(t, b, r)
			}
		})
	}
}

// TestFromSliceEquivalence checks the bulk-build path: FromSlice must
// answer exactly like the incrementally built backend, for every kind,
// across awkward universes (block boundaries, tiny, prime).
func TestFromSliceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129, 513, 1000} {
		vals := make([]int64, m)
		for i := range vals {
			if rng.Intn(3) != 0 { // leave some zeros
				vals[i] = rng.Int63n(1000) - 500
			}
		}
		for _, kind := range Kinds() {
			bulk := FromSlice(kind, vals, 8)
			inc := New(kind, m, 8)
			for i, v := range vals {
				inc.Add(i, v)
			}
			for k := -1; k <= m; k++ {
				bv, iv := bulk.PrefixSum(k), inc.PrefixSum(k)
				if bv != iv {
					t.Fatalf("%s m=%d: bulk PrefixSum(%d)=%d, incremental=%d", kind, m, k, bv, iv)
				}
			}
			if bulk.Total() != inc.Total() || bulk.Len() != inc.Len() {
				t.Fatalf("%s m=%d: bulk total/len (%d,%d) != incremental (%d,%d)",
					kind, m, bulk.Total(), bulk.Len(), inc.Total(), inc.Len())
			}
		}
	}
}

// TestCrossBackendAgreement runs one shared op sequence over all
// backends simultaneously and insists on exact agreement among them at
// every probe — the backend-level half of the cube equivalence suite.
func TestCrossBackendAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const m = 257
	backends := make([]Backend, 0, len(Kinds()))
	for _, kind := range Kinds() {
		backends = append(backends, New(kind, m, 16))
	}
	for step := 0; step < 500; step++ {
		k := rng.Intn(m)
		d := rng.Int63n(64) - 32
		for _, b := range backends {
			b.Add(k, d)
		}
		probe := rng.Intn(m + 2)
		want := backends[0].PrefixSum(probe)
		for _, b := range backends[1:] {
			if got := b.PrefixSum(probe); got != want {
				t.Fatalf("step %d: %s PrefixSum(%d) = %d, %s = %d",
					step, b.Kind(), probe, got, backends[0].Kind(), want)
			}
		}
	}
}

// TestParseKind covers the registry: canonical names, the default, and
// rejection of unknowns.
func TestParseKind(t *testing.T) {
	if k, err := ParseKind(""); err != nil || k != Auto {
		t.Fatalf("ParseKind(\"\") = %v, %v", k, err)
	}
	for _, kind := range Kinds() {
		if k, err := ParseKind(string(kind)); err != nil || k != kind {
			t.Fatalf("ParseKind(%q) = %v, %v", kind, k, err)
		}
	}
	if _, err := ParseKind("btree-of-doom"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if Index(Classic) != 0 {
		t.Fatalf("Index(Classic) = %d", Index(Classic))
	}
	seen := map[int]bool{}
	for _, kind := range Kinds() {
		i := Index(kind)
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

// TestPrefixSumAllocFree pins the read path at zero allocations for
// every backend — the property the core query engine's pooled scratch
// depends on.
func TestPrefixSumAllocFree(t *testing.T) {
	for _, kind := range Kinds() {
		b := FromSlice(kind, seqValues(512), 16)
		allocs := testing.AllocsPerRun(100, func() {
			var s int64
			for k := 0; k < 512; k += 17 {
				s += b.PrefixSum(k)
			}
			sink = s
		})
		if allocs != 0 {
			t.Fatalf("%s: PrefixSum allocates %.1f/op", kind, allocs)
		}
	}
}

// TestVisitsCounted asserts the visit counts are nonzero and
// PrefixSumVisits agrees with PrefixSum.
func TestVisitsCounted(t *testing.T) {
	for _, kind := range Kinds() {
		b := FromSlice(kind, seqValues(300), 16)
		v, n := b.PrefixSumVisits(123)
		if v != b.PrefixSum(123) {
			t.Fatalf("%s: visits variant disagrees", kind)
		}
		if n == 0 {
			t.Fatalf("%s: zero visits for a 300-key prefix", kind)
		}
		if w := b.Add(7, 5); w == 0 {
			t.Fatalf("%s: zero cells written by Add", kind)
		}
	}
}

var sink int64

func seqValues(n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%13) + 1
	}
	return vals
}

// ---------------------------------------------------------------------
// Microbenchmarks: the per-backend constant factors under every cube
// hot path (run with -bench Backend).

func benchSizes() []int { return []int{64, 512, 4096} }

func BenchmarkBackendPrefixSum(b *testing.B) {
	for _, kind := range Kinds() {
		for _, m := range benchSizes() {
			b.Run(string(kind)+"/"+itoa(m), func(b *testing.B) {
				bk := FromSlice(kind, seqValues(m), 16)
				b.ReportAllocs()
				var s int64
				for i := 0; i < b.N; i++ {
					s += bk.PrefixSum(i & (m - 1))
				}
				sink = s
			})
		}
	}
}

func BenchmarkBackendAdd(b *testing.B) {
	for _, kind := range Kinds() {
		for _, m := range benchSizes() {
			b.Run(string(kind)+"/"+itoa(m), func(b *testing.B) {
				bk := FromSlice(kind, seqValues(m), 16)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.Add(i&(m-1), 1)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// checkSame asserts b answers exactly like the classic reference ref:
// every prefix (plus the out-of-range edges), point value, the total,
// the nonzero count and the ForEach walk.
func checkSame(t *testing.T, step string, b, ref Backend) {
	t.Helper()
	if b.Universe() != ref.Universe() || b.Total() != ref.Total() || b.Len() != ref.Len() {
		t.Fatalf("%s: universe/total/len (%d,%d,%d), classic (%d,%d,%d)", step,
			b.Universe(), b.Total(), b.Len(), ref.Universe(), ref.Total(), ref.Len())
	}
	for k := -1; k <= ref.Universe()+1; k++ {
		if got, want := b.PrefixSum(k), ref.PrefixSum(k); got != want {
			t.Fatalf("%s: PrefixSum(%d) = %d, classic %d", step, k, got, want)
		}
		if got, want := b.Get(k), ref.Get(k); got != want {
			t.Fatalf("%s: Get(%d) = %d, classic %d", step, k, got, want)
		}
	}
	type kv struct {
		k int
		v int64
	}
	var got, want []kv
	b.ForEach(func(k int, v int64) { got = append(got, kv{k, v}) })
	ref.ForEach(func(k int, v int64) { want = append(want, kv{k, v}) })
	if len(got) != len(want) {
		t.Fatalf("%s: ForEach yields %d pairs, classic %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ForEach pair %d = %v, classic %v", step, i, got[i], want[i])
		}
	}
}

// TestAutoPromotion drives one auto group across its break-even — with
// keys cancelled back to zero (the B-tree still stores them, so they
// count toward promotion), positive and negative deltas, and a Grow on
// each side of the switch — checking it against the classic reference
// after every step and that it promotes exactly once, on the Add that
// makes the stored key count reach half the universe. Once promoted it
// must never be back in the sparse phase, and each later Add must
// write exactly what a blocked group writes: a second promotion would
// add a rebuild's writes.
func TestAutoPromotion(t *testing.T) {
	const fanout = 4
	a := New(Auto, 64, fanout).(*auto)
	ref := New(Classic, 64, fanout)
	flat := New(Blocked, 64, 0)
	promotions := 0
	add := func(step string, k int, d int64) {
		t.Helper()
		wasFlat := a.tr == nil
		w := a.Add(k, d)
		ref.Add(k, d)
		fw := flat.Add(k, d)
		// The reference B-tree saw the same Adds, so it stores the same
		// keys the auto group's tree would.
		stored := ref.(*classic).tr.Len()
		switch {
		case !wasFlat && a.tr == nil:
			promotions++
			if want := (a.Universe() + 1) / 2; stored != want {
				t.Fatalf("%s: promoted at %d stored keys, want %d", step, stored, want)
			}
		case !wasFlat && dense(stored, a.Universe()):
			t.Fatalf("%s: %d stored keys of %d and not promoted", step, stored, a.Universe())
		case wasFlat && a.tr != nil:
			t.Fatalf("%s: back in the sparse phase after promotion", step)
		case wasFlat && w != fw:
			t.Fatalf("%s: flat Add wrote %d cells, blocked writes %d", step, w, fw)
		}
		checkSame(t, step, a, ref)
	}
	grow := func(step string, m int) {
		t.Helper()
		wasFlat := a.tr == nil
		a.Grow(m)
		ref.Grow(m)
		flat.Grow(m)
		if wasFlat && a.tr != nil {
			t.Fatalf("%s: back in the sparse phase after Grow", step)
		}
		checkSame(t, step, a, ref)
	}

	// 20 keys, every third cancelled back to zero: stored 20, nonzero 13.
	for k := 0; k < 20; k++ {
		add("fill", k*3, int64(k+1)*(1-2*int64(k&1)))
		if k%3 == 0 {
			add("cancel", k*3, -ref.Get(k*3))
		}
	}
	if a.tr == nil {
		t.Fatal("promoted below the break-even")
	}
	grow("grow before", 80) // break-even moves from 32 to 40 stored keys
	for k := 1; a.tr != nil; k += 3 {
		add("cross", k, -int64(k))
	}
	if a.Len() >= 40 {
		t.Fatalf("cancelled keys did not count toward promotion: nonzero %d", a.Len())
	}
	for k := 0; k < 80; k += 7 {
		add("after", k, int64(k)-40)
		add("cancel after", k, -ref.Get(k))
	}
	grow("grow after", 150)
	for k := 79; k < 150; k += 5 {
		add("after grow", k, int64(k))
	}
	if promotions != 1 {
		t.Fatalf("promoted %d times, want exactly once", promotions)
	}
}

// TestAutoFromSlice checks the bulk-build path picks the layout from
// the slice's nonzero count: one key short of the break-even stays
// classic, the break-even itself builds flat.
func TestAutoFromSlice(t *testing.T) {
	for _, m := range []int{1, 2, 7, 8, 9, 64, 65, 513} {
		breakEven := (m + 1) / 2
		for _, nonzero := range []int{breakEven - 1, breakEven} {
			vals := make([]int64, m)
			for i := 0; i < nonzero; i++ {
				vals[m-1-2*i] = int64(i + 1)
			}
			a := FromSlice(Auto, vals, 8).(*auto)
			if promoted := a.tr == nil; promoted != (nonzero == breakEven) {
				t.Fatalf("m=%d nonzero=%d: promoted=%v", m, nonzero, promoted)
			}
			checkSame(t, "fromslice", a, FromSlice(Classic, vals, 8))
		}
	}
}
