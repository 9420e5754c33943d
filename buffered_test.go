package ddc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newBufferedManual returns a Buffered with the background merger
// disabled, so tests control exactly when drains happen and the delta
// composition path stays exercised.
func newBufferedManual(t *testing.T, inner Cube) *Buffered {
	t.Helper()
	b := NewBuffered(inner, BufferedOptions{MaxDelta: 1 << 28, FlushInterval: -1})
	t.Cleanup(func() { b.Close() })
	return b
}

// probeEqual compares every query operation between the reference cube
// and the buffered front on a deterministic probe set — bit-exact, per
// the tree+delta composition contract.
func probeEqual(t *testing.T, label string, want Cube, got *Buffered, lo, hi []int) {
	t.Helper()
	d := len(lo)
	rng := rand.New(rand.NewSource(7))
	randPoint := func() []int {
		p := make([]int, d)
		for i := range p {
			p[i] = lo[i] + rng.Intn(hi[i]-lo[i])
		}
		return p
	}
	if w, g := want.Total(), got.Total(); w != g {
		t.Fatalf("%s: Total = %d, want %d", label, g, w)
	}
	var queries []RangeQuery
	for k := 0; k < 24; k++ {
		p := randPoint()
		if w, g := want.Get(p), got.Get(p); w != g {
			t.Fatalf("%s: Get(%v) = %d, want %d", label, p, g, w)
		}
		if w, g := want.Prefix(p), got.Prefix(p); w != g {
			t.Fatalf("%s: Prefix(%v) = %d, want %d", label, p, g, w)
		}
		q := randPoint()
		qlo, qhi := make([]int, d), make([]int, d)
		for i := range p {
			qlo[i], qhi[i] = p[i], q[i]
			if qlo[i] > qhi[i] {
				qlo[i], qhi[i] = qhi[i], qlo[i]
			}
		}
		w, err := want.RangeSum(qlo, qhi)
		if err != nil {
			t.Fatalf("%s: reference RangeSum: %v", label, err)
		}
		g, err := got.RangeSum(qlo, qhi)
		if err != nil {
			t.Fatalf("%s: buffered RangeSum: %v", label, err)
		}
		if w != g {
			t.Fatalf("%s: RangeSum(%v,%v) = %d, want %d", label, qlo, qhi, g, w)
		}
		queries = append(queries, RangeQuery{Lo: qlo, Hi: qhi})
	}
	wb, err := want.RangeSumBatch(queries)
	if err != nil {
		t.Fatalf("%s: reference RangeSumBatch: %v", label, err)
	}
	gb, err := got.RangeSumBatch(queries)
	if err != nil {
		t.Fatalf("%s: buffered RangeSumBatch: %v", label, err)
	}
	for i := range wb {
		if wb[i] != gb[i] {
			t.Fatalf("%s: batch[%d] = %d, want %d", label, i, gb[i], wb[i])
		}
	}
}

// mixedOps drives the same deterministic mixed mutation sequence —
// adds with duplicates (coalescing), sets, boxes, negatives — into both
// cubes, failing on any disagreement.
func mixedOps(t *testing.T, seed int64, n int, want, got Cube, lo, hi []int) {
	t.Helper()
	d := len(lo)
	rng := rand.New(rand.NewSource(seed))
	randPoint := func() []int {
		p := make([]int, d)
		for i := range p {
			p[i] = lo[i] + rng.Intn(hi[i]-lo[i])
		}
		return p
	}
	hot := randPoint()
	for k := 0; k < n; k++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			p := randPoint()
			v := int64(rng.Intn(41) - 20)
			if err := want.Add(p, v); err != nil {
				t.Fatalf("reference Add: %v", err)
			}
			if err := got.Add(p, v); err != nil {
				t.Fatalf("buffered Add: %v", err)
			}
		case 4, 5:
			// Repeated-cell writes exercise coalescing.
			v := int64(rng.Intn(9) - 4)
			if err := want.Add(hot, v); err != nil {
				t.Fatal(err)
			}
			if err := got.Add(hot, v); err != nil {
				t.Fatal(err)
			}
		case 6, 7:
			p := randPoint()
			v := int64(rng.Intn(100))
			if err := want.Set(p, v); err != nil {
				t.Fatalf("reference Set: %v", err)
			}
			if err := got.Set(p, v); err != nil {
				t.Fatalf("buffered Set: %v", err)
			}
		default:
			a, b := randPoint(), randPoint()
			blo, bhi := make([]int, d), make([]int, d)
			for i := range a {
				blo[i], bhi[i] = a[i], b[i]
				if blo[i] > bhi[i] {
					blo[i], bhi[i] = bhi[i], blo[i]
				}
			}
			v := int64(rng.Intn(11) - 5)
			if err := want.RangeAdd(blo, bhi, v); err != nil {
				t.Fatalf("reference RangeAdd: %v", err)
			}
			if err := got.RangeAdd(blo, bhi, v); err != nil {
				t.Fatalf("buffered RangeAdd: %v", err)
			}
		}
	}
}

// TestBufferedEquivalenceAllBackends drives a mixed mutation sequence
// into a plain cube and a buffered cube per backend, and demands
// bit-exact agreement on Get/Prefix/RangeSum/RangeSumBatch/Total at
// three composition states: undrained (tree+delta), after an explicit
// Drain, and after Close.
func TestBufferedEquivalenceAllBackends(t *testing.T) {
	dims := []int{32, 32}
	lo := []int{0, 0}
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			want, err := NewDynamicWithOptions(dims, Options{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			inner, err := NewDynamicWithOptions(dims, Options{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			got := newBufferedManual(t, inner)
			mixedOps(t, 11, 400, want, got, lo, dims)
			if got.DeltaDepth() == 0 {
				t.Fatal("delta unexpectedly empty — undrained composition not exercised")
			}
			probeEqual(t, "undrained", want, got, lo, dims)
			if err := got.Drain(); err != nil {
				t.Fatal(err)
			}
			if got.DeltaDepth() != 0 {
				t.Fatalf("DeltaDepth = %d after Drain, want 0", got.DeltaDepth())
			}
			probeEqual(t, "drained", want, got, lo, dims)
			mixedOps(t, 13, 200, want, got, lo, dims)
			probeEqual(t, "undrained2", want, got, lo, dims)
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			probeEqual(t, "closed", want, got, lo, dims)
			// The inner cube now holds everything: compare it directly too.
			probeEqual(t, "inner", want, newBufferedManual(t, got.Unwrap()), lo, dims)
		})
	}
}

// TestBufferedAutoGrowEquivalence buffers writes beyond the current
// domain (including negative coordinates) and demands agreement with a
// plain AutoGrow cube — the front must grow the tree eagerly so its
// validation and clamping match the drained cube exactly.
func TestBufferedAutoGrowEquivalence(t *testing.T) {
	want, err := NewDynamicWithOptions([]int{8, 8}, Options{AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewDynamicWithOptions([]int{8, 8}, Options{AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	got := newBufferedManual(t, inner)
	lo, hi := []int{-16, -16}, []int{24, 24}
	mixedOps(t, 17, 300, want, got, lo, hi)
	probeEqual(t, "undrained", want, got, lo, hi)
	wl, wh := want.Bounds()
	gl, gh := got.Bounds()
	if fmt.Sprint(wl, wh) != fmt.Sprint(gl, gh) {
		t.Fatalf("Bounds = %v..%v, want %v..%v", gl, gh, wl, wh)
	}
	if err := got.Drain(); err != nil {
		t.Fatal(err)
	}
	probeEqual(t, "drained", want, got, lo, hi)
}

// TestBufferedValidationMatchesInner pins that the buffered front
// rejects exactly what the inner cube rejects — same sentinel errors,
// nothing buffered on failure.
func TestBufferedValidationMatchesInner(t *testing.T) {
	inner := mustDyn(8, 8)
	b := newBufferedManual(t, inner)
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"add dims", b.Add([]int{1}, 1), ErrDims},
		{"add range", b.Add([]int{8, 0}, 1), ErrRange},
		{"add negative", b.Add([]int{-1, 0}, 1), ErrRange},
		{"set dims", b.Set([]int{1, 2, 3}, 1), ErrDims},
		{"set range", b.Set([]int{0, 99}, 1), ErrRange},
		{"rangeadd dims", b.RangeAdd([]int{0}, []int{1}, 1), ErrDims},
		{"rangeadd oob", b.RangeAdd([]int{0, 0}, []int{8, 7}, 1), ErrRange},
		{"rangeadd empty", b.RangeAdd([]int{3, 3}, []int{2, 3}, 1), ErrEmptyRange},
		{"batch", b.AddBatch([]PointDelta{{Point: []int{0, 0}, Delta: 1}, {Point: []int{9, 9}, Delta: 1}}), ErrRange},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, tc.err, tc.want)
		}
	}
	// The failing batch op buffers its valid prefix (matching
	// DynamicCube.AddBatch semantics); everything else rejected cleanly.
	if depth := b.DeltaDepth(); depth != 1 {
		t.Fatalf("DeltaDepth = %d after rejected ops, want 1 (batch prefix)", depth)
	}
	if got := b.Get([]int{0, 0}); got != 1 {
		t.Fatalf("Get = %d, want 1", got)
	}
}

// TestBufferedReadYourWrites pins the visibility contract: every
// mutation is visible to queries that start after it returns, drained
// or not.
func TestBufferedReadYourWrites(t *testing.T) {
	b := newBufferedManual(t, mustDyn(16, 16))
	p := []int{3, 4}
	if err := b.Add(p, 5); err != nil {
		t.Fatal(err)
	}
	if got := b.Get(p); got != 5 {
		t.Fatalf("Get after Add = %d, want 5", got)
	}
	if err := b.Set(p, 2); err != nil {
		t.Fatal(err)
	}
	if got := b.Get(p); got != 2 {
		t.Fatalf("Get after Set = %d, want 2", got)
	}
	if err := b.RangeAdd([]int{0, 0}, []int{15, 15}, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.Get(p); got != 3 {
		t.Fatalf("Get after RangeAdd = %d, want 3", got)
	}
	if got := b.Total(); got != 2+256 {
		t.Fatalf("Total = %d, want %d", got, 2+256)
	}
	// RangeAdd and its exact inverse leave no residue in the delta.
	if err := b.RangeAdd([]int{0, 0}, []int{15, 15}, -1); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Boxes != 0 {
		t.Fatalf("Boxes = %d after inverse RangeAdd, want 0", st.Boxes)
	}
}

// TestBufferedConcurrentMergerEquivalence is the -race drain suite: many
// writer goroutines (Add/RangeAdd — commutative, so replay order does
// not matter), concurrent readers, and an aggressive background merger.
// After Close the buffered cube must agree bit-exactly with a serial
// replay of every op.
func TestBufferedConcurrentMergerEquivalence(t *testing.T) {
	const writers = 4
	const opsPerWriter = 400
	inner := mustDyn(32, 32)
	b := NewBuffered(inner, BufferedOptions{
		MaxDelta: 16, FlushInterval: 50 * time.Microsecond,
	})
	type op struct {
		lo, hi []int
		delta  int64
		box    bool
	}
	recorded := make([][]op, writers)
	var wg sync.WaitGroup
	stopReads := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				p := []int{rng.Intn(32), rng.Intn(32)}
				b.Get(p)
				b.Prefix(p)
				b.Total()
				if _, err := b.RangeSum([]int{0, 0}, p); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ops := make([]op, 0, opsPerWriter)
			for k := 0; k < opsPerWriter; k++ {
				if rng.Intn(4) == 0 {
					a := []int{rng.Intn(32), rng.Intn(32)}
					c := []int{rng.Intn(32), rng.Intn(32)}
					lo := []int{min2(a[0], c[0]), min2(a[1], c[1])}
					hi := []int{max2(a[0], c[0]), max2(a[1], c[1])}
					v := int64(rng.Intn(7) - 3)
					if err := b.RangeAdd(lo, hi, v); err != nil {
						t.Error(err)
						return
					}
					ops = append(ops, op{lo: lo, hi: hi, delta: v, box: true})
				} else {
					p := []int{rng.Intn(32), rng.Intn(32)}
					v := int64(rng.Intn(21) - 10)
					if err := b.Add(p, v); err != nil {
						t.Error(err)
						return
					}
					ops = append(ops, op{lo: p, delta: v})
				}
			}
			recorded[w] = ops
		}(w)
	}
	close(stopReads)
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	want := mustDyn(32, 32)
	for _, ops := range recorded {
		for _, o := range ops {
			var err error
			if o.box {
				err = want.RangeAdd(o.lo, o.hi, o.delta)
			} else {
				err = want.Add(o.lo, o.delta)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	probeEqual(t, "after concurrent merge", want, newBufferedManual(t, b.Unwrap()), []int{0, 0}, []int{32, 32})
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestBufferedConcurrentMonotonicReads pins the drain protocol's
// no-double-count/no-gap window: one writer increments a single cell
// while the merger drains aggressively; a reader must observe a
// non-decreasing sequence ending at the exact total.
func TestBufferedConcurrentMonotonicReads(t *testing.T) {
	const increments = 3000
	b := NewBuffered(mustDyn(8, 8), BufferedOptions{
		MaxDelta: 4, FlushInterval: 20 * time.Microsecond,
	})
	p := []int{5, 5}
	done := make(chan struct{})
	var readerErr atomic.Value
	go func() {
		defer close(done)
		last := int64(0)
		for last < increments {
			v := b.Get(p)
			if v < last {
				readerErr.Store(fmt.Errorf("Get went backwards: %d after %d", v, last))
				return
			}
			last = v
		}
	}()
	for i := 0; i < increments; i++ {
		if err := b.Add(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := readerErr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.Unwrap().Get(p); got != increments {
		t.Fatalf("drained value = %d, want %d", got, increments)
	}
}

// TestBufferedConcurrentSetDisjoint runs concurrent Set storms on
// disjoint cells with the merger racing; last write per cell must win
// exactly.
func TestBufferedConcurrentSetDisjoint(t *testing.T) {
	b := NewBuffered(mustDyn(16, 16), BufferedOptions{
		MaxDelta: 8, FlushInterval: 20 * time.Microsecond,
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := []int{w, w}
			for k := 0; k <= 200; k++ {
				if err := b.Set(p, int64(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if got := b.Get([]int{w, w}); got != 200 {
			t.Fatalf("cell %d = %d, want 200", w, got)
		}
	}
}

// TestBufferedFreezeDrain pins the checkpoint-freeze contract: while
// frozen, drains stall and the inner cube is immobile, but writers and
// readers proceed; release is idempotent and drains resume.
func TestBufferedFreezeDrain(t *testing.T) {
	inner := mustDyn(8, 8)
	b := NewBuffered(inner, BufferedOptions{
		MaxDelta: 2, FlushInterval: 20 * time.Microsecond,
	})
	defer b.Close()
	if err := b.Add([]int{1, 1}, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	release := b.Freeze()
	innerTotal := inner.Total()
	// Writers keep landing while frozen, even past MaxDelta.
	for i := 0; i < 20; i++ {
		if err := b.Add([]int{i % 8, 2}, 1); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) // give the merger a chance to misbehave
	if got := inner.Total(); got != innerTotal {
		t.Fatalf("inner mutated under freeze: Total %d -> %d", innerTotal, got)
	}
	if got := b.Total(); got != innerTotal+20 {
		t.Fatalf("composed Total under freeze = %d, want %d", got, innerTotal+20)
	}
	release()
	release() // idempotent
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := inner.Total(); got != innerTotal+20 {
		t.Fatalf("inner Total after release+drain = %d, want %d", got, innerTotal+20)
	}
}

// TestBufferedExplainDelta pins the EXPLAIN contribution kind: an
// undrained front reports its delta terms as Kind "delta" and the
// explained sum equals Prefix.
func TestBufferedExplainDelta(t *testing.T) {
	b := newBufferedManual(t, mustDyn(16, 16))
	if err := b.Add([]int{2, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.RangeAdd([]int{0, 0}, []int{7, 7}, 2); err != nil {
		t.Fatal(err)
	}
	p := []int{9, 9}
	sum, parts := b.ExplainPrefix(p)
	if want := b.Prefix(p); sum != want {
		t.Fatalf("ExplainPrefix sum = %d, Prefix = %d", sum, want)
	}
	if sum != 5+2*64 {
		t.Fatalf("sum = %d, want %d", sum, 5+2*64)
	}
	deltas := 0
	for _, c := range parts {
		if c.Kind == "delta" {
			deltas++
		}
	}
	if deltas != 2 {
		t.Fatalf("delta contributions = %d, want 2 (point + box)", deltas)
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	sum2, parts2 := b.ExplainPrefix(p)
	if sum2 != sum {
		t.Fatalf("drained ExplainPrefix sum = %d, want %d", sum2, sum)
	}
	for _, c := range parts2 {
		if c.Kind == "delta" {
			t.Fatalf("drained explain still reports delta contribution %+v", c)
		}
	}
}

// TestBufferedHardMaxBackpressure pins the inline-drain backpressure:
// with the merger disabled, the delta can never exceed the derived hard
// bound of 4*MaxDelta.
func TestBufferedHardMaxBackpressure(t *testing.T) {
	const maxDelta = 4
	const hardMax = 4 * maxDelta
	b := NewBuffered(mustDyn(64, 64), BufferedOptions{
		MaxDelta: maxDelta, FlushInterval: -1,
	})
	defer b.Close()
	for i := 0; i < 64; i++ {
		if err := b.Add([]int{i % 64, i / 64}, 1); err != nil {
			t.Fatal(err)
		}
		if depth := b.DeltaDepth(); depth > hardMax {
			t.Fatalf("DeltaDepth = %d, exceeds 4*MaxDelta = %d", depth, hardMax)
		}
	}
	if st := b.Stats(); st.Drains == 0 {
		t.Fatal("no inline drains despite exceeding 4*MaxDelta")
	}
}

// TestBufferedClose pins post-Close behaviour: mutations fail with
// ErrBufferedClosed, queries keep answering from the drained tree, and
// Close is idempotent.
func TestBufferedClose(t *testing.T) {
	b := NewBuffered(mustDyn(8, 8), BufferedOptions{})
	if err := b.Add([]int{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]int{1, 2}, 1); !errors.Is(err, ErrBufferedClosed) {
		t.Fatalf("Add after Close = %v, want ErrBufferedClosed", err)
	}
	if err := b.Set([]int{1, 2}, 1); !errors.Is(err, ErrBufferedClosed) {
		t.Fatalf("Set after Close = %v, want ErrBufferedClosed", err)
	}
	if err := b.RangeAdd([]int{0, 0}, []int{1, 1}, 1); !errors.Is(err, ErrBufferedClosed) {
		t.Fatalf("RangeAdd after Close = %v, want ErrBufferedClosed", err)
	}
	if got := b.Get([]int{1, 2}); got != 3 {
		t.Fatalf("Get after Close = %d, want 3", got)
	}
	if depth := b.DeltaDepth(); depth != 0 {
		t.Fatalf("DeltaDepth after Close = %d, want 0", depth)
	}
}

// blockingCube wraps a Cube and parks AddBatch until released — it
// holds a drain in flight so tests can interleave against it.
type blockingCube struct {
	Cube
	gate    chan struct{}
	entered chan struct{}
}

func (c *blockingCube) AddBatch(batch []PointDelta) error {
	c.entered <- struct{}{}
	<-c.gate
	if ba, ok := c.Cube.(BatchAdder); ok {
		return ba.AddBatch(batch)
	}
	for i := range batch {
		if err := c.Cube.Add(batch[i].Point, batch[i].Delta); err != nil {
			return err
		}
	}
	return nil
}

// TestBufferedTelemetryResetDuringDrain is the Reset/gauge regression
// test: a Telemetry.Reset while a drain is in flight must not produce
// negative or stale delta-depth readings — the gauge is recomputed from
// the live buffer at every snapshot.
func TestBufferedTelemetryResetDuringDrain(t *testing.T) {
	tel := GlobalTelemetry()
	tel.Reset()
	tel.Enable()
	defer tel.Disable()
	defer tel.Reset()

	inner := &blockingCube{
		Cube:    mustDyn(8, 8),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 1),
	}
	b := NewBuffered(inner, BufferedOptions{MaxDelta: 1 << 28, FlushInterval: -1})
	for i := 0; i < 5; i++ {
		if err := b.Add([]int{i, i}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if snap := tel.Snapshot(); snap.DeltaDepth != 5 || snap.DeltaOpsBuffered != 5 {
		t.Fatalf("pre-drain snapshot: depth=%d buffered=%d, want 5/5",
			snap.DeltaDepth, snap.DeltaOpsBuffered)
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- b.Drain() }()
	<-inner.entered // the drain is now in flight, frozen generation held

	tel.Reset() // mid-drain reset: the regression under test

	// More writes land in the fresh active generation while the drain is
	// still applying the frozen one.
	for i := 0; i < 3; i++ {
		if err := b.Add([]int{7, i}, 1); err != nil {
			t.Fatal(err)
		}
	}
	snap := tel.Snapshot()
	if snap.DeltaDepth != 8 { // 5 frozen (in flight) + 3 active
		t.Fatalf("mid-drain snapshot after Reset: depth = %d, want 8", snap.DeltaDepth)
	}
	if snap.DeltaOpsBuffered != 3 {
		t.Fatalf("mid-drain buffered counter after Reset = %d, want 3", snap.DeltaOpsBuffered)
	}
	close(inner.gate)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	snap = tel.Snapshot()
	if snap.DeltaDepth != 3 {
		t.Fatalf("post-drain depth = %d, want 3 (active only)", snap.DeltaDepth)
	}
	if snap.DeltaDrains != 1 {
		t.Fatalf("post-drain drains counter = %d, want 1", snap.DeltaDrains)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := tel.Snapshot(); snap.DeltaDepth != 0 {
		t.Fatalf("post-close depth = %d, want 0", snap.DeltaDepth)
	}
	if snap := tel.Snapshot(); snap.DeltaDrains != 2 {
		t.Fatalf("post-close drains = %d, want 2", snap.DeltaDrains)
	}
}

// TestBufferedDeltaContribTelemetry pins that undrained composition is
// accounted under the "delta" contribution kind.
func TestBufferedDeltaContribTelemetry(t *testing.T) {
	tel := GlobalTelemetry()
	tel.Reset()
	tel.Enable()
	defer tel.Disable()
	defer tel.Reset()

	b := newBufferedManual(t, mustDyn(8, 8))
	if err := b.Add([]int{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if got := b.Prefix([]int{4, 4}); got != 2 {
		t.Fatalf("Prefix = %d, want 2", got)
	}
	snap := tel.Snapshot()
	if snap.Contributions["delta"] == 0 {
		t.Fatalf("no delta contributions recorded: %v", snap.Contributions)
	}
}

// mustDyn builds a fixed-domain DynamicCube or panics; test fixture.
func mustDyn(x, y int) *DynamicCube {
	c, err := NewDynamic([]int{x, y})
	if err != nil {
		panic(err)
	}
	return c
}

// TestBufferedAddBatchCoalesceAccounting pins that AddBatch accounts
// its writes exactly like the same writes through Add: every entry
// counts as buffered, a second entry at one cell counts as coalesced,
// in Stats and in the telemetry delta counters alike.
func TestBufferedAddBatchCoalesceAccounting(t *testing.T) {
	tel := GlobalTelemetry()
	tel.Enable()
	defer tel.Disable()
	defer tel.Reset()

	batch := []PointDelta{
		{Point: []int{1, 1}, Delta: 2},
		{Point: []int{1, 1}, Delta: 3},
		{Point: []int{2, 5}, Delta: 1},
	}
	for _, batched := range []bool{false, true} {
		tel.Reset()
		b := newBufferedManual(t, mustDyn(8, 8))
		if batched {
			if err := b.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, e := range batch {
				if err := b.Add(e.Point, e.Delta); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := b.Stats(); st.BufferedOps != 3 || st.Coalesced != 1 || st.Points != 2 {
			t.Fatalf("batched=%v: Stats buffered/coalesced/points = %d/%d/%d, want 3/1/2",
				batched, st.BufferedOps, st.Coalesced, st.Points)
		}
		if snap := tel.Snapshot(); snap.DeltaOpsBuffered != 3 || snap.DeltaCoalesced != 1 {
			t.Fatalf("batched=%v: telemetry buffered/coalesced = %d/%d, want 3/1",
				batched, snap.DeltaOpsBuffered, snap.DeltaCoalesced)
		}
		if got := b.Get([]int{1, 1}); got != 5 {
			t.Fatalf("batched=%v: Get = %d, want 5", batched, got)
		}
	}
}

// TestBufferedPrefixWrongDims pins that a prefix point of the wrong
// dimensionality reads 0, as on DynamicCube, instead of indexing past
// it while composing buffered entries.
func TestBufferedPrefixWrongDims(t *testing.T) {
	b := newBufferedManual(t, mustDyn(8, 8))
	if err := b.Add([]int{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.RangeAdd([]int{0, 0}, []int{3, 3}, 5); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]int{{4}, {4, 4, 4}} {
		if got := b.Prefix(p); got != 0 {
			t.Fatalf("Prefix(%v) = %d, want 0", p, got)
		}
		if got, parts := b.ExplainPrefix(p); got != 0 || len(parts) != 0 {
			t.Fatalf("ExplainPrefix(%v) = %d with %d parts, want 0 and none", p, got, len(parts))
		}
	}
}
