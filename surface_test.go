package ddc

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"ddc/internal/obs"
	"ddc/internal/workload"
)

// surfaceCubes returns every Cube implementation and wrapper over the
// same empty 8×8 domain.
func surfaceCubes(t *testing.T) map[string]Cube {
	t.Helper()
	dims := []int{8, 8}
	out := factories(t, dims)
	s, err := NewSharded(dims, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out["sharded"] = s
	w, err := NewWAL(mustNewDynamic(t, dims), new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	out["wal"] = w
	fw, err := NewFenwick(dims)
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]Cube{"buffered-ddc": mustNewDynamic(t, dims), "buffered-fenwick": fw} {
		b := NewBuffered(inner, BufferedOptions{FlushInterval: -1})
		t.Cleanup(func() { b.Close() })
		out[name] = b
	}
	return out
}

// TestValidationAgreement gives every Cube implementation the same
// malformed points and boxes and requires the same sentinel from each.
// Boxes are checked in the core tree's order — dimensionality, the
// bounds of lo, the bounds of hi, then emptiness — so a box that is
// both out of range and inverted reports ErrRange everywhere.
func TestValidationAgreement(t *testing.T) {
	points := []struct {
		p    []int
		want error
	}{
		{[]int{1}, ErrDims},
		{[]int{1, 2, 3}, ErrDims},
		{[]int{8, 0}, ErrRange},
		{[]int{-1, 0}, ErrRange},
		{[]int{3, 8}, ErrRange},
		{[]int{3, -2}, ErrRange},
	}
	boxes := []struct {
		lo, hi []int
		want   error
	}{
		{[]int{1}, []int{2, 2}, ErrDims},
		{[]int{1, 1}, []int{2, 2, 2}, ErrDims},
		{[]int{9, 0}, []int{1}, ErrDims},
		{[]int{5, 1}, []int{4, 9}, ErrRange},
		{[]int{9, 0}, []int{2, 2}, ErrRange},
		{[]int{-1, 0}, []int{3, 3}, ErrRange},
		{[]int{0, 0}, []int{8, 0}, ErrRange},
		{[]int{2, 5}, []int{3, 1}, ErrEmptyRange},
		{[]int{6, 0}, []int{1, 7}, ErrEmptyRange},
	}
	for name, c := range surfaceCubes(t) {
		for _, tc := range points {
			if err := c.Add(tc.p, 1); !errors.Is(err, tc.want) {
				t.Errorf("%s: Add(%v) = %v, want %v", name, tc.p, err, tc.want)
			}
			if err := c.Set(tc.p, 1); !errors.Is(err, tc.want) {
				t.Errorf("%s: Set(%v) = %v, want %v", name, tc.p, err, tc.want)
			}
		}
		for _, tc := range boxes {
			if _, err := c.RangeSum(tc.lo, tc.hi); !errors.Is(err, tc.want) {
				t.Errorf("%s: RangeSum(%v, %v) = %v, want %v", name, tc.lo, tc.hi, err, tc.want)
			}
			if err := c.RangeAdd(tc.lo, tc.hi, 1); !errors.Is(err, tc.want) {
				t.Errorf("%s: RangeAdd(%v, %v) = %v, want %v", name, tc.lo, tc.hi, err, tc.want)
			}
			q := []RangeQuery{{Lo: []int{0, 0}, Hi: []int{7, 7}}, {Lo: tc.lo, Hi: tc.hi}}
			if _, err := c.RangeSumBatch(q); !errors.Is(err, tc.want) {
				t.Errorf("%s: RangeSumBatch(.., {%v, %v}) = %v, want %v", name, tc.lo, tc.hi, err, tc.want)
			}
		}
		if got := c.Total(); got != 0 {
			t.Errorf("%s: rejected updates changed the total to %d", name, got)
		}
	}
}

// TestBatchEntryPointsAgree calls every batch entry point of each
// planner on the same batch, from a cold prefix cache each time:
// RangeSumBatch, RangeSumBatchStats (where the planner has it),
// RangeSumBatchInto (DynamicCube), and RangeSumBatchTrace with a nil
// and with a live span context. All must return the same sums,
// BatchStats and Ops() deltas. Under trace sampling 1 every untraced
// (nil span) call admits exactly one span tree to the ring; the
// live-span call admits none, its span tree belonging to the caller,
// and through every wrapper stack it reaches the planner's stage spans
// when a DynamicCube or ShardedCube answers underneath.
func TestBatchEntryPointsAgree(t *testing.T) {
	dims := []int{16, 16}
	r := workload.NewRNG(11)
	points := workload.Uniform(r, dims, 60, 20)
	queries := randomBoxes(r, []int{0, 0}, []int{15, 15}, 12)
	front := func(inner Cube, err error) (Cube, error) {
		if err != nil {
			return nil, err
		}
		b := NewBuffered(inner, BufferedOptions{FlushInterval: -1})
		t.Cleanup(func() { b.Close() })
		return b, nil
	}
	locked := func(inner Cube, err error) (Cube, error) { return NewSynchronized(inner), err }
	wal := func(inner Cube, err error) (Cube, error) {
		if err != nil {
			return nil, err
		}
		return NewWAL(inner, new(bytes.Buffer))
	}
	dynamic := func() (Cube, error) { return NewDynamic(dims) }
	fenwick := func() (Cube, error) { return NewFenwick(dims) }
	planners := map[string]struct {
		mk     func() (Cube, error)
		staged bool // a core planner answers underneath and records stage spans
	}{
		"dynamic":               {dynamic, true},
		"sharded":               {func() (Cube, error) { return NewSharded(dims, 3, Options{}) }, true},
		"buffered-ddc":          {func() (Cube, error) { return front(dynamic()) }, true},
		"buffered-fenwick":      {func() (Cube, error) { return front(fenwick()) }, false},
		"synchronized-ddc":      {func() (Cube, error) { return locked(dynamic()) }, true},
		"synchronized-fenwick":  {func() (Cube, error) { return locked(fenwick()) }, false},
		"wal-ddc":               {func() (Cube, error) { return wal(dynamic()) }, true},
		"buffered-synchronized": {func() (Cube, error) { return front(locked(dynamic())) }, true},
		"buffered-wal-fenwick":  {func() (Cube, error) { return front(wal(fenwick())) }, false},
		"synchronized-wal-ddc":  {func() (Cube, error) { return locked(wal(dynamic())) }, true},
	}
	for name, pl := range planners {
		t.Run(name, func(t *testing.T) {
			c, err := pl.mk()
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range points {
				if err := c.Add([]int(u.Point), u.Value); err != nil {
					t.Fatal(err)
				}
				if b, ok := c.(*Buffered); ok && i == len(points)/2 {
					// Half the writes in the tree, half composed from the delta.
					if err := b.Drain(); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := make([]int64, len(queries))
			for i, q := range queries {
				if want[i], err = c.RangeSum(q.Lo, q.Hi); err != nil {
					t.Fatal(err)
				}
			}
			tree := c
			for w, ok := tree.(interface{ Unwrap() Cube }); ok; w, ok = tree.(interface{ Unwrap() Cube }) {
				tree = w.Unwrap()
			}
			tel := withTelemetry(t)
			tel.SetTraceSampling(1)
			type entry struct {
				name   string
				live   bool
				call   func() ([]int64, *BatchStats, error)
				sums   []int64
				stats  *BatchStats
				ops    OpCounts
				traces int
			}
			live := obs.NewSpanContext(256)
			trace := func(sc *obs.SpanContext) ([]int64, *BatchStats, error) {
				out := make([]int64, len(queries))
				st, _, err := c.(batchPlanner).RangeSumBatchTrace(queries, out, sc, sc.Start("test", obs.NoSpan))
				return out, &st, err
			}
			entries := []*entry{
				{name: "RangeSumBatch", call: func() ([]int64, *BatchStats, error) {
					sums, err := c.RangeSumBatch(queries)
					return sums, nil, err
				}},
				{name: "RangeSumBatchTrace(nil)", call: func() ([]int64, *BatchStats, error) { return trace(nil) }},
				{name: "RangeSumBatchTrace(live)", live: true, call: func() ([]int64, *BatchStats, error) {
					return trace(live)
				}},
			}
			if sc, ok := c.(interface {
				RangeSumBatchStats([]RangeQuery) ([]int64, BatchStats, error)
			}); ok {
				entries = append(entries, &entry{name: "RangeSumBatchStats", call: func() ([]int64, *BatchStats, error) {
					sums, st, err := sc.RangeSumBatchStats(queries)
					return sums, &st, err
				}})
			}
			if dc, ok := c.(*DynamicCube); ok {
				entries = append(entries, &entry{name: "RangeSumBatchInto", call: func() ([]int64, *BatchStats, error) {
					out := make([]int64, len(queries))
					return out, nil, dc.RangeSumBatchInto(queries, out)
				}})
			}
			for _, e := range entries {
				if ic, ok := tree.(interface{ InvalidatePrefixCache() }); ok {
					ic.InvalidatePrefixCache()
				}
				tel.Reset()
				before := c.Ops()
				if e.sums, e.stats, err = e.call(); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				after := c.Ops()
				e.ops = OpCounts{
					QueryCells:  after.QueryCells - before.QueryCells,
					UpdateCells: after.UpdateCells - before.UpdateCells,
					NodeVisits:  after.NodeVisits - before.NodeVisits,
				}
				e.traces = len(tel.Traces())
			}
			var ref *BatchStats
			for _, e := range entries {
				if !slices.Equal(e.sums, want) {
					t.Errorf("%s: sums %v, sequential %v", e.name, e.sums, want)
				}
				if e.ops != entries[0].ops {
					t.Errorf("%s: Ops delta %+v, %s %+v", e.name, e.ops, entries[0].name, entries[0].ops)
				}
				if e.stats != nil {
					if ref == nil {
						ref = e.stats
					} else if *e.stats != *ref {
						t.Errorf("%s: stats %+v, want %+v", e.name, *e.stats, *ref)
					}
				}
				if wantTraces := map[bool]int{false: 1, true: 0}[e.live]; e.traces != wantTraces {
					t.Errorf("%s: admitted %d ring traces, want %d", e.name, e.traces, wantTraces)
				}
			}
			if ref.Queries != len(queries) {
				t.Errorf("stats count %d queries, want %d", ref.Queries, len(queries))
			}
			if staged := live.Len() > 1; staged != pl.staged {
				t.Errorf("live span recorded %d spans; want planner stage spans: %v", live.Len(), pl.staged)
			}
		})
	}
}
