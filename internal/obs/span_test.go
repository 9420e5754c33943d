package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSpanTreeConcurrent is the span-slab property test, run under
// -race by the concurrency tier: workers record child trees into one
// SpanContext concurrently, and the result must hold the structural
// invariants — exact span count, parent links, and timing containment
// (every child starts no earlier and ends no later than its parent).
func TestSpanTreeConcurrent(t *testing.T) {
	const workers, grandchildren = 8, 4
	sc := NewSpanContext(DefaultSpanCapacity)
	root := sc.Start("root", NoSpan)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := sc.Start("worker", root)
			sc.SetAttr(child, "worker", int64(w))
			for g := 0; g < grandchildren; g++ {
				gc := sc.Start("step", child)
				sc.SetAttr(gc, "step", int64(g))
				sc.End(gc)
			}
			sc.End(child)
		}(w)
	}
	wg.Wait()
	sc.End(root)

	want := 1 + workers*(1+grandchildren)
	if got := sc.Len(); got != want {
		t.Fatalf("span count = %d, want %d", got, want)
	}
	if d := sc.Dropped(); d != 0 {
		t.Fatalf("dropped = %d, want 0", d)
	}

	flat := sc.Snapshot()
	byID := make(map[int32]SpanSnapshot, len(flat))
	for _, s := range flat {
		byID[s.ID] = s
	}
	for _, s := range flat {
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs {
			t.Errorf("span %d (%s) starts %dns before its parent", s.ID, s.Name, p.StartNs-s.StartNs)
		}
		if end, pend := s.StartNs+s.DurationNs, p.StartNs+p.DurationNs; end > pend {
			t.Errorf("span %d (%s) ends %dns after its parent", s.ID, s.Name, end-pend)
		}
	}

	tree := BuildSpanTree(flat)
	if len(tree) != 1 || tree[0].Name != "root" {
		t.Fatalf("tree roots = %d, want the single root span", len(tree))
	}
	if got := len(tree[0].Children); got != workers {
		t.Fatalf("root children = %d, want %d", got, workers)
	}
	for _, c := range tree[0].Children {
		if c.Name != "worker" || len(c.Children) != grandchildren {
			t.Fatalf("child %q has %d children, want worker/%d", c.Name, len(c.Children), grandchildren)
		}
	}
}

// TestSpanSlabExhaustion: a full slab drops spans (counted, never
// reallocated) and every operation on a dropped span is a no-op.
func TestSpanSlabExhaustion(t *testing.T) {
	sc := NewSpanContext(4)
	ids := make([]SpanID, 0, 6)
	for i := 0; i < 6; i++ {
		ids = append(ids, sc.Start("s", NoSpan))
	}
	for _, id := range ids[:4] {
		if id == DroppedSpan {
			t.Fatal("in-capacity span reported dropped")
		}
	}
	for _, id := range ids[4:] {
		if id != DroppedSpan {
			t.Fatalf("over-capacity span id = %d, want DroppedSpan", id)
		}
		sc.End(id)             // must not panic or touch the slab
		sc.SetAttr(id, "k", 1) // ditto
	}
	if got := sc.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := sc.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	sc.Reset()
	if sc.Len() != 0 || sc.Dropped() != 0 {
		t.Fatal("Reset did not clear the slab")
	}
}

// TestSpanAttrCap: attributes past the fixed per-span cap are dropped
// silently, never grown.
func TestSpanAttrCap(t *testing.T) {
	sc := NewSpanContext(2)
	id := sc.Start("s", NoSpan)
	for i := 0; i < maxSpanAttrs+3; i++ {
		sc.SetAttr(id, "k", int64(i))
	}
	sc.End(id)
	snap := sc.Snapshot()
	// Duplicate keys collapse in the map; the slab itself must hold
	// exactly maxSpanAttrs entries.
	if n := sc.spans[id].nattrs; n != maxSpanAttrs {
		t.Fatalf("recorded %d attrs, want %d", n, maxSpanAttrs)
	}
	if snap[0].Attrs["k"] != maxSpanAttrs-1 {
		t.Fatalf("last retained attr = %d, want %d", snap[0].Attrs["k"], maxSpanAttrs-1)
	}
}

// TestTraceparentRoundTrip: the outgoing header parses back to the same
// trace identity, and malformed headers are rejected.
func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext(2)
	id := sc.Start("s", NoSpan)
	h := sc.Traceparent(id)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("traceparent %q is not a 55-char version-00 header", h)
	}
	for _, span := range []SpanID{DroppedSpan, NoSpan, 0, 1, 15, 511, 1<<31 - 1} {
		want := span
		if want < 0 {
			want = 0
		}
		if got, want := sc.Traceparent(span), fmt.Sprintf("00-%s-%016x-01", sc.TraceID(), uint64(want)+1); got != want {
			t.Errorf("Traceparent(%d) = %q, want %q", span, got, want)
		}
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if sc2 := NewSpanContext(1); true {
		sc2.SetTraceID(got)
		if sc2.TraceID() != sc.TraceID() {
			t.Fatalf("round trip: %s != %s", sc2.TraceID(), sc.TraceID())
		}
	}
	for _, bad := range []string{
		"",
		"00-deadbeef-00f067aa0ba902b7-01", // short
		"ff-" + h[3:],                     // unknown version
		strings.Replace(h, "-", "_", 1),   // wrong separators
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero id
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("malformed traceparent %q accepted", bad)
		}
	}
}

// TestSpanContextPropagation: the context plumbing returns exactly what
// was attached, and (nil, NoSpan) for untraced requests.
func TestSpanContextPropagation(t *testing.T) {
	if sc, id := SpanFromContext(nil); sc != nil || id != NoSpan {
		t.Fatal("nil context must report untraced")
	}
	if sc, id := SpanFromContext(context.Background()); sc != nil || id != NoSpan {
		t.Fatal("bare context must report untraced")
	}
	want := NewSpanContext(2)
	span := want.Start("s", NoSpan)
	ctx := ContextWithSpan(context.Background(), want, span)
	got, id := SpanFromContext(ctx)
	if got != want || id != span {
		t.Fatal("context round trip lost the trace")
	}
}

// TestSpanPoolReuse: a pooled context comes back reset with a fresh
// trace ID.
func TestSpanPoolReuse(t *testing.T) {
	sc := GetSpanContext()
	first := sc.TraceID()
	sc.Start("s", NoSpan)
	PutSpanContext(sc)
	sc2 := GetSpanContext()
	defer PutSpanContext(sc2)
	if sc2.Len() != 0 {
		t.Fatal("pooled context not reset")
	}
	if sc2 == sc && sc2.TraceID() == first {
		t.Fatal("reused context kept its previous trace ID")
	}
}

// TestNilSpanContextNoOp pins the untraced path: Start, End and SetAttr
// on a nil trace record nothing and do not panic, so callers need no
// nil guard.
func TestNilSpanContextNoOp(t *testing.T) {
	var sc *SpanContext
	id := sc.Start("stage", NoSpan)
	if id != NoSpan {
		t.Fatalf("nil Start = %d, want NoSpan", id)
	}
	sc.SetAttr(id, "k", 1)
	sc.End(id)
	if a := testing.AllocsPerRun(100, func() {
		sc.End(sc.Start("stage", NoSpan))
	}); a != 0 {
		t.Fatalf("nil span context allocates %.1f/op", a)
	}
}
