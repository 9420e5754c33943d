package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing. A SpanContext is one request's trace: a fixed-capacity
// slab of spans allocated by a single atomic increment, so any number
// of goroutines (a sharded fan-out, the batch planner's workers) can
// record spans into one trace without locks. Each span carries a name,
// a parent link, wall-clock offsets relative to the trace start, and a
// small fixed set of integer attributes — no maps, no interface boxing,
// so recording a span is two time stamps and a handful of stores.
//
// SpanContexts are pooled (GetSpanContext / PutSpanContext): the
// steady-state traced request allocates nothing beyond what it records
// lazily (the hex trace ID, snapshots). A nil *SpanContext is the
// untraced request: Start, End and SetAttr on it return at once,
// without reading the clock, so one code path serves traced and
// untraced callers alike.

// SpanID indexes a span inside its SpanContext. The root's parent is
// NoSpan; spans dropped because the trace slab was full get DroppedSpan
// and every operation on them is a no-op.
type SpanID int32

const (
	// NoSpan is the parent of root spans (and the SpanID zero-ish
	// sentinel for "no current span").
	NoSpan SpanID = -1
	// DroppedSpan identifies spans that could not be recorded because
	// the trace's span slab was exhausted.
	DroppedSpan SpanID = -2
)

// maxSpanAttrs bounds the per-span attribute set. Attributes beyond the
// cap are dropped (never a reallocation on the recording path).
const maxSpanAttrs = 8

// DefaultSpanCapacity is the span slab size of pooled SpanContexts:
// enough for a deep batch explain (stages + per-shard + per-level)
// while keeping a pooled trace under ~64 KiB.
const DefaultSpanCapacity = 512

type spanAttr struct {
	key string
	val int64
}

// span is the in-slab representation; see SpanSnapshot for the exported
// form.
type span struct {
	name    string
	parent  SpanID
	startNs int64 // offset from the trace start
	durNs   int64
	attrs   [maxSpanAttrs]spanAttr
	nattrs  int32
	ended   bool
}

// SpanContext is one trace: a trace ID and a wait-free slab of spans.
// Allocation (Start) is safe from any goroutine; each individual span
// must be ended and annotated by the goroutine that started it.
type SpanContext struct {
	traceID [16]byte
	start   time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Uint32
}

// NewSpanContext returns a trace with capacity for cap spans and a
// fresh random trace ID. Most callers want GetSpanContext.
func NewSpanContext(capacity int) *SpanContext {
	if capacity < 1 {
		capacity = 1
	}
	sc := &SpanContext{spans: make([]span, capacity)}
	sc.Reset()
	return sc
}

// spanCtxPool recycles SpanContexts across requests.
var spanCtxPool = sync.Pool{New: func() interface{} {
	return NewSpanContext(DefaultSpanCapacity)
}}

// GetSpanContext returns a pooled, reset SpanContext with a fresh trace
// ID. Pair with PutSpanContext once every span recorded into it has
// been consumed (snapshots copy, so they stay valid after Put).
func GetSpanContext() *SpanContext {
	sc := spanCtxPool.Get().(*SpanContext)
	sc.Reset()
	return sc
}

// PutSpanContext returns a trace to the pool. The caller must not touch
// sc afterwards.
func PutSpanContext(sc *SpanContext) { spanCtxPool.Put(sc) }

// Reset clears all spans, re-stamps the trace start and draws a new
// random trace ID.
func (sc *SpanContext) Reset() {
	sc.n.Store(0)
	sc.dropped.Store(0)
	sc.start = time.Now()
	if _, err := rand.Read(sc.traceID[:]); err != nil {
		// A failed entropy read leaves the previous (or zero) ID; trace
		// identity degrades, recording does not.
		binaryFallbackID(&sc.traceID)
	}
}

// fallbackSeq derives distinct trace IDs when crypto/rand fails.
var fallbackSeq atomic.Uint64

func binaryFallbackID(id *[16]byte) {
	v := fallbackSeq.Add(1)
	for i := 0; i < 8; i++ {
		id[8+i] = byte(v >> (8 * uint(7-i)))
	}
}

// SetTraceID adopts an upstream trace identity (e.g. from a W3C
// traceparent header) in place of the generated one.
func (sc *SpanContext) SetTraceID(id [16]byte) { sc.traceID = id }

// TraceID returns the trace identity as 32 lowercase hex digits.
func (sc *SpanContext) TraceID() string {
	return hex.EncodeToString(sc.traceID[:])
}

// Start records a new span under parent (NoSpan for a root) and returns
// its ID. Wait-free: one atomic increment claims a slab slot. When the
// slab is full the span is counted as dropped and DroppedSpan is
// returned; End/SetAttr on it do nothing. On a nil sc it records
// nothing and returns NoSpan.
func (sc *SpanContext) Start(name string, parent SpanID) SpanID {
	if sc == nil {
		return NoSpan
	}
	return sc.record(name, parent)
}

func (sc *SpanContext) record(name string, parent SpanID) SpanID {
	i := sc.n.Add(1) - 1
	if int(i) >= len(sc.spans) {
		sc.n.Add(-1)
		sc.dropped.Add(1)
		return DroppedSpan
	}
	s := &sc.spans[i]
	s.name = name
	s.parent = parent
	s.startNs = int64(time.Since(sc.start))
	s.durNs = 0
	s.nattrs = 0
	s.ended = false
	return SpanID(i)
}

// End stamps the span's duration. Call once, from the goroutine that
// started the span. A no-op on a nil sc.
func (sc *SpanContext) End(id SpanID) {
	if sc == nil || id < 0 || int(id) >= int(sc.n.Load()) {
		return
	}
	s := &sc.spans[id]
	s.durNs = int64(time.Since(sc.start)) - s.startNs
	s.ended = true
}

// Interval returns the span's start as a wall-clock time and its
// duration: the stamps its snapshot reports, so a record built from them
// agrees with its span tree. An unended span reports the duration
// observed so far; an unrecorded id, the trace start and 0.
func (sc *SpanContext) Interval(id SpanID) (time.Time, time.Duration) {
	if id < 0 || int(id) >= sc.Len() {
		return sc.start, 0
	}
	s := &sc.spans[id]
	return sc.start.Add(time.Duration(s.startNs)), time.Duration(sc.durNs(s))
}

// durNs is a span's duration, or for an unended span the time since it
// started.
func (sc *SpanContext) durNs(s *span) int64 {
	if !s.ended {
		return int64(time.Since(sc.start)) - s.startNs
	}
	return s.durNs
}

// SetAttr attaches an integer attribute to the span. Attributes past
// the fixed per-span cap are silently dropped. A no-op on a nil sc.
func (sc *SpanContext) SetAttr(id SpanID, key string, val int64) {
	if sc == nil || id < 0 || int(id) >= int(sc.n.Load()) {
		return
	}
	s := &sc.spans[id]
	if s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = spanAttr{key: key, val: val}
	s.nattrs++
}

// Len returns the number of spans recorded so far.
func (sc *SpanContext) Len() int {
	n := int(sc.n.Load())
	if n > len(sc.spans) {
		n = len(sc.spans)
	}
	return n
}

// Dropped returns the number of spans lost to slab exhaustion.
func (sc *SpanContext) Dropped() uint32 { return sc.dropped.Load() }

// SpanSnapshot is the exported, JSON-ready form of one span. StartNs is
// relative to the trace start, so a span tree is self-contained without
// absolute clocks.
type SpanSnapshot struct {
	ID         int32            `json:"id"`
	Parent     int32            `json:"parent"` // -1 for roots
	Name       string           `json:"name"`
	StartNs    int64            `json:"start_ns"`
	DurationNs int64            `json:"duration_ns"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`

	// Children is populated by Tree (nested form); Snapshot leaves it
	// nil and callers follow Parent links instead.
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies every recorded span in start order (flat; follow the
// Parent links). Unended spans report the duration observed so far.
func (sc *SpanContext) Snapshot() []SpanSnapshot {
	n := sc.Len()
	out := make([]SpanSnapshot, n)
	for i := 0; i < n; i++ {
		s := &sc.spans[i]
		ss := SpanSnapshot{
			ID:         int32(i),
			Parent:     int32(s.parent),
			Name:       s.name,
			StartNs:    s.startNs,
			DurationNs: sc.durNs(s),
		}
		if s.nattrs > 0 {
			ss.Attrs = make(map[string]int64, s.nattrs)
			for a := int32(0); a < s.nattrs; a++ {
				ss.Attrs[s.attrs[a].key] = s.attrs[a].val
			}
		}
		out[i] = ss
	}
	return out
}

// Tree returns the trace as nested span trees (one entry per root).
// Children appear in start order.
func (sc *SpanContext) Tree() []SpanSnapshot {
	return BuildSpanTree(sc.Snapshot())
}

// BuildSpanTree nests a flat parent-linked span list into trees. Spans
// whose parent is missing (e.g. dropped) become roots.
func BuildSpanTree(flat []SpanSnapshot) []SpanSnapshot {
	byID := make(map[int32]int, len(flat))
	for i := range flat {
		byID[flat[i].ID] = i
	}
	// Count children to size slices, then attach bottom-up by index.
	nodes := make([]SpanSnapshot, len(flat))
	copy(nodes, flat)
	var roots []SpanSnapshot
	// Attach children in reverse start order so each child is complete
	// (its own children attached) before its parent copies it.
	for i := len(nodes) - 1; i >= 0; i-- {
		pi, ok := byID[nodes[i].Parent]
		if nodes[i].Parent < 0 || !ok || pi == i {
			continue
		}
		// Prepend to keep start order (we iterate in reverse).
		nodes[pi].Children = append([]SpanSnapshot{nodes[i]}, nodes[pi].Children...)
	}
	for i := range nodes {
		if pi, ok := byID[nodes[i].Parent]; nodes[i].Parent < 0 || !ok || pi == i {
			roots = append(roots, nodes[i])
		}
	}
	return roots
}

// ---------------------------------------------------------------------
// W3C trace-context propagation

// ParseTraceparent extracts the trace ID from a W3C traceparent header
// (version 00: "00-<32 hex trace id>-<16 hex parent id>-<2 hex flags>").
// It returns false for anything malformed or an all-zero trace ID.
func ParseTraceparent(h string) (id [16]byte, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return id, false
	}
	if h[0] != '0' || h[1] != '0' {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(h[3:35])); err != nil {
		return id, false
	}
	zero := true
	for _, b := range id {
		if b != 0 {
			zero = false
			break
		}
	}
	return id, !zero
}

// Traceparent renders the trace's W3C traceparent header value for the
// given span (the outgoing parent id), sampled flag set.
func (sc *SpanContext) Traceparent(id SpanID) string {
	if id < 0 {
		id = 0
	}
	const digits = "0123456789abcdef"
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], sc.traceID[:])
	b[35] = '-'
	for i, v := 51, uint64(id)+1; i > 35; i, v = i-1, v>>4 {
		b[i] = digits[v&15]
	}
	copy(b[52:], "-01")
	return string(b[:])
}

// ---------------------------------------------------------------------
// context.Context propagation

type spanCtxKey struct{}

type spanRef struct {
	sc   *SpanContext
	span SpanID
}

// ContextWithSpan returns a context carrying the trace and its current
// span, for propagation across API layers within a request.
func ContextWithSpan(ctx context.Context, sc *SpanContext, span SpanID) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{sc: sc, span: span})
}

// SpanFromContext returns the context's trace and current span, or
// (nil, NoSpan) when the request is untraced — the single check callers
// gate their recording on.
func SpanFromContext(ctx context.Context) (*SpanContext, SpanID) {
	if ctx == nil {
		return nil, NoSpan
	}
	if ref, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		return ref.sc, ref.span
	}
	return nil, NoSpan
}
