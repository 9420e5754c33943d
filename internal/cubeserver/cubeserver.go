// Package cubeserver exposes a Dynamic Data Cube over HTTP/JSON — the
// "dynamic updates with interactive analytics" service Section 1 argues
// the data cube should become. The handler logic lives here so it is
// fully testable with net/http/httptest; cmd/ddcserver wires it to a
// listener.
//
// API (all JSON unless noted):
//
//	POST /v1/add        {"point":[45,341],"delta":250}
//	POST /v1/add/range  {"lo":[27,220],"hi":[45,251],"delta":250}
//	POST /v1/set        {"point":[45,341],"value":250}
//	POST /v1/batch      {"ops":[{"op":"add","point":[45,341],"value":250},...]}
//	POST /v1/checkpoint (persist a snapshot and rotate the log)
//	GET  /v1/get?point=45,341
//	GET  /v1/sum?range=27,220:45,251
//	POST /v1/sum/batch  {"queries":[{"lo":[27,220],"hi":[45,251]},...]}
//	GET  /v1/scan?range=27,220:45,251&limit=100
//	GET  /v1/explain?point=45,341
//	POST /v1/explain    {"queries":[{"lo":[27,220],"hi":[45,251]},...]}
//	                    (forced span tracing: plan, budget check, span tree)
//	GET  /v1/stats
//	GET  /v1/trace                  (retained query traces, newest first)
//	GET  /v1/workload               (workload capture progress)
//	GET  /v1/snapshot               (binary snapshot stream)
//	GET  /healthz                   (liveness: process is up)
//	GET  /readyz                    (readiness: recovery done, log healthy)
//	GET  /metrics                   (Prometheus text exposition)
//	GET  /debug/pprof/...           (only with Options.Pprof)
//
// Every request is traced when telemetry is enabled: a W3C traceparent
// header is honoured inbound (the request joins the caller's trace) and
// echoed outbound, and requests admitted by the slow-query threshold or
// the sampler retain their full span tree in the /v1/trace ring.
//
// A server with a workload capture attached (AttachCapture) records
// every write it applies and every read it answers into the capture,
// under the lock that orders them: the capture replays to the server's
// own answers whatever write front is below.
package cubeserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ddc"
	"ddc/internal/cubecli"
	"ddc/internal/logrec"
	"ddc/internal/obs"
	"ddc/internal/workload"
)

// Persistence is the durability surface the server drives: mutations
// are applied through it, Flush is called before each mutation response
// (the commit point — a 200 means the mutation is durable), and
// Checkpoint backs POST /v1/checkpoint. internal/store.Store implements
// it; a bare *ddc.WAL is adapted by New.
type Persistence interface {
	Add(p []int, delta int64) error
	RangeAdd(lo, hi []int, delta int64) error
	Set(p []int, value int64) error
	Flush() error
	Checkpoint() error
}

// healthChecker is the optional readiness surface of a Persistence:
// internal/store.Store implements it (closed store, poisoned WAL).
// GET /readyz reports 503 while Healthy returns non-nil.
type healthChecker interface{ Healthy() error }

// spanTracer is the optional span-trace attachment surface of a
// Persistence (internal/store.Store and, via walPersistence, *ddc.WAL):
// while attached, WAL appends/flushes and checkpoints record child
// spans into the request's trace.
type spanTracer interface {
	TraceSpans(sc *obs.SpanContext, parent obs.SpanID)
}

// reader is the server's one read surface, fixed at construction: the
// buffered front when one is attached (reads compose tree + delta, so
// they see every acknowledged write), the cube otherwise.
type reader interface {
	Get(p []int) int64
	RangeSum(lo, hi []int) (int64, error)
	Total() int64
	ExplainPrefix(p []int) (int64, []ddc.Contribution)
	RangeSumBatchTrace(queries []ddc.RangeQuery, out []int64, sc *obs.SpanContext, parent obs.SpanID) (ddc.BatchStats, []uint64, error)
}

// ErrCheckpointUnsupported is returned by Persistence implementations
// that cannot checkpoint (a bare WAL has nowhere to put a snapshot);
// the server maps it to 501 Not Implemented.
var ErrCheckpointUnsupported = errors.New("cubeserver: persistence does not support checkpoints")

// walPersistence adapts a bare write-ahead log to Persistence: the
// WAL's own mutators, Flush and TraceSpans, no checkpoints.
type walPersistence struct{ *ddc.WAL }

func (walPersistence) Checkpoint() error { return ErrCheckpointUnsupported }
func (p walPersistence) Healthy() error  { return p.Err() }

// Server serves one cube. Mutations are serialized by an internal
// RWMutex; reads take the shared lock, so any number of queries are
// answered in parallel (DynamicCube's read paths are concurrency-safe:
// per-call pooled scratch, atomically merged counters).
type Server struct {
	mu      sync.RWMutex
	c       *ddc.DynamicCube
	buf     *ddc.Buffered // optional delta front; drained before tree walks
	read    reader        // where reads go: buf, else the cube
	persist Persistence   // optional; when set, mutations go through it
	target  logrec.Target // where mutations apply: persist, else the cube
	mux     *http.ServeMux
	log     *slog.Logger
	ready   atomic.Bool // construction (post-recovery) complete
	// maxBody bounds a batch request's body; see decodeQueries.
	maxBody int64
	// spanNames maps each mounted path to its root span name, so a
	// request's trace name is not built per request.
	spanNames map[string]string
	// capture, when attached, records writes under mu's write lock as
	// they apply and reads under its read lock as they are answered.
	capture atomic.Pointer[workload.Capture]

	// version counts successful mutations; the derived-stats cache below
	// is recomputed only when it moves (NonZeroCells/StorageCells/Total
	// walk the whole tree, far too hot to pay per /v1/stats hit).
	version atomic.Uint64
	statsMu sync.Mutex
	stats   cachedStats
}

// cachedStats is the expensive, mutation-dependent half of /v1/stats.
type cachedStats struct {
	version uint64
	valid   bool
	total   int64
	nonzero int
	storage int
}

// Options configures optional server behaviour.
type Options struct {
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// TraceSample, when > 0, makes 1 in N queries retain their span
	// tree (GET /v1/trace).
	TraceSample int
	// SlowQuery, when > 0, records every query at or above the
	// threshold into the trace ring and the slow-query counter.
	SlowQuery time.Duration
	// SLOObjective, when > 0, is the latency objective the SLO
	// burn-rate counters (ddc_slo_good_total / ddc_slo_requests_total)
	// judge queries against.
	SLOObjective time.Duration
	// Logger receives structured log records (slow requests with trace
	// IDs, 5xx errors). Defaults to slog.Default().
	Logger *slog.Logger
}

// bufferedPersistence is the optional delta-front surface of a
// Persistence: internal/store.Store in Options.Buffered mode returns
// its non-nil write front (nil otherwise).
type bufferedPersistence interface{ Buffered() *ddc.Buffered }

// New returns a server over the cube. If wal is non-nil, every mutation
// is appended (and flushed) to it before the response is sent, making
// updates durable.
func New(c *ddc.DynamicCube, wal *ddc.WAL) *Server {
	return NewWithOptions(c, wal, Options{})
}

// NewWithOptions is New with observability knobs.
func NewWithOptions(c *ddc.DynamicCube, wal *ddc.WAL, opts Options) *Server {
	var p Persistence
	if wal != nil {
		p = walPersistence{wal}
	}
	return NewWithPersistence(c, p, opts)
}

// NewWithPersistence serves a cube backed by a full persistence engine
// (typically internal/store.Store): mutations are applied and flushed
// through it, and POST /v1/checkpoint snapshots and rotates the log.
// When p exposes a non-nil Buffered() delta write front (a store opened
// with Options.Buffered), point and range reads compose tree + delta
// through it (read-your-writes under sustained ingest), and tree-walk
// endpoints (/v1/scan, /v1/snapshot) drain it first so the streamed
// tree is exact.
// Construction enables the process-wide telemetry registry (served at
// GET /metrics) and applies the trace sampling and slow-query
// thresholds.
func NewWithPersistence(c *ddc.DynamicCube, p Persistence, opts Options) *Server {
	tel := ddc.GlobalTelemetry()
	tel.Enable()
	tel.SetBuildInfo(c.Backend())
	if opts.TraceSample > 0 {
		tel.SetTraceSampling(opts.TraceSample)
	}
	if opts.SlowQuery > 0 {
		tel.SetSlowQueryThreshold(opts.SlowQuery)
	}
	if opts.SLOObjective > 0 {
		tel.SetSLOObjective(opts.SLOObjective)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{c: c, read: c, persist: p, target: c, mux: http.NewServeMux(), log: logger,
		maxBody: maxBatchQueries * int64(128+64*len(c.Dims()))}
	if p != nil {
		s.target = p
	}
	if bp, ok := p.(bufferedPersistence); ok {
		if buf := bp.Buffered(); buf != nil {
			s.buf, s.read = buf, buf
		}
	}
	routes := []struct {
		path string
		h    http.HandlerFunc
	}{
		{"/v1/add", s.handleAdd},
		{"/v1/add/range", s.handleRangeAdd},
		{"/v1/set", s.handleSet},
		{"/v1/batch", s.handleBatch},
		{"/v1/checkpoint", s.handleCheckpoint},
		{"/v1/get", s.handleGet},
		{"/v1/sum", s.handleSum},
		{"/v1/sum/batch", s.handleSumBatch},
		{"/v1/stats", s.handleStats},
		{"/v1/scan", s.handleScan},
		{"/v1/explain", s.handleExplain},
		{"/v1/snapshot", s.handleSnapshot},
		{"/v1/trace", s.handleTrace},
		{"/v1/workload", s.handleWorkload},
		{"/healthz", s.handleHealthz},
		{"/readyz", s.handleReadyz},
		{"/metrics", s.handleMetrics},
	}
	s.spanNames = make(map[string]string, len(routes))
	for _, rt := range routes {
		s.mux.HandleFunc(rt.path, rt.h)
		s.spanNames[rt.path] = "http " + rt.path
	}
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Recovery (store.Open) finished before the server existed; once the
	// routes are mounted the server is ready, pending log health.
	s.ready.Store(true)
	return s
}

// AttachCapture directs the server's workload record into c: every
// mutation it applies (for POST /v1/batch, the applied prefix) and,
// subject to the capture's sampling, every range sum and batch it
// answers (the sum a range add echoes and POST /v1/explain's batch
// included). nil detaches. The previous capture, if any, is returned
// so the caller can Close it.
func (s *Server) AttachCapture(c *workload.Capture) *workload.Capture {
	return s.capture.Swap(c)
}

// statusWriter captures the response status for the tracing middleware
// and carries the request's trace to the handlers. ServeHTTP takes one
// from statusWriters per request and returns it when the handler is
// done; no handler keeps its writer past its own return.
type statusWriter struct {
	http.ResponseWriter
	status int
	sc     *obs.SpanContext
	span   obs.SpanID
}

var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// jsonContentType is the preset Content-Type value slice of every JSON
// response. It is shared and never written.
var jsonContentType = []string{"application/json"}

// requestSpan returns the request's trace and its root span, or (nil,
// NoSpan) when the request is untraced (telemetry off: the handler got
// the caller's writer, not a statusWriter).
func requestSpan(w http.ResponseWriter) (*obs.SpanContext, obs.SpanID) {
	if sw, ok := w.(*statusWriter); ok {
		return sw.sc, sw.span
	}
	return nil, obs.NoSpan
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler. When telemetry is enabled every
// request runs under a pooled span trace: an inbound W3C traceparent
// header joins the caller's trace, the outbound header carries this
// request's identity, handlers reach the trace through the status
// writer they are handed (requestSpan), and requests admitted by the
// slow-query threshold or the sampler retain their span tree in the
// /v1/trace ring. With telemetry disabled the entire path is one atomic
// load and a plain dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tel := ddc.GlobalTelemetry()
	if !tel.Enabled() {
		s.mux.ServeHTTP(w, r)
		return
	}
	sc := obs.GetSpanContext()
	// Headers are read and written under their canonical keys directly:
	// Get and Set would canonicalise "traceparent" on every request.
	if h := r.Header["Traceparent"]; len(h) > 0 {
		if id, ok := obs.ParseTraceparent(h[0]); ok {
			sc.SetTraceID(id)
		}
	}
	name, ok := s.spanNames[r.URL.Path]
	if !ok {
		name = "http " + r.URL.Path
	}
	root := sc.Start(name, obs.NoSpan)
	w.Header()["Traceparent"] = []string{sc.Traceparent(root)}
	sw := statusWriters.Get().(*statusWriter)
	*sw = statusWriter{ResponseWriter: w, sc: sc, span: root}
	s.mux.ServeHTTP(sw, r)
	sc.End(root)
	status := sw.status
	*sw = statusWriter{}
	statusWriters.Put(sw)
	// The record's start and duration are the root span's own stamps, so
	// a retained trace's duration_ns equals its root span's.
	start, d := sc.Interval(root)
	if status >= http.StatusInternalServerError {
		s.log.Error("request failed",
			"trace_id", sc.TraceID(), "path", r.URL.Path,
			"status", status, "duration", d)
	}
	// Offer the span tree only when the request recorded spans beyond
	// the root (batch stages, per-slab fan-out, WAL commits): a
	// single-span request is already covered by the cube layer's trace,
	// and a second ring entry would halve its reach. The sampler is
	// drawn only for a request this layer would retain: the cube layer
	// already drew it for a single-span read, and a second draw per
	// request would skip every other sampled read.
	var slow bool
	if sc.Len() > 1 {
		slow = tel.AdmitSpans(name, start, d, sc)
	} else if th := tel.SlowQueryThreshold(); th > 0 && d >= th {
		slow = true
	}
	if slow {
		s.log.Warn("slow request",
			"trace_id", sc.TraceID(), "path", r.URL.Path,
			"duration", d, "spans", sc.Len())
	}
	obs.PutSpanContext(sc)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

type mutation struct {
	Point []int  `json:"point"`
	Delta *int64 `json:"delta,omitempty"`
	Value *int64 `json:"value,omitempty"`
}

func (s *Server) decodeMutation(w http.ResponseWriter, r *http.Request, x *scratch) (*mutation, bool) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	if err := x.decode(r.Body, maxPooled, x.scanMutation, &x.mut); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return nil, false
	}
	m := &x.mut
	if len(m.Point) == 0 {
		writeErr(w, http.StatusBadRequest, "point required")
		return nil, false
	}
	return m, true
}

// mutate applies ms in order through the persistence (if attached) or
// the cube, stopping at the first failure, and reports how many
// applied. Each applied mutation lands in the attached capture under
// the write lock, so the capture holds writes in the order they
// applied, before any read that saw them. The Flush is the commit
// point: a non-error response means the mutations are durable. When
// the request is traced (sc non-nil) and the persistence supports it,
// WAL appends/fsyncs and checkpoints record child spans under span —
// detached again before the pooled trace returns to its pool.
func (s *Server) mutate(sc *obs.SpanContext, span obs.SpanID, ms ...logrec.Mutation) (applied int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.persist.(spanTracer); ok {
		st.TraceSpans(sc, span)
		defer st.TraceSpans(nil, obs.NoSpan)
	}
	// Invalidate unconditionally: a failing batch may still have applied
	// a prefix of its operations.
	s.version.Add(1)
	cp := s.capture.Load()
	for _, m := range ms {
		if err := m.Apply(s.target); err != nil {
			return applied, err
		}
		cp.Update(m)
		applied++
	}
	if s.persist != nil {
		return applied, s.persist.Flush()
	}
	return applied, nil
}

// handleCheckpoint persists a snapshot and rotates the log (POST). With
// no persistence configured it is a 412; with a checkpoint-less WAL it
// is a 501.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.persist == nil {
		writeErr(w, http.StatusPreconditionFailed, "no persistence configured")
		return
	}
	s.mu.Lock()
	// Attach the request's trace like mutate does, so an explicit
	// checkpoint records its store.checkpoint span; detach before the
	// lock drops — the attachment is guarded by s.mu.
	st, traced := s.persist.(spanTracer)
	if traced {
		st.TraceSpans(requestSpan(w))
	}
	err := s.persist.Checkpoint()
	if traced {
		st.TraceSpans(nil, obs.NoSpan)
	}
	s.mu.Unlock()
	switch {
	case errors.Is(err, ErrCheckpointUnsupported):
		writeErr(w, http.StatusNotImplemented, "%v", err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "checkpoint: %v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"checkpointed": true})
	}
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	x := getScratch()
	defer putScratch(x)
	m, ok := s.decodeMutation(w, r, x)
	if !ok {
		return
	}
	if m.Delta == nil {
		writeErr(w, http.StatusBadRequest, "delta required")
		return
	}
	sc, span := requestSpan(w)
	if _, err := s.mutate(sc, span, logrec.Mutation{Kind: logrec.Add, Lo: m.Point, Delta: *m.Delta}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	v := s.read.Get(m.Point)
	s.mu.RUnlock()
	x.send(w, appendInt(x.out, "value", v))
}

// rangeMutation is the body of POST /v1/add/range.
type rangeMutation struct {
	Lo    []int  `json:"lo"`
	Hi    []int  `json:"hi"`
	Delta *int64 `json:"delta,omitempty"`
}

// handleRangeAdd applies one delta to every cell of an inclusive box —
// a single O(d) lazy update on the cube regardless of the box volume,
// and a single range record in the log when persistence is attached.
func (s *Server) handleRangeAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	x := getScratch()
	defer putScratch(x)
	if err := x.decode(r.Body, maxPooled, x.scanRangeMutation, &x.rmut); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	m := &x.rmut
	if len(m.Lo) == 0 || len(m.Hi) == 0 {
		writeErr(w, http.StatusBadRequest, "lo and hi required")
		return
	}
	if m.Delta == nil {
		writeErr(w, http.StatusBadRequest, "delta required")
		return
	}
	sc, span := requestSpan(w)
	if _, err := s.mutate(sc, span, logrec.Mutation{Kind: logrec.RangeAdd, Lo: m.Lo, Hi: m.Hi, Delta: *m.Delta}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.RLock()
	sum, serr := s.read.RangeSum(m.Lo, m.Hi)
	if serr == nil {
		s.capture.Load().RangeSum(m.Lo, m.Hi)
	}
	s.mu.RUnlock()
	if serr != nil {
		writeErr(w, http.StatusInternalServerError, "%v", serr)
		return
	}
	x.send(w, appendInt(x.out, "sum", sum))
}

func (s *Server) handleSet(w http.ResponseWriter, r *http.Request) {
	x := getScratch()
	defer putScratch(x)
	m, ok := s.decodeMutation(w, r, x)
	if !ok {
		return
	}
	if m.Value == nil {
		writeErr(w, http.StatusBadRequest, "value required")
		return
	}
	sc, span := requestSpan(w)
	if _, err := s.mutate(sc, span, logrec.Mutation{Kind: logrec.Set, Lo: m.Point, Delta: *m.Value}); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	x.send(w, appendInt(x.out, "value", *m.Value))
}

// batchOp is one operation in a /v1/batch request.
type batchOp struct {
	Op    string `json:"op"` // a point mutation kind: "add" or "set"
	Point []int  `json:"point"`
	Value int64  `json:"value"`
}

// handleBatch applies many mutations under one lock (and one WAL flush),
// the bulk-ingest path for streams like the paper's trade feed. The
// batch is applied in order; on the first failing operation the response
// reports how many were applied (earlier operations are not rolled
// back — the cube is an aggregate index, not a transactional store).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		Ops []batchOp `json:"ops"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "ops required")
		return
	}
	// The ops before the first unknown one are applied; it fails the
	// batch like an operation that fails to apply.
	ms := make([]logrec.Mutation, 0, len(req.Ops))
	var unknown error
	for i, op := range req.Ops {
		k, ok := logrec.ParseKind(op.Op)
		if !ok || k.Box() {
			unknown = fmt.Errorf("op %d: unknown op %q", i, op.Op)
			break
		}
		ms = append(ms, logrec.Mutation{Kind: k, Lo: op.Point, Delta: op.Value})
	}
	sc, span := requestSpan(w)
	applied, err := s.mutate(sc, span, ms...)
	if err != nil {
		err = fmt.Errorf("op %d: %v", applied, err)
	} else {
		err = unknown
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]interface{}{
			"error":   err.Error(),
			"applied": applied,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"applied": applied})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	x := getScratch()
	defer putScratch(x)
	p, err := x.parsePoint(queryValue(r.URL.RawQuery, "point"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "point: %v", err)
		return
	}
	s.mu.RLock()
	v := s.read.Get(p)
	s.mu.RUnlock()
	x.send(w, appendInt(x.out, "value", v))
}

func (s *Server) handleSum(w http.ResponseWriter, r *http.Request) {
	x := getScratch()
	defer putScratch(x)
	lo, hi, err := x.parseRange(queryValue(r.URL.RawQuery, "range"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "range: %v", err)
		return
	}
	s.mu.RLock()
	sum, err := s.read.RangeSum(lo, hi)
	if err == nil {
		s.capture.Load().RangeSum(lo, hi)
	}
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	x.send(w, appendInt(x.out, "sum", sum))
}

// maxBatchQueries caps POST /v1/sum/batch and POST /v1/explain so a
// single request cannot monopolise the read path.
const maxBatchQueries = 4096

// decodeQueries decodes a batch body ({"queries":[{"lo":..,"hi":..}]};
// the keys match RangeQuery's fields). The body is bounded by what
// maxBatchQueries boxes of the cube's d coordinates can take — 32 bytes
// per coordinate and 128 per box leave room for any int and for
// whitespace — so an oversized batch is refused before it is decoded.
// The boxes live in x.
func (s *Server) decodeQueries(w http.ResponseWriter, r *http.Request, x *scratch) ([]ddc.RangeQuery, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := x.decode(r.Body, -1, x.scanQueries, &x.batch); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, "bad body: %v", err)
		return nil, false
	}
	queries := x.batch.Queries
	if len(queries) == 0 {
		writeErr(w, http.StatusBadRequest, "queries required")
		return nil, false
	}
	if len(queries) > maxBatchQueries {
		writeErr(w, http.StatusBadRequest, "batch of %d queries exceeds limit %d", len(queries), maxBatchQueries)
		return nil, false
	}
	return queries, true
}

func (s *Server) handleSumBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	x := getScratch()
	defer putScratch(x)
	queries, ok := s.decodeQueries(w, r, x)
	if !ok {
		return
	}
	// A traced request's planner records its stage spans (plan, dedup,
	// execute, gather) into the request's trace; an untraced one has a
	// nil span context, the engine's plain path.
	sc, span := requestSpan(w)
	sums := x.sumsFor(len(queries))
	s.mu.RLock()
	stats, _, err := s.read.RangeSumBatchTrace(queries, sums, sc, span)
	if err == nil {
		s.captureBatch(queries)
	}
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	x.send(w, appendBatch(x.out, sums, stats))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	lo, hi := s.c.Bounds()
	dims := s.c.Dims()
	total, nonzero, storage := s.derivedStats()
	s.mu.RUnlock()
	snap := ddc.GlobalTelemetry().Snapshot()
	var queries, updates uint64
	for _, n := range snap.Queries {
		queries += n
	}
	for _, n := range snap.Updates {
		updates += n
	}
	stats := map[string]interface{}{
		"dims":    dims,
		"lo":      lo,
		"hi":      hi,
		"total":   total,
		"nonzero": nonzero,
		"storage": storage,
		"backend": s.c.Backend(),
		"build": map[string]string{
			"version":    ddc.Version,
			"go_version": runtime.Version(),
			"backend":    s.c.Backend(),
		},
		"slo": map[string]interface{}{
			"objective_ns": snap.SLOObjectiveNs,
			"good":         snap.SLOGood,
			"requests":     snap.SLORequests,
		},
		"ops": map[string]uint64{
			"queries":           queries,
			"updates":           updates,
			"query_node_visits": snap.QueryNodeVisits,
			"query_cells":       snap.QueryCells,
			"update_cells":      snap.UpdateCells,
		},
	}
	writeJSON(w, http.StatusOK, stats)
}

// derivedStats returns the tree-walk half of /v1/stats, recomputing
// only when a mutation has happened since the cached copy. Callers hold
// the read lock (so the cube cannot change underneath); statsMu only
// serializes cache maintenance between concurrent readers.
func (s *Server) derivedStats() (total int64, nonzero, storage int) {
	v := s.version.Load()
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if !s.stats.valid || s.stats.version != v {
		// The composed total counts undrained deltas; NonZeroCells and
		// StorageCells stay tree-side metrics (they measure the index,
		// not the front).
		s.stats = cachedStats{
			version: v,
			valid:   true,
			total:   s.read.Total(),
			nonzero: s.c.NonZeroCells(),
			storage: s.c.StorageCells(),
		}
	}
	return s.stats.total, s.stats.nonzero, s.stats.storage
}

// drainFront empties the delta front so tree-walk endpoints (/v1/scan,
// /v1/snapshot) see every acknowledged mutation. A no-op without a
// front. Must be called before taking s.mu — the drain briefly takes
// the cube's exclusive apply lock.
func (s *Server) drainFront() error {
	if s.buf == nil {
		return nil
	}
	return s.buf.Drain()
}

// handleMetrics serves the telemetry registry in the Prometheus text
// exposition format (stdlib only; histograms appear as summaries with
// p50/p95/p99 quantile labels).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = ddc.GlobalTelemetry().WritePrometheus(w)
}

// handleTrace serves the retained query traces (sampled and slow),
// newest first, with the ring's capacity and eviction count so readers
// know whether the record is complete.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tel := ddc.GlobalTelemetry()
	capacity, dropped := tel.TraceRingStats()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sampling":      tel.TraceSampling(),
		"slow_query_ns": tel.SlowQueryThreshold().Nanoseconds(),
		"capacity":      capacity,
		"dropped":       dropped,
		"traces":        tel.Traces(),
	})
}

// captureBatch records one answered batch of query boxes in the
// attached capture; the caller holds the read lock.
func (s *Server) captureBatch(queries []ddc.RangeQuery) {
	cp := s.capture.Load()
	if cp == nil {
		return
	}
	qs := make([]workload.Query, len(queries))
	for i, q := range queries {
		qs[i] = workload.Query{Lo: q.Lo, Hi: q.Hi}
	}
	cp.Batch(qs)
}

// handleWorkload serves the workload capture's progress counters when
// one is attached (`ddcserver -workload-capture`); the capture's
// profile is computed offline, by ddcbench -replay.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	capture := map[string]interface{}{"attached": false}
	if cp := s.capture.Load(); cp != nil {
		capture["attached"] = true
		capture["stats"] = cp.Stats()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"capture": capture})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once construction (recovery
// included — store.Open replays before the server exists) is complete
// and the persistence layer is healthy; 503 with the reason otherwise.
// A poisoned WAL (a failed write or fsync) makes the server permanently
// unready: acknowledged state is no longer guaranteed durable, so load
// balancers should drain it while it still answers reads.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "starting", "reason": "recovery in progress",
		})
		return
	}
	if hc, ok := s.persist.(healthChecker); ok && s.persist != nil {
		if err := hc.Healthy(); err != nil {
			s.log.Error("readiness check failed", "error", err.Error())
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "unready", "reason": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleExplain is the query-plan window into the index. GET explains a
// prefix query at a point (the per-box contribution decomposition of
// the paper's Figure 11). POST explains a batch of range sums under
// forced span tracing: the structured plan (corner-term expansion,
// dedup savings, cache hits), the per-level outer-tree visit profile
// checked against the Theorem 1 budget of one visit per level per
// descent, and the full span tree with per-stage timings.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleExplainBatch(w, r)
		return
	}
	p, err := cubecli.ParsePoint(r.URL.Query().Get("point"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "point: %v", err)
		return
	}
	s.mu.RLock()
	sum, parts := s.read.ExplainPrefix(p)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"prefix":        sum,
		"contributions": parts,
	})
}

// handleExplainBatch runs POST /v1/explain: the request's batch under
// forced tracing. Tracing is forced — with telemetry disabled (no
// middleware trace) the handler builds its own span context, so EXPLAIN
// always answers with a span tree.
func (s *Server) handleExplainBatch(w http.ResponseWriter, r *http.Request) {
	x := getScratch()
	defer putScratch(x)
	queries, ok := s.decodeQueries(w, r, x)
	if !ok {
		return
	}
	sc, parent := requestSpan(w)
	if sc == nil {
		sc = obs.GetSpanContext()
		defer obs.PutSpanContext(sc)
		parent = obs.NoSpan
	}
	root := sc.Start("explain", parent)
	sums := make([]int64, len(queries))
	s.mu.RLock()
	stats, levels, err := s.read.RangeSumBatchTrace(queries, sums, sc, root)
	if err == nil {
		s.captureBatch(queries)
	}
	treeLevels := s.c.TreeLevels()
	s.mu.RUnlock()
	sc.End(root)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Theorem 1 budget: each cache-missing corner descends at most one
	// outer-tree node per level, so the whole batch's per-level profile
	// is bounded by one visit per level per descent.
	var visits uint64
	within := len(levels) <= treeLevels
	for _, n := range levels {
		visits += n
		if n > uint64(stats.CacheMisses) {
			within = false
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"trace_id": sc.TraceID(),
		"sums":     sums,
		"plan": map[string]interface{}{
			"queries":          stats.Queries,
			"corner_terms":     stats.CornerTerms,
			"skipped_corners":  stats.SkippedCorners,
			"distinct_corners": stats.DistinctCorners,
			"dedup_saved":      stats.CornerTerms - stats.DistinctCorners,
			"cache_hits":       stats.CacheHits,
			"cache_misses":     stats.CacheMisses,
		},
		"levels": levels,
		"budget": map[string]interface{}{
			"tree_levels":   treeLevels,
			"descents":      stats.CacheMisses,
			"max_visits":    uint64(treeLevels) * uint64(stats.CacheMisses),
			"outer_visits":  visits,
			"within_budget": within,
		},
		"spans": sc.Tree(),
	})
}

// scanLimit caps /v1/scan responses.
const scanLimit = 10000

type scanCell struct {
	Point []int `json:"point"`
	Value int64 `json:"value"`
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	lo, hi, err := cubecli.ParseRange(r.URL.Query().Get("range"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "range: %v", err)
		return
	}
	limit := scanLimit
	if ls := r.URL.Query().Get("limit"); ls != "" {
		if _, err := fmt.Sscanf(ls, "%d", &limit); err != nil || limit < 1 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", ls)
			return
		}
		if limit > scanLimit {
			limit = scanLimit
		}
	}
	if err := s.drainFront(); err != nil {
		writeErr(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	s.mu.RLock()
	cells := make([]scanCell, 0, 64)
	truncated := false
	err = s.c.ForEachNonZeroInRange(lo, hi, func(p []int, v int64) {
		if len(cells) >= limit {
			truncated = true
			return
		}
		cells = append(cells, scanCell{Point: append([]int(nil), p...), Value: v})
	})
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"cells":     cells,
		"truncated": truncated,
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.drainFront(); err != nil {
		writeErr(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.c.Save(w); err != nil {
		// Headers are already out; nothing more we can do than log-style
		// truncation, which LoadDynamic will reject.
		return
	}
}
