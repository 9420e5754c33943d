package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"ddc"
	"ddc/internal/cubeserver"
	"ddc/internal/obs"
	"ddc/internal/store"
)

// served: cubeserver over a store, answering loopback HTTP in the same
// process over one keep-alive connection. The store is non-buffered
// (the ddcserver default), NoSync (a sandbox fsync is not a device's),
// and checkpoints every 4096 records, so a run passes several
// record-triggered checkpoints at the same op indices. HTTP, JSON, the
// handler with its telemetry spans, WAL append and flush, and
// checkpoints dominate; core and psum are a small share.
var served = &bench{
	spec: spec{
		name: "served", side: 256, rate: 11000,
		// 60% sums, 10% batches, 5% range adds, 25% point adds.
		mix: mix{read: 614, batch: 102, rangeAdd: 51},
	},
	setupReps:    2,
	writesAnswer: true,
	spansPerOp:   4,
	setup: func(st *stream, tr *tracer) (sut, error) {
		return newServed(st, tr, false)
	},
	rungs:  servedRungs,
	layers: servedLayers,
}

const checkpointRecords = 4096

// servedSUT is a cubeserver over a store, driven as an HTTP client.
// With a recorder transport the handler is called in process on an
// httptest.ResponseRecorder instead of over loopback.
type servedSUT struct {
	dir  string
	st   *store.Store
	ts   *httptest.Server // nil with the recorder transport
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	h    http.Handler
	base string
	dash [][]byte // request bodies of the stream's dashboards
	buf  []byte
	// ckpt0 is the store's checkpoint count once set-up finished.
	ckpt0 uint64
	tr    *tracer           // nil untraced
	tp    *timedPersistence // nil untraced
	// batch sums the planner statistics of every batch response.
	batchTotals batchStats
	// allocs samples handler allocations (recorder transport only).
	allocs, allocReqs uint64
	sampleAllocs      bool
	reqs              uint64
}

type batchStats struct {
	CornerTerms     int `json:"corner_terms"`
	DistinctCorners int `json:"distinct_corners"`
	CacheHits       int `json:"cache_hits"`
}

// runDir is where served keeps its store directories, inside the
// benchmark's build directory.
var runDir = filepath.Join(".bench_build", "run")

// newServed opens a fresh store, preloads the initial cube through it
// and serves it. With tr non-nil the persistence and handler seams
// record spans.
func newServed(st *stream, tr *tracer, recorder bool) (*servedSUT, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runDir, "served-")
	if err != nil {
		return nil, err
	}
	s := &servedSUT{dir: dir, tr: tr}
	s.st, err = store.Open(dir, store.Options{Dims: st.dimsSlice(), NoSync: true, CheckpointRecords: checkpointRecords})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	side := st.spec.side
	for i, v := range st.initial {
		if v == 0 {
			continue
		}
		if err := s.st.Add([]int{i / side, i % side}, v); err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := s.st.Flush(); err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	s.ckpt0 = s.st.Stats().Checkpoints
	var p cubeserver.Persistence = s.st
	if tr != nil {
		s.tp = newTimedPersistence(s.st, tr)
		p = s.tp
	}
	var h http.Handler = cubeserver.NewWithPersistence(s.st.Cube(), p, cubeserver.Options{})
	if tr != nil {
		h = timedHandler{h, tr}
	}
	for _, qs := range st.dash {
		type box struct {
			Lo []int `json:"lo"`
			Hi []int `json:"hi"`
		}
		req := struct {
			Queries []box `json:"queries"`
		}{}
		for _, q := range qs {
			req.Queries = append(req.Queries, box{q.Lo, q.Hi})
		}
		body, err := json.Marshal(req)
		if err != nil {
			s.close()
			return nil, err
		}
		s.dash = append(s.dash, body)
	}
	if recorder {
		s.h, s.base = h, "http://recorder"
		return s, nil
	}
	s.ts = httptest.NewServer(h)
	s.base = s.ts.URL
	// One keep-alive connection, written and read by the calling
	// goroutine itself: the client adds no goroutine hand-offs of its own.
	if s.conn, err = net.Dial("tcp", s.ts.Listener.Addr().String()); err != nil {
		s.close()
		return nil, err
	}
	s.br, s.bw = bufio.NewReader(s.conn), bufio.NewWriter(s.conn)
	return s, nil
}

// send issues one request and decodes a 2xx JSON response into v; any
// other status is an error.
func (s *servedSUT) send(method, url string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	var status int
	var data []byte
	if s.h != nil {
		rec := httptest.NewRecorder()
		s.reqs++
		sample := s.sampleAllocs && s.reqs%64 == 0
		var m0, m1 runtime.MemStats
		if sample {
			runtime.ReadMemStats(&m0)
		}
		s.h.ServeHTTP(rec, req)
		if sample {
			runtime.ReadMemStats(&m1)
			s.allocs += m1.Mallocs - m0.Mallocs
			s.allocReqs++
		}
		status, data = rec.Code, rec.Body.Bytes()
	} else {
		if err := req.Write(s.bw); err != nil {
			return err
		}
		if err := s.bw.Flush(); err != nil {
			return err
		}
		resp, err := http.ReadResponse(s.br, req)
		if err != nil {
			return err
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		status = resp.StatusCode
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, status, data)
	}
	return json.Unmarshal(data, v)
}

func (s *servedSUT) appendPoint(b []byte, p []int) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(p[0]), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p[1]), 10)
	return append(b, ']')
}

func (s *servedSUT) read(lo, hi []int) (int64, error) {
	b := append(s.buf[:0], s.base...)
	b = append(b, "/v1/sum?range="...)
	b = strconv.AppendInt(b, int64(lo[0]), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(lo[1]), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(hi[0]), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(hi[1]), 10)
	s.buf = b
	var resp struct {
		Sum *int64 `json:"sum"`
	}
	if err := s.send(http.MethodGet, string(b), nil, &resp); err != nil {
		return 0, err
	}
	if resp.Sum == nil {
		return 0, fmt.Errorf("sum response without sum")
	}
	return *resp.Sum, nil
}

func (s *servedSUT) batch(dash int, out []int64) error {
	var resp struct {
		Sums  []int64    `json:"sums"`
		Batch batchStats `json:"batch"`
	}
	if err := s.send(http.MethodPost, s.base+"/v1/sum/batch", s.dash[dash], &resp); err != nil {
		return err
	}
	if len(resp.Sums) != len(out) {
		return fmt.Errorf("batch response has %d sums for %d queries", len(resp.Sums), len(out))
	}
	copy(out, resp.Sums)
	s.batchTotals.CornerTerms += resp.Batch.CornerTerms
	s.batchTotals.DistinctCorners += resp.Batch.DistinctCorners
	s.batchTotals.CacheHits += resp.Batch.CacheHits
	return nil
}

func (s *servedSUT) add(p []int, delta int64) (int64, error) {
	b := append(s.buf[:0], `{"point":`...)
	b = s.appendPoint(b, p)
	b = append(b, `,"delta":`...)
	b = append(strconv.AppendInt(b, delta, 10), '}')
	s.buf = b
	var resp struct {
		Value *int64 `json:"value"`
	}
	if err := s.send(http.MethodPost, s.base+"/v1/add", b, &resp); err != nil {
		return 0, err
	}
	if resp.Value == nil {
		return 0, fmt.Errorf("add response without value")
	}
	return *resp.Value, nil
}

func (s *servedSUT) rangeAdd(lo, hi []int, delta int64) (int64, error) {
	b := append(s.buf[:0], `{"lo":`...)
	b = s.appendPoint(b, lo)
	b = append(b, `,"hi":`...)
	b = s.appendPoint(b, hi)
	b = append(b, `,"delta":`...)
	b = append(strconv.AppendInt(b, delta, 10), '}')
	s.buf = b
	var resp struct {
		Sum *int64 `json:"sum"`
	}
	if err := s.send(http.MethodPost, s.base+"/v1/add/range", b, &resp); err != nil {
		return 0, err
	}
	if resp.Sum == nil {
		return 0, fmt.Errorf("range add response without sum")
	}
	return *resp.Sum, nil
}

func (s *servedSUT) finish() error {
	if err := s.st.Healthy(); err != nil {
		return fmt.Errorf("store unhealthy: %w", err)
	}
	return checkPending(s.st.Cube().PendingBoxes())
}

func (s *servedSUT) close() error {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	var err error
	if s.st != nil {
		err = s.st.Close()
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// timedHandler is the http.Handler seam: each request is a span under
// the client's open call span.
type timedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := t.tr.start(spanServe, t.tr.lastOf(spanCall))
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
}

// timedPersistence is the store behind a span seam: every mutation and
// flush is a span under the request's ServeHTTP span. It forwards the
// optional Healthy and TraceSpans surfaces cubeserver type-asserts, so
// readiness and WAL spans behave as they do without it. It also sums the
// log bytes each flushed record adds.
type timedPersistence struct {
	s  *store.Store
	tr *tracer
	// last is the store position after the previous flush.
	last           store.Stats
	bytes, records uint64
}

func newTimedPersistence(s *store.Store, tr *tracer) *timedPersistence {
	return &timedPersistence{s: s, tr: tr, last: s.Stats()}
}

func (p *timedPersistence) Add(pt []int, delta int64) error {
	id := p.tr.start(spanPersistAdd, p.tr.lastOf(spanServe))
	err := p.s.Add(pt, delta)
	p.tr.end(id)
	return err
}

func (p *timedPersistence) RangeAdd(lo, hi []int, delta int64) error {
	id := p.tr.start(spanPersistRangeAdd, p.tr.lastOf(spanServe))
	err := p.s.RangeAdd(lo, hi, delta)
	p.tr.end(id)
	return err
}

func (p *timedPersistence) Set(pt []int, value int64) error { return p.s.Set(pt, value) }

func (p *timedPersistence) Flush() error {
	id := p.tr.start(spanPersistFlush, p.tr.lastOf(spanServe))
	err := p.s.Flush()
	p.tr.end(id)
	// A flush that rotated the segment is left out of the byte count.
	st := p.s.Stats()
	if st.Segment == p.last.Segment {
		p.bytes += st.Bytes - p.last.Bytes
		p.records += st.Records - p.last.Records
	}
	p.last = st
	return err
}

func (p *timedPersistence) Checkpoint() error { return p.s.Checkpoint() }
func (p *timedPersistence) Healthy() error    { return p.s.Healthy() }

func (p *timedPersistence) TraceSpans(sc *obs.SpanContext, parent obs.SpanID) {
	p.s.TraceSpans(sc, parent)
}

// servedCube is the cube rung of the served ladder: the calls the
// handler makes, on a bare DynamicCube, with the same answers.
type servedCube struct {
	c    *ddc.DynamicCube
	dash [][]ddc.RangeQuery
}

func (t servedCube) read(lo, hi []int) (int64, error) { return t.c.RangeSum(lo, hi) }

func (t servedCube) batch(dash int, out []int64) error {
	v, _, err := t.c.RangeSumBatchStats(t.dash[dash])
	copy(out, v)
	return err
}

func (t servedCube) add(p []int, delta int64) (int64, error) {
	if err := t.c.Add(p, delta); err != nil {
		return 0, err
	}
	return t.c.Get(p), nil
}

func (t servedCube) rangeAdd(lo, hi []int, delta int64) (int64, error) {
	if err := t.c.RangeAdd(lo, hi, delta); err != nil {
		return 0, err
	}
	return t.c.RangeSum(lo, hi)
}

func (t servedCube) finish() error { return checkPending(t.c.PendingBoxes()) }
func (t servedCube) close() error  { return nil }

// servedRungs are the bare DynamicCube, which runs with the telemetry
// the server switched on for the whole process as the handler's cube
// does, and the handler called in process on a ResponseRecorder with
// its persistence and handler seams timed.
func servedRungs(st *stream) []*rung {
	rt := newTracer(len(st.ops) * 4)
	return []*rung{
		{name: "cube", build: func() (sut, error) {
			c, err := ddc.BuildDynamic(st.dimsSlice(), st.initial, ddc.Options{})
			if err != nil {
				return nil, err
			}
			return servedCube{c, st.dash}, nil
		}},
		{name: "recorder",
			build: func() (sut, error) {
				s, err := newServed(st, rt, true)
				if s != nil {
					s.sampleAllocs = true
				}
				return s, err
			},
			before: func(i int, _ *op) { rt.setOp(i) },
		},
	}
}

// servedLayers takes the HTTP tax from the traced rung's spans and the
// handler and store figures from the recorder rung's.
func servedLayers(st *stream, rs map[string]*rung, m metrics) error {
	measured := func(kinds ...opKind) func(i int) bool {
		return func(i int) bool {
			if i < st.warmup {
				return false
			}
			for _, k := range kinds {
				if st.ops[i].kind == k {
					return true
				}
			}
			return false
		}
	}
	all := measured(opRead, opBatch, opAdd, opRangeAdd)
	reads, batches, writes := measured(opRead), measured(opBatch), measured(opAdd, opRangeAdd)
	n := len(st.ops)

	spans := rs["traced"].sys.(*servedSUT).tr.recorded()
	m.set("http.tax_us", medianDiff(perOp(spans, n, spanCall), perOp(spans, n, spanServe), all), "us")

	s := rs["recorder"].sys.(*servedSUT)
	spans = s.tr.recorded()
	serve := perOp(spans, n, spanServe)
	persist := make([]int64, n)
	for _, name := range []uint8{spanPersistAdd, spanPersistRangeAdd, spanPersistFlush} {
		for i, d := range perOp(spans, n, name) {
			if d > 0 {
				persist[i] += d
			}
		}
	}
	cube := rs["cube"].run
	m.set("handler.sum_tax_us", medianDiff(serve, nil, reads)-cube.stats(opRead).p50, "us")
	m.set("handler.batch_tax_us", medianDiff(serve, nil, batches)-cube.stats(opBatch).p50, "us")
	m.set("handler.add_tax_us", medianDiff(serve, persist, writes), "us")
	m.set("handler.allocs_per_req", float64(s.allocs)/float64(s.allocReqs), "count")
	m.set("store.add_us", median(durations(spans, spanPersistAdd, all)), "us")
	m.set("store.rangeadd_us", median(durations(spans, spanPersistRangeAdd, all)), "us")
	m.set("store.flush_us", median(durations(spans, spanPersistFlush, all)), "us")
	var maxW int64
	for i, d := range persist {
		if writes(i) && d > maxW {
			maxW = d
		}
	}
	m.set("store.add_max_us", float64(maxW)/1e3, "us")
	m.set("store.bytes_per_write", float64(s.tp.bytes)/float64(s.tp.records), "B")
	m.set("store.checkpoints", float64(s.st.Stats().Checkpoints-s.ckpt0), "count")
	m.set("core.pending_boxes", float64(s.st.Cube().PendingBoxes()), "count")
	m.set("core.batch_dedup_ratio", float64(s.batchTotals.DistinctCorners)/float64(s.batchTotals.CornerTerms), "ratio")
	m.set("core.batch_cache_hit_ratio", float64(s.batchTotals.CacheHits)/float64(s.batchTotals.DistinctCorners), "ratio")
	return nil
}

// medianDiff is the median over ops i with keep(i) of a[i] - b[i], in
// µs; a nil b reads as zeros, and ops missing a figure are skipped.
func medianDiff(a, b []int64, keep func(int) bool) float64 {
	var v []float64
	for i := range a {
		if !keep(i) || a[i] < 0 || (b != nil && b[i] < 0) {
			continue
		}
		d := a[i]
		if b != nil {
			d -= b[i]
		}
		v = append(v, float64(d)/1e3)
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// durations returns the durations in µs of the spans named name whose
// op satisfies keep.
func durations(spans []span, name uint8, keep func(int) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.end >= 0 && keep(int(s.trace)) {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	if len(out) == 0 {
		return []float64{0}
	}
	return out
}
