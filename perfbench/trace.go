package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made: trace is the op index (one
// trace per op), parent the index of the enclosing span or -1.
type span struct {
	start, end int64 // ns since the tracer's base
	trace      int32
	parent     int32
	name       uint8
}

// Span names, indexed by span.name. "call" is the benchmark's one public
// call per op, the root of the op's trace; for served it is the client's
// HTTP round trip.
const (
	spanCall uint8 = iota
	spanServe
	spanPersistAdd
	spanPersistRangeAdd
	spanPersistFlush
	numSpanNames
)

var spanNames = [numSpanNames]string{"call", "handler.ServeHTTP",
	"persistence.Add", "persistence.RangeAdd", "persistence.Flush"}

// tracer records spans into a buffer preallocated for the whole run, so
// recording is an index bump and two clock reads. The server goroutine
// records spans while the client waits for it, so the counters are
// atomic; each slot has one writer.
type tracer struct {
	base  time.Time
	spans []span
	n     atomic.Int32
	drops atomic.Int64
	// op is the op being executed: every span belongs to its trace.
	op atomic.Int32
	// last[name] is the most recently started span of that name, which
	// a seam on the server side takes as its parent.
	last [numSpanNames]atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, capacity)}
	for i := range t.last {
		t.last[i].Store(-1)
	}
	return t
}

// setOp starts the trace of op i.
func (t *tracer) setOp(i int) { t.op.Store(int32(i)) }

// start opens a span under parent and returns its index, or -1 when
// the buffer is full (the drop is counted).
func (t *tracer) start(name uint8, parent int32) int32 {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.drops.Add(1)
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.base)), trace: t.op.Load(), parent: parent, name: name, end: -1}
	t.last[name].Store(i)
	return i
}

// lastOf returns the most recent span named name, or -1.
func (t *tracer) lastOf(name uint8) int32 { return t.last[name].Load() }

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.base))
	}
}

func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// write dumps the spans as gzipped tab-separated lines: trace, id,
// parent, name, start_ns, duration_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tduration_ns")
	var line []byte
	for i, s := range t.recorded() {
		line = strconv.AppendInt(line[:0], int64(s.trace), 10)
		for _, v := range [...]int64{int64(i), int64(s.parent)} {
			line = strconv.AppendInt(append(line, '\t'), v, 10)
		}
		line = append(append(append(line, '\t'), spanNames[s.name]...), '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = strconv.AppendInt(append(line, '\t'), s.end-s.start, 10)
		w.Write(append(line, '\n'))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp sums, for each op, the durations of its spans named name, in
// ns; ops without such a span read -1.
func perOp(spans []span, nops int, name uint8) []int64 {
	out := make([]int64, nops)
	for i := range out {
		out[i] = -1
	}
	for _, s := range spans {
		if s.name == name && s.end >= 0 {
			if out[s.trace] < 0 {
				out[s.trace] = 0
			}
			out[s.trace] += s.end - s.start
		}
	}
	return out
}
