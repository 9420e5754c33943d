package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"ddc"
	"ddc/internal/obs"
)

// The program must receive only generated inputs: the same seed gives
// the same stream byte for byte, another seed another stream.
func TestStreamIsSeeded(t *testing.T) {
	for name, b := range benches {
		a := generate(b.spec, 7, 5000).encode()
		if !bytes.Equal(a, generate(b.spec, 7, 5000).encode()) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if bytes.Equal(a, generate(b.spec, 8, 5000).encode()) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// The served seams must be transparent: with the timed persistence and
// handler in place, /readyz still reports ready and a mutation's WAL
// spans still land in the server's trace.
func TestServedSeamsTransparent(t *testing.T) {
	runDir = t.TempDir()
	sp := served.spec
	sp.side = 16
	st := generate(sp, 1, 1000)
	tr := newTracer(64)
	s, err := newServed(st, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	var ready struct{ Status string }
	if err := s.send("GET", s.base+"/readyz", nil, &ready); err != nil || ready.Status != "ready" {
		t.Fatalf("/readyz: %+v, %v", ready, err)
	}

	tel := ddc.GlobalTelemetry()
	tel.SetSlowQueryThreshold(time.Nanosecond) // retain every request's span tree
	defer tel.SetSlowQueryThreshold(0)
	tr.setOp(0)
	if _, err := s.add([]int{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	var walk func([]obs.SpanSnapshot)
	walk = func(ss []obs.SpanSnapshot) {
		for _, sp := range ss {
			found[sp.Name] = true
			walk(sp.Children)
		}
	}
	for _, q := range tel.Traces() {
		if q.Op == "http /v1/add" {
			walk(q.Spans)
		}
	}
	for _, name := range []string{"wal.append", "wal.flush"} {
		if !found[name] {
			t.Errorf("no %s span in the server's trace of /v1/add (found %v)", name, found)
		}
	}

	serve := tr.lastOf(spanServe)
	if serve < 0 {
		t.Fatal("handler seam recorded no span")
	}
	for _, name := range []uint8{spanPersistAdd, spanPersistFlush} {
		id := tr.lastOf(name)
		if id < 0 || tr.spans[id].parent != serve {
			t.Errorf("%s: span %d, want a child of the handler span %d", spanNames[name], id, serve)
		}
	}
}

// encode serialises the stream's inputs, for the self-test that the
// same seed reproduces it byte for byte.
func (st *stream) encode() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(st.initial)))
	for _, v := range st.initial {
		b = binary.AppendVarint(b, v)
	}
	for _, q := range st.pool {
		for _, x := range append(append([]int(nil), q.Lo...), q.Hi...) {
			b = binary.AppendVarint(b, int64(x))
		}
	}
	for _, qs := range st.dash {
		for _, q := range qs {
			for _, x := range append(append([]int(nil), q.Lo...), q.Hi...) {
				b = binary.AppendVarint(b, int64(x))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(st.ops)))
	for _, o := range st.ops {
		b = append(b, byte(o.kind), o.dash)
		for _, x := range [...]int32{o.lo[0], o.lo[1], o.hi[0], o.hi[1], o.delta} {
			b = binary.AppendVarint(b, int64(x))
		}
	}
	return b
}
