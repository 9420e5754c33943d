package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// target executes stream ops against one layer of the system. Library
// targets return 0 from add and rangeAdd; served returns the value the
// response body carries (the cell after an add, the box sum after a
// range add).
type target interface {
	read(lo, hi []int) (int64, error)
	batch(dash int, out []int64) error
	add(p []int, delta int64) (int64, error)
	rangeAdd(lo, hi []int, delta int64) (int64, error)
}

// run is the record of one pass over a stream: per-op latency, answers
// and failures.
type run struct {
	st      *stream
	lat     []uint32 // ns per op
	answers []int64
	failed  []bool
	// elapsed is the wall time of the measured (post-warm-up) ops.
	elapsed time.Duration
	// gcCycles and allocBytes cover the measured ops.
	gcCycles   uint32
	allocBytes uint64
	// before, when set, runs before each op, outside timing.
	before func(i int, o *op)
}

func newRun(st *stream) *run {
	return &run{
		st:      st,
		lat:     make([]uint32, len(st.ops)),
		answers: make([]int64, st.answers),
		failed:  make([]bool, len(st.ops)),
	}
}

// interleave runs the stream on every target, each with its own run:
// first every warm-up, then the measured ops in chunks, taking the
// targets in turn for each chunk, so drift in the machine's speed
// falls on all of them alike. Each target sees its ops in order, one
// at a time (a closed loop with one client).
func interleave(rs []*run, tgs []target, chunks int) {
	st := rs[0].st
	for i, r := range rs {
		for j := 0; j < st.warmup; j++ {
			r.do(tgs[i], j)
		}
	}
	n := len(st.ops) - st.warmup
	for c := 0; c < chunks; c++ {
		lo, hi := st.warmup+n*c/chunks, st.warmup+n*(c+1)/chunks
		for i, r := range rs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for j := lo; j < hi; j++ {
				r.do(tgs[i], j)
			}
			r.elapsed += time.Since(start)
			runtime.ReadMemStats(&m1)
			r.gcCycles += m1.NumGC - m0.NumGC
			r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
	}
}

func (r *run) do(tg target, i int) {
	var lo, hi [dims]int
	o := &r.st.ops[i]
	if r.before != nil {
		r.before(i, o)
	}
	var err error
	var v int64
	t0 := time.Now()
	switch o.kind {
	case opRead:
		v, err = tg.read(o.loInts(lo[:]), o.hiInts(hi[:]))
	case opBatch:
		err = tg.batch(int(o.dash), r.answers[o.ans:o.ans+windowsPerDash])
	case opAdd:
		v, err = tg.add(o.loInts(lo[:]), int64(o.delta))
	case opRangeAdd:
		v, err = tg.rangeAdd(o.loInts(lo[:]), o.hiInts(hi[:]), int64(o.delta))
	}
	dt := time.Since(t0)
	if o.kind != opBatch {
		r.answers[o.ans] = v
	}
	r.lat[i] = uint32(min(dt.Nanoseconds(), math.MaxUint32))
	if err != nil {
		r.failed[i] = true
	}
}

// classStats are one op class's latency figures in µs.
type classStats struct {
	p50, p99, mean float64
}

// stats summarises the latencies of the measured ops whose kind is in
// kinds.
func (r *run) stats(kinds ...opKind) classStats {
	var want [numKinds]bool
	for _, k := range kinds {
		want[k] = true
	}
	var ns []float64
	for i := r.st.warmup; i < len(r.st.ops); i++ {
		if want[r.st.ops[i].kind] {
			ns = append(ns, float64(r.lat[i]))
		}
	}
	if len(ns) == 0 {
		return classStats{}
	}
	sort.Float64s(ns)
	var sum float64
	for _, v := range ns {
		sum += v
	}
	return classStats{
		p50:  quantile(ns, 0.50) / 1e3,
		p99:  quantile(ns, 0.99) / 1e3,
		mean: sum / float64(len(ns)) / 1e3,
	}
}

// quantile reads the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// opsPerSec is measured ops over their elapsed time.
func (r *run) opsPerSec() float64 {
	return float64(len(r.st.ops)-r.st.warmup) / r.elapsed.Seconds()
}

func (r *run) failures() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}
