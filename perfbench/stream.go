package main

import (
	"fmt"

	"ddc"
	"ddc/internal/workload"
)

// Every workload is two-dimensional; ops store their coordinates as
// int32 so a multi-million-op stream stays a few bytes per op.
const dims = 2

// opKind is an op's class. Latencies are reported per class.
type opKind uint8

const (
	opRead     opKind = iota // RangeSum over [lo, hi]
	opBatch                  // RangeSumBatch of one dashboard's windows
	opAdd                    // point Add of delta at lo
	opRangeAdd               // RangeAdd of delta over pool box [lo, hi]
	numKinds
)

// op is one generated operation. For opBatch, dash indexes the stream's
// dashboards; ans is the op's first slot in the answer array.
type op struct {
	lo, hi [dims]int32
	delta  int32
	kind   opKind
	dash   uint8
	ans    int32
}

func (o *op) loInts(buf []int) []int {
	buf[0], buf[1] = int(o.lo[0]), int(o.lo[1])
	return buf
}

func (o *op) hiInts(buf []int) []int {
	buf[0], buf[1] = int(o.hi[0]), int(o.hi[1])
	return buf
}

// mix is an op-class distribution in 1/1024ths; adds take the rest.
type mix struct {
	read, batch, rangeAdd int
}

// spec fixes everything about a workload except its seed and length.
// Every workload starts from a dense cube of values uniform in
// [1, maxValue], reads boxes whose sides are uniform in [1, side/2],
// and makes point adds of deltas in [1, maxValue].
type spec struct {
	name string
	side int     // the cube is side x side
	rate int     // stream ops per second of --seconds (nominal)
	mix  mix     // op-class shares
	zipf float64 // > 0: point adds are Zipf-skewed with this exponent
}

const maxValue = 100

// Pool and dashboard shapes, shared by every workload.
const (
	boxPool        = 64 // distinct RangeAdd boxes; bounds core's pending list
	boxPoolFrac    = 1.0 / 16
	dashboards     = 8
	windowsPerDash = 16
	warmupShare    = 20 // 1/20 of the stream warms caches, unreported
)

// stream is a workload's generated input: the initial cube, the op
// sequence, and the shared RangeAdd pool and dashboards.
type stream struct {
	spec    spec
	seed    uint64
	initial []int64 // row-major side x side
	pool    []workload.Query
	dash    [][]ddc.RangeQuery
	ops     []op
	answers int // answer slots the ops need
	warmup  int // ops[:warmup] are the unreported warm-up
}

func (st *stream) dimsSlice() []int { return []int{st.spec.side, st.spec.side} }

// answerSlots is how many answers an op of kind k records: batches one
// per window, everything else one (library writes leave theirs zero).
func answerSlots(k opKind) int {
	if k == opBatch {
		return windowsPerDash
	}
	return 1
}

// generate builds the stream for sp from seed: nops ops, of which the
// first nops/warmupShare are warm-up. All randomness comes from one
// internal/workload generator, so the same seed gives the same stream.
func generate(sp spec, seed uint64, nops int) *stream {
	r := workload.NewRNG(seed)
	d := []int{sp.side, sp.side}
	st := &stream{spec: sp, seed: seed, warmup: nops / warmupShare}
	st.initial = make([]int64, sp.side*sp.side)
	for i := range st.initial {
		st.initial[i] = 1 + r.Int63n(maxValue)
	}
	st.pool = workload.Ranges(r, d, boxPool, boxPoolFrac)
	width := sp.side / 8
	for i := 0; i < dashboards; i++ {
		q := workload.Ranges(r, d, 1, 0.5)[0]
		ws := workload.Windows(d, windowsPerDash, 1, width, width/2, []int{q.Lo[0]}, []int{q.Hi[0]})
		rq := make([]ddc.RangeQuery, len(ws))
		for j, w := range ws {
			rq[j] = ddc.RangeQuery{Lo: w.Lo, Hi: w.Hi}
		}
		st.dash = append(st.dash, rq)
	}
	st.ops = make([]op, nops)
	for i := range st.ops {
		o := &st.ops[i]
		c := r.Intn(1024)
		switch {
		case c < sp.mix.read:
			o.kind = opRead
			q := workload.Ranges(r, d, 1, 0.5)[0]
			o.lo = [dims]int32{int32(q.Lo[0]), int32(q.Lo[1])}
			o.hi = [dims]int32{int32(q.Hi[0]), int32(q.Hi[1])}
		case c < sp.mix.read+sp.mix.batch:
			o.kind = opBatch
			o.dash = uint8(r.Intn(dashboards))
		case c < sp.mix.read+sp.mix.batch+sp.mix.rangeAdd:
			o.kind = opRangeAdd
			q := st.pool[r.Intn(boxPool)]
			o.lo = [dims]int32{int32(q.Lo[0]), int32(q.Lo[1])}
			o.hi = [dims]int32{int32(q.Hi[0]), int32(q.Hi[1])}
			// Signed, so merged pool boxes sometimes cancel out.
			o.delta = int32(r.Intn(201)) - 100
			if o.delta == 0 {
				o.delta = 1
			}
		default:
			o.kind = opAdd
			var u workload.Update
			if sp.zipf > 0 {
				u = workload.Skewed(r, d, 1, sp.zipf, maxValue)[0]
			} else {
				u = workload.Uniform(r, d, 1, maxValue)[0]
			}
			o.lo = [dims]int32{int32(u.Point[0]), int32(u.Point[1])}
			o.hi = o.lo
			o.delta = int32(u.Value)
		}
		o.ans = int32(st.answers)
		st.answers += answerSlots(o.kind)
	}
	return st
}

// counts returns the number of ops of each kind in ops.
func counts(ops []op) (n [numKinds]int) {
	for i := range ops {
		n[ops[i].kind]++
	}
	return n
}

func (st *stream) String() string {
	n := counts(st.ops)
	return fmt.Sprintf("ops=%d warmup=%d read=%d batch=%d add=%d rangeadd=%d",
		len(st.ops), st.warmup, n[opRead], n[opBatch], n[opAdd], n[opRangeAdd])
}
