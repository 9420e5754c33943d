// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one named workload as a seeded, fixed-length op
// stream with one client, checks every answer against an independent
// comparator (ddc.NewFenwick), and prints its metrics, last of all as
// one JSON line:
//
//	perfbench --workload olap-read --seed 1 --seconds 2 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of one pass. With
// --trace 1 it replays the same stream on the full system untraced,
// on the full system traced, and on each rung of the layer ladder,
// interleaved chunk by chunk, and prints the per-layer metrics. The
// stream length is --seconds times the workload's nominal op rate, so
// a pass is a fixed op count, never a wall-clock interval. run.py
// builds it and runs the repetitions the reported figures are medians
// of.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ddc"
)

// sut is a system under test built over a stream's initial cube.
type sut interface {
	target
	// finish runs after the stream, outside timing: it settles
	// background work and checks end-of-run invariants.
	finish() error
	close() error
}

// bench is one named workload.
type bench struct {
	spec      spec
	setupReps int
	// writesAnswer: write responses carry values the check compares.
	writesAnswer bool
	// setup builds the system over st's initial cube; with tr non-nil
	// its seams record spans too.
	setup func(st *stream, tr *tracer) (sut, error)
	// rungs returns the ladder rungs below the full system, which the
	// traced run replays beside it.
	rungs func(st *stream) []*rung
	// layers adds the per-layer metrics once every rung has run and
	// finished, before any is closed. rs is keyed by rung name; "e2e"
	// and "traced" are the full system untraced and traced.
	layers func(st *stream, rs map[string]*rung, m metrics) error
	// spansPerOp sizes the traced rung's span buffer.
	spansPerOp int
}

// rung is one system the traced run replays the stream on.
type rung struct {
	name  string
	build func() (sut, error)
	// before, when set, runs before each op, outside timing.
	before func(i int, o *op)
	sys    sut
	run    *run
}

var benches = map[string]*bench{
	"olap-read": olapRead,
	"ingest":    ingest,
	"served":    served,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: olap-read, ingest or served")
	seed := flag.Uint64("seed", 1, "stream seed")
	seconds := flag.Float64("seconds", 2, "stream length, in seconds of the workload's nominal op rate")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	b, ok := benches[*name]
	nops := 0
	if ok {
		nops = int(*seconds * float64(b.spec.rate))
	}
	if nops < 1000 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds long enough for 1000 ops, --trace 0|1\n", names())
		os.Exit(2)
	}
	st := generate(b.spec, *seed, nops)
	fmt.Printf("# workload=%s seed=%d %s gomaxprocs=%d go=%s ddc=%s\n",
		*name, *seed, st, runtime.GOMAXPROCS(0), runtime.Version(), ddc.Version)
	m := metrics{}
	var runs []*run
	var err error
	if *traceFlag == 0 {
		runs, err = endToEnd(b, st, m)
	} else {
		runs, err = traced(b, st, m)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := result{Correct: true, Metrics: m}
	for _, r := range runs {
		res.Attempted += len(r.st.ops)
		res.Failed += r.failures()
	}
	res.Correct = res.Failed == 0
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func names() []string {
	var n []string
	for k := range benches {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd is the --trace 0 pass: set-up timed several times, then the
// stream once, untraced, then the answer check.
func endToEnd(b *bench, st *stream, m metrics) ([]*run, error) {
	r := newRun(st)
	heapBase := liveHeap()
	times := make([]float64, 0, b.setupReps)
	var s sut
	for i := 0; i < b.setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = b.setup(st, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	interleave([]*run{r}, []target{s}, 1)
	if err := s.finish(); err != nil {
		s.close()
		return nil, err
	}
	heapMB := (float64(liveHeap()) - float64(heapBase)) / 1e6
	if err := s.close(); err != nil {
		return nil, err
	}
	if err := check(st, r, b.writesAnswer); err != nil {
		return nil, err
	}
	reads, writes := r.stats(opRead), r.stats(opAdd, opRangeAdd)
	m.set("setup_s", median(times), "s")
	m.set("heap_mb", heapMB, "MB")
	m.set("ops_s", r.opsPerSec(), "1/s")
	m.set("read_p50_us", reads.p50, "us")
	m.set("read_p99_us", reads.p99, "us")
	m.set("read_mean_us", reads.mean, "us")
	m.set("batch_p50_us", r.stats(opBatch).p50, "us")
	m.set("write_p50_us", writes.p50, "us")
	m.set("write_p99_us", writes.p99, "us")
	return []*run{r}, nil
}

// traceChunks is how many slices the traced run interleaves its rungs
// in.
const traceChunks = 20

// traced is the --trace 1 run: the full system untraced ("e2e") and
// traced ("traced"), whose difference is the tracing overhead, and the
// workload's ladder rungs, all built up front and interleaved.
func traced(b *bench, st *stream, m metrics) ([]*run, error) {
	tr := newTracer(len(st.ops) * b.spansPerOp)
	rs := append([]*rung{
		{name: "e2e", build: func() (sut, error) { return b.setup(st, nil) }},
		{name: "traced", build: func() (sut, error) { return b.setup(st, tr) }},
	}, b.rungs(st)...)
	byName := map[string]*rung{}
	defer func() {
		for _, r := range rs {
			if r.sys != nil {
				r.sys.close()
			}
		}
	}()
	runs := make([]*run, len(rs))
	tgs := make([]target, len(rs))
	for i, r := range rs {
		var err error
		if r.sys, err = r.build(); err != nil {
			return nil, fmt.Errorf("%s rung: %w", r.name, err)
		}
		r.run = newRun(st)
		r.run.before = r.before
		runs[i], tgs[i] = r.run, r.sys
		byName[r.name] = r
	}
	traced := byName["traced"]
	traced.run.before = func(i int, _ *op) { tr.setOp(i) }
	tgs[1] = &tracedTarget{inner: traced.sys, tr: tr}
	runtime.GC()
	interleave(runs, tgs, traceChunks)
	for _, r := range rs {
		if err := r.sys.finish(); err != nil {
			return nil, fmt.Errorf("%s rung: %w", r.name, err)
		}
	}
	if err := b.layers(st, byName, m); err != nil {
		return nil, err
	}
	for _, r := range rs {
		err := r.sys.close()
		r.sys = nil
		if err != nil {
			return nil, fmt.Errorf("%s rung: %w", r.name, err)
		}
	}
	e2e := byName["e2e"].run
	if err := check(st, e2e, b.writesAnswer); err != nil {
		return nil, err
	}
	for _, r := range rs[1:] {
		sameAnswers(e2e, r.run, b.writesAnswer)
	}

	kops := float64(len(st.ops)-st.warmup) / 1e3
	m.set("gc.cycles_per_kop", float64(e2e.gcCycles)/kops, "count")
	m.set("alloc_bytes_per_op", float64(e2e.allocBytes)/(kops*1e3), "B")
	m.set("trace.read_p50_overhead_us", traced.run.stats(opRead).p50-e2e.stats(opRead).p50, "us")
	m.set("trace.ops_s_overhead_pct", 100*(e2e.opsPerSec()-traced.run.opsPerSec())/e2e.opsPerSec(), "%")
	m.set("trace.dropped_spans", float64(tr.drops.Load()), "count")
	if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv.gz", b.spec.name, st.seed))); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	// Layers off this workload's path report 0, so every traced run
	// prints the same names.
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
	return runs, nil
}

// perLayer lists every per-layer metric the traced run prints, with its
// unit.
var perLayer = []struct{ name, unit string }{
	{"psum.prefix_ns", "ns"},
	{"psum.visits_per_prefix", "count"},
	{"core.read_us", "us"},
	{"core.batch_us", "us"},
	{"core.add_us", "us"},
	{"core.visits_per_read", "count"},
	{"core.cells_per_read", "count"},
	{"core.cells_per_write", "count"},
	{"core.batch_dedup_ratio", "ratio"},
	{"core.batch_cache_hit_ratio", "ratio"},
	{"core.pending_boxes", "count"},
	{"cube.read_tax_us", "us"},
	{"buffered.read_tax_us", "us"},
	{"buffered.write_us", "us"},
	{"buffered.drains_per_kop", "count"},
	{"buffered.coalesce_ratio", "ratio"},
	{"buffered.points_per_drain", "count"},
	{"buffered.delta_depth_at_read", "count"},
	{"sync.read_tax_us", "us"},
	{"sharded.read_tax_us", "us"},
	{"store.add_us", "us"},
	{"store.rangeadd_us", "us"},
	{"store.flush_us", "us"},
	{"store.add_max_us", "us"},
	{"store.bytes_per_write", "B"},
	{"store.checkpoints", "count"},
	{"handler.sum_tax_us", "us"},
	{"handler.batch_tax_us", "us"},
	{"handler.add_tax_us", "us"},
	{"handler.allocs_per_req", "count"},
	{"http.tax_us", "us"},
	{"gc.cycles_per_kop", "count"},
	{"alloc_bytes_per_op", "B"},
	{"trace.read_p50_overhead_us", "us"},
	{"trace.ops_s_overhead_pct", "%"},
	{"trace.dropped_spans", "count"},
}
