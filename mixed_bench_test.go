package ddc_test

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddc"
	"ddc/internal/store"
	"ddc/internal/workload"
)

// The mixed-workload benchmarks measure sustained ingest under
// concurrent analytics, the scenario the buffered delta front exists
// for. Each cell runs mixedWriters writer goroutines (point adds, every
// 64th write a box update) against mixedReaders reader goroutines
// (range sums) for a fixed wall interval, in one of two modes over the
// same cube geometry:
//
//   - direct:   ddc.Synchronized, where every update takes the tree's
//     exclusive lock for an O(log^d n) descent
//   - buffered: ddc.Buffered, where updates land in the delta front
//     and the background merger drains them in batches
//
// The checkpoint cells run buffered writers against a durable store
// with and without a concurrent checkpoint streamer, pinning the freeze
// design's no-stall claim (write p99 ratio). Every cell checks its
// answer: once the writers stop and the front is closed, the cube's
// Total must equal the sum of acknowledged deltas (an Add counts 1, a
// box its volume).
//
// A cell's wall interval is fixed, so each benchmark iteration runs the
// whole cell and reports the last one's metrics, procs (the GOMAXPROCS
// it ran at) among them. -benchtime 1x runs each cell once at the
// default GOMAXPROCS. Sweep GOMAXPROCS with -cpu and -benchtime 2x: under
// 1x the testing package reuses its probe run, which for the first -cpu
// value runs before that value is applied.
//
//	go test -run - -bench 'Mixed(Checkpoint)?$' -benchtime 1x .
//	go test -run - -bench 'Mixed(Checkpoint)?$' -cpu 1,2,4 -benchtime 2x .
//	go test -run - -bench MixedGuard -benchtime 1x .

const (
	mixedWriters = 4
	mixedReaders = 2
	// mixedCell and mixedCkptCell are the wall intervals of the full
	// matrix; the guard runs the shorter guardCell and guardCkptCell.
	mixedCell     = 600 * time.Millisecond
	mixedCkptCell = 800 * time.Millisecond
	guardCell     = 250 * time.Millisecond
	guardCkptCell = 400 * time.Millisecond
)

// mixedTiers are the cube geometries of the matrix; the guard and the
// checkpoint cells run the first.
var mixedTiers = [][]int{{1024, 256}, {64, 64, 64}}

// The guard's bounds: the buffered front must sustain at least
// guardWriteSpeedup × the direct path's writes/s at no more than
// guardQueryP99Ratio × its query p99, and a concurrent checkpoint may
// inflate the buffered store's write p99 by at most guardStallRatio.
const (
	guardWriteSpeedup  = 2.0
	guardQueryP99Ratio = 1.25
	guardStallRatio    = 1.5
)

// mixedFront is the mutation+query surface a mixed cell drives.
type mixedFront interface {
	Add(p []int, delta int64) error
	RangeAdd(lo, hi []int, delta int64) error
	RangeSum(lo, hi []int) (int64, error)
}

// latencies collects per-op latencies with bounded memory: past cap,
// it subsamples 1-in-8 so percentiles stay representative.
type latencies struct {
	v    []int64
	skip int
	n    int
}

func newLatencies() *latencies { return &latencies{v: make([]int64, 0, 1<<18)} }

func (l *latencies) add(d int64) {
	if len(l.v) == cap(l.v) {
		l.skip = 8
	}
	if l.skip > 1 {
		l.n++
		if l.n%l.skip != 0 {
			return
		}
		if len(l.v) == cap(l.v) {
			// Halve the reservoir (keep every other sample) and double
			// the sampling stride.
			half := l.v[:0]
			for i := 0; i < len(l.v); i += 2 {
				half = append(half, l.v[i])
			}
			l.v = half
			l.skip *= 2
		}
	}
	l.v = append(l.v, d)
}

// percentile returns the q-quantile (0..1) of the collected samples.
func percentile(all []int64, q float64) int64 {
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	i := int(q * float64(len(all)-1))
	return all[i]
}

// mixedResult is one measured cell.
type mixedResult struct {
	wall               time.Duration
	writes, queries    uint64
	writeP50, writeP99 int64
	queryP50, queryP99 int64
	// delta is the buffered front's counters at the end of the cell
	// (nil for direct cells); checkpoints counts the checkpoint cell's
	// completed checkpoints.
	delta       *ddc.BufferedStats
	checkpoints uint64
	procs       int
}

func (r mixedResult) writesPerSec() float64 { return float64(r.writes) / r.wall.Seconds() }

// report attaches the cell's metrics to the benchmark line.
func (r mixedResult) report(b *testing.B) {
	b.ReportMetric(float64(r.procs), "procs")
	b.ReportMetric(r.writesPerSec(), "writes/s")
	b.ReportMetric(float64(r.writeP50), "write-p50-ns")
	b.ReportMetric(float64(r.writeP99), "write-p99-ns")
	if r.queries > 0 {
		b.ReportMetric(float64(r.queries)/r.wall.Seconds(), "queries/s")
		b.ReportMetric(float64(r.queryP50), "query-p50-ns")
		b.ReportMetric(float64(r.queryP99), "query-p99-ns")
	}
	if st := r.delta; st != nil {
		b.ReportMetric(float64(st.Drains), "drains")
		b.ReportMetric(float64(st.FrozenPoints+st.FrozenBoxes), "frozen-depth")
		b.ReportMetric(float64(st.Points+st.Boxes), "active-depth")
	}
	if r.checkpoints > 0 {
		b.ReportMetric(float64(r.checkpoints), "checkpoints")
	}
}

// cellRun is the shared state of one cell's goroutines: a stop flag,
// the first error any of them hit (which also stops the rest), and the
// acknowledged delta total the answer check compares against.
type cellRun struct {
	stop  atomic.Bool
	wg    sync.WaitGroup
	once  sync.Once
	err   error
	acked atomic.Int64
}

func (c *cellRun) fail(err error) {
	c.once.Do(func() { c.err = err })
	c.stop.Store(true)
}

// runFor lets the goroutines run for dur, stops them and returns the
// measured wall time.
func (c *cellRun) runFor(dur time.Duration) time.Duration {
	begin := time.Now()
	time.Sleep(dur)
	c.stop.Store(true)
	c.wg.Wait()
	return time.Since(begin)
}

// merged concatenates the per-goroutine reservoirs.
func merged(ls []*latencies) []int64 {
	var all []int64
	for _, l := range ls {
		all = append(all, l.v...)
	}
	return all
}

// boxVolume is the cell count of the inclusive box [lo, hi].
func boxVolume(lo, hi []int) int64 {
	v := int64(1)
	for j := range lo {
		v *= int64(hi[j] - lo[j] + 1)
	}
	return v
}

// runMixedCell drives one mode×backend×dims cell for the wall interval.
func runMixedCell(b *testing.B, mode, backend string, dims []int, dur time.Duration) mixedResult {
	dyn, err := ddc.NewDynamicWithOptions(dims, ddc.Options{Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	var front mixedFront
	var buf *ddc.Buffered
	switch mode {
	case "direct":
		front = ddc.NewSynchronized(dyn)
	case "buffered":
		buf = ddc.NewBuffered(dyn, ddc.BufferedOptions{})
		front = buf
	default:
		b.Fatalf("mixed: unknown mode %q", mode)
	}

	var run cellRun
	var writes, queries atomic.Uint64
	wLats := make([]*latencies, mixedWriters)
	qLats := make([]*latencies, mixedReaders)
	for w := range wLats {
		wLats[w] = newLatencies()
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			r := workload.NewRNG(uint64(1000 + w))
			p := make([]int, len(dims))
			lo := make([]int, len(dims))
			hi := make([]int, len(dims))
			var acked int64
			defer func() { run.acked.Add(acked) }()
			n := 0
			for !run.stop.Load() {
				start := time.Now()
				var err error
				box := n%64 == 63
				if box {
					for j, ext := range dims {
						lo[j] = r.Intn(ext)
						hi[j] = lo[j] + r.Intn(ext-lo[j])
					}
					err = front.RangeAdd(lo, hi, 1)
				} else {
					for j, ext := range dims {
						p[j] = r.Intn(ext)
					}
					err = front.Add(p, 1)
				}
				wLats[w].add(time.Since(start).Nanoseconds())
				if err != nil {
					run.fail(err)
					return
				}
				if box {
					acked += boxVolume(lo, hi)
				} else {
					acked++
				}
				writes.Add(1)
				n++
			}
		}()
	}
	for q := range qLats {
		qLats[q] = newLatencies()
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			r := workload.NewRNG(uint64(2000 + q))
			lo := make([]int, len(dims))
			hi := make([]int, len(dims))
			var sink int64
			for !run.stop.Load() {
				for j, ext := range dims {
					lo[j] = r.Intn(ext / 2)
					hi[j] = lo[j] + ext/4
				}
				start := time.Now()
				v, err := front.RangeSum(lo, hi)
				qLats[q].add(time.Since(start).Nanoseconds())
				if err != nil {
					run.fail(err)
					return
				}
				sink += v
				queries.Add(1)
			}
			_ = sink
		}()
	}
	res := mixedResult{wall: run.runFor(dur), procs: runtime.GOMAXPROCS(0)}
	if run.err != nil {
		b.Fatalf("mixed %s cell: %v", mode, run.err)
	}
	res.writes, res.queries = writes.Load(), queries.Load()
	wAll, qAll := merged(wLats), merged(qLats)
	res.writeP50, res.writeP99 = percentile(wAll, 0.50), percentile(wAll, 0.99)
	res.queryP50, res.queryP99 = percentile(qAll, 0.50), percentile(qAll, 0.99)
	if buf != nil {
		st := buf.Stats()
		res.delta = &st
		if err := buf.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if got, want := dyn.Total(), run.acked.Load(); got != want {
		b.Fatalf("mixed %s cell: Total = %d after close, acknowledged deltas sum to %d", mode, got, want)
	}
	return res
}

// runCheckpointCell drives buffered writers against a durable store
// (NoSync: the fsync cost is not what this cell measures) with or
// without a concurrent checkpoint streamer.
func runCheckpointCell(b *testing.B, dims []int, dur time.Duration, checkpoint bool) mixedResult {
	st, err := store.Open(b.TempDir(), store.Options{
		Dims:     dims,
		NoSync:   true,
		Buffered: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	var run cellRun
	var writes, checkpoints atomic.Uint64
	lats := make([]*latencies, mixedWriters)
	for w := range lats {
		lats[w] = newLatencies()
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			r := workload.NewRNG(uint64(3000 + w))
			p := make([]int, len(dims))
			var acked int64
			defer func() { run.acked.Add(acked) }()
			n := 0
			for !run.stop.Load() {
				for j, ext := range dims {
					p[j] = r.Intn(ext)
				}
				start := time.Now()
				err := st.Add(p, 1)
				if err == nil && n%32 == 31 {
					err = st.Flush()
				}
				lats[w].add(time.Since(start).Nanoseconds())
				if err != nil {
					run.fail(err)
					return
				}
				acked++
				writes.Add(1)
				n++
			}
		}()
	}
	if checkpoint {
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			for !run.stop.Load() {
				if err := st.Checkpoint(); err != nil {
					run.fail(err)
					return
				}
				checkpoints.Add(1)
			}
		}()
	}
	res := mixedResult{wall: run.runFor(dur), procs: runtime.GOMAXPROCS(0)}
	if err := errors.Join(run.err, st.Healthy()); err != nil {
		b.Fatalf("mixed checkpoint cell: %v", err)
	}
	res.writes, res.checkpoints = writes.Load(), checkpoints.Load()
	all := merged(lats)
	res.writeP50, res.writeP99 = percentile(all, 0.50), percentile(all, 0.99)
	bst := st.Buffered().Stats()
	res.delta = &bst
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if got, want := st.Cube().Total(), run.acked.Load(); got != want {
		b.Fatalf("mixed checkpoint cell: Total = %d after close, acknowledged deltas sum to %d", got, want)
	}
	return res
}

// benchCell runs cell once per iteration and reports the last run.
func benchCell(b *testing.B, cell func(b *testing.B) mixedResult) mixedResult {
	var res mixedResult
	for i := 0; i < b.N; i++ {
		res = cell(b)
	}
	res.report(b)
	return res
}

// BenchmarkMixed is the direct vs buffered matrix: every prefix-sum
// backend on each tier of mixedTiers, mixedCell per cell.
func BenchmarkMixed(b *testing.B) {
	for _, mode := range []string{"direct", "buffered"} {
		b.Run(mode, func(b *testing.B) {
			for _, be := range ddc.Backends() {
				b.Run(be, func(b *testing.B) {
					for _, dims := range mixedTiers {
						b.Run(tierName(dims), func(b *testing.B) {
							benchCell(b, func(b *testing.B) mixedResult {
								return runMixedCell(b, mode, be, dims, mixedCell)
							})
						})
					}
				})
			}
		})
	}
}

// tierName names a geometry by its dimensionality ("2d", "3d").
func tierName(dims []int) string { return fmt.Sprintf("%dd", len(dims)) }

// BenchmarkMixedCheckpoint is the checkpoint-stall pair: buffered store
// writers without and with a concurrent checkpoint streamer,
// mixedCkptCell per cell.
func BenchmarkMixedCheckpoint(b *testing.B) {
	for _, ckpt := range []bool{false, true} {
		b.Run(checkpointName(ckpt), func(b *testing.B) {
			benchCell(b, func(b *testing.B) mixedResult {
				return runCheckpointCell(b, mixedTiers[0], mixedCkptCell, ckpt)
			})
		})
	}
}

func checkpointName(ckpt bool) string {
	if ckpt {
		return "store+checkpoint"
	}
	return "store"
}

// BenchmarkMixedGuard is the CI guard: the default backend on the first
// tier, guardCell per mode cell and guardCkptCell per checkpoint cell.
// It fails when the buffered front sustains less than guardWriteSpeedup
// × direct's writes/s, when its query p99 is more than
// guardQueryP99Ratio × direct's, or when a concurrent checkpoint
// inflates the buffered store's write p99 by more than guardStallRatio.
// Under -cpu the four cells that ran at each GOMAXPROCS are judged
// together.
func BenchmarkMixedGuard(b *testing.B) {
	dims, be := mixedTiers[0], ddc.Backends()[0]
	// res[procs][cell] is each cell's last run at that GOMAXPROCS.
	res := map[int]map[string]mixedResult{}
	cell := func(name string, run func(b *testing.B) mixedResult) bool {
		return b.Run(name, func(b *testing.B) {
			r := benchCell(b, run)
			if res[r.procs] == nil {
				res[r.procs] = map[string]mixedResult{}
			}
			res[r.procs][name] = r
		})
	}
	for _, mode := range []string{"direct", "buffered"} {
		if !cell(mode, func(b *testing.B) mixedResult { return runMixedCell(b, mode, be, dims, guardCell) }) {
			return
		}
	}
	for _, ckpt := range []bool{false, true} {
		if !cell(checkpointName(ckpt), func(b *testing.B) mixedResult { return runCheckpointCell(b, dims, guardCkptCell, ckpt) }) {
			return
		}
	}

	var failures []string
	for _, procs := range slices.Sorted(maps.Keys(res)) {
		r := res[procs]
		if len(r) != 4 {
			// -cpu under -benchtime 1x measures a first -cpu value's cell
			// at whatever GOMAXPROCS the previous cell left.
			b.Fatalf("mixed guard: only %d of 4 cells ran at GOMAXPROCS=%d; use -benchtime 2x with -cpu", len(r), procs)
		}
		direct, buffered := r["direct"], r["buffered"]
		speedup := buffered.writesPerSec() / direct.writesPerSec()
		var p99Ratio, stall float64
		if direct.queryP99 > 0 {
			p99Ratio = float64(buffered.queryP99) / float64(direct.queryP99)
		}
		if base := r["store"].writeP99; base > 0 {
			stall = float64(r["store+checkpoint"].writeP99) / float64(base)
		}
		tier := fmt.Sprintf("%s/%s, GOMAXPROCS=%d", be, tierName(dims), procs)
		b.Logf("mixed guard (%s): %.2fx writes, %.2fx query p99, %.2fx checkpoint stall",
			tier, speedup, p99Ratio, stall)
		if speedup < guardWriteSpeedup {
			failures = append(failures, fmt.Sprintf("buffered/direct write speedup %.2fx < %.0fx (%s)",
				speedup, guardWriteSpeedup, tier))
		}
		if p99Ratio > guardQueryP99Ratio {
			failures = append(failures, fmt.Sprintf("buffered query p99 is %.2fx direct (limit %.2fx, %s)",
				p99Ratio, guardQueryP99Ratio, tier))
		}
		if stall > guardStallRatio {
			failures = append(failures, fmt.Sprintf("concurrent checkpoint inflates write p99 by %.2fx (limit %.1fx, %s)",
				stall, guardStallRatio, tier))
		}
	}
	if len(failures) > 0 {
		b.Fatalf("mixed guard: %s", strings.Join(failures, "; "))
	}
}
