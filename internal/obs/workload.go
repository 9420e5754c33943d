// Workload profiling: wait-free collectors describing the traffic a
// cube serves — not how fast it runs (metrics, spans) but what shapes
// it is asked. Four collectors feed one WorkloadSnapshot:
//
//   - a coarse heatmap: a fixed 2^k-cells-per-dimension grid of atomic
//     counters over the cube's domain, with separate read and write
//     planes. A query box heats the cell containing its center (O(d)
//     per query — heating every overlapped cell would turn a profiler
//     into a scan); a point update heats the cell containing the point.
//   - per-dimension box-extent and box-volume log2 histograms (LogHist),
//     bucketed by bits.Len64 so recording is one atomic add.
//   - a space-saving top-K sketch of repeated query boxes (TopK). This
//     is the one collector that takes a (small, rarely contended) lock;
//     the hash is computed outside it.
//   - a read/write mix pair of counters.
//
// The grid geometry is configured lazily by the first SetDomain call
// (first writer wins, installed with one CompareAndSwap); recording
// before configuration still counts the mix, shapes and heavy hitters
// and only skips the heatmap. Points outside the configured domain —
// possible after the cube grows — clamp to the edge cells; Reset drops
// the layout so the next SetDomain re-derives it from fresh bounds.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// heatGridSide returns the heatmap's cells-per-dimension for a
// d-dimensional domain: the largest power of two g with g^d <= 4096
// (so the whole plane stays a few pages of counters at any d).
func heatGridSide(d int) int {
	if d < 1 {
		return 1
	}
	return 1 << uint(12/d)
}

// LogHist is a log2-bucketed histogram: Observe(v) adds one to bucket
// bits.Len64(v), i.e. bucket i counts values in [2^(i-1), 2^i). One
// atomic add per observation, no bounds search.
type LogHist struct {
	buckets [65]atomic.Uint64
}

// Observe records one value.
func (h *LogHist) Observe(v uint64) { h.buckets[bits.Len64(v)].Add(1) }

// Snapshot returns the bucket counts trimmed to the last non-zero
// bucket (nil when empty). Index i counts values with bit length i.
func (h *LogHist) Snapshot() []uint64 {
	top := -1
	var counts [65]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] != 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	return append([]uint64(nil), counts[:top+1]...)
}

// Reset zeroes the histogram.
func (h *LogHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// ---------------------------------------------------------------------
// Heatmap layout

// heatLayout is the immutable grid geometry plus the two counter
// planes; installed once per domain via an atomic pointer so recording
// reads it with a single load.
type heatLayout struct {
	lo, hi  []int // inclusive domain bounds, copied
	grid    int   // cells per dimension
	strides []int // strides[0] is the largest (dim-0-major)
	// spans[i] is dimension i's extent (at least 1) and recips[i] is
	// floor((2^64-1) / spans[i]), so cell scaling multiplies instead of
	// dividing (see cell).
	spans, recips []uint64
	read          []atomic.Uint64
	write         []atomic.Uint64
	extents       []LogHist // per-dimension query box extents
}

func newHeatLayout(lo, hi []int) *heatLayout {
	d := len(lo)
	g := heatGridSide(d)
	cells := 1
	for i := 0; i < d; i++ {
		cells *= g
	}
	strides := make([]int, d)
	s := 1
	for i := d - 1; i >= 0; i-- {
		strides[i] = s
		s *= g
	}
	spans := make([]uint64, d)
	recips := make([]uint64, d)
	for i := range spans {
		spans[i] = uint64(max(hi[i]-lo[i]+1, 1))
		recips[i] = math.MaxUint64 / spans[i]
	}
	return &heatLayout{
		lo:      append([]int(nil), lo...),
		hi:      append([]int(nil), hi...),
		grid:    g,
		strides: strides,
		spans:   spans,
		recips:  recips,
		read:    make([]atomic.Uint64, cells),
		write:   make([]atomic.Uint64, cells),
		extents: make([]LogHist, d),
	}
}

// matches reports whether a record of dimensionality d can be placed
// on this layout. The geometry belongs to the first cube that recorded;
// a process can also serve cubes of other dimensionalities (the perf
// suite does), whose operations still count in the mix and volume
// histogram but have no cell on this map.
func (l *heatLayout) matches(d int) bool { return d == len(l.lo) }

// cell maps coordinate v of dimension i to its grid cell,
// floor((v-lo) * grid / span), clamping coordinates outside the domain
// to the edge cells. The quotient comes from the precomputed
// reciprocal: the high word of n * recip is the exact quotient or one
// less (n < 2^63 holds for spans below 2^51, and the core caps a side
// at 2^40), and one multiply-compare corrects it — no 64-bit division
// on the recording path.
func (l *heatLayout) cell(i, v int) int {
	x := v - l.lo[i]
	if x <= 0 {
		return 0
	}
	span := l.spans[i]
	if uint64(x) >= span {
		return l.grid - 1
	}
	n := uint64(x) * uint64(l.grid)
	q, _ := bits.Mul64(n, l.recips[i])
	if (q+1)*span <= n {
		q++
	}
	return int(q)
}

// cellIndex maps a point to its flat cell index, clamping coordinates
// outside the configured domain to the edge cells.
func (l *heatLayout) cellIndex(p []int) int {
	idx := 0
	for i, v := range p {
		idx += l.cell(i, v) * l.strides[i]
	}
	return idx
}

// satMul is vol * ext, saturating at math.MaxUint64.
func satMul(vol, ext uint64) uint64 {
	if hi, lo := bits.Mul64(vol, ext); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

// recordRead heats the cell holding the box center and observes the
// per-dimension extents; returns the saturating box volume for the
// caller's volume histogram (so extents are walked once).
func (l *heatLayout) recordRead(lo, hi []int) uint64 {
	idx := 0
	vol := uint64(1)
	for i := range lo {
		ext := uint64(1)
		if hi[i] >= lo[i] {
			ext = uint64(hi[i] - lo[i] + 1)
		}
		l.extents[i].Observe(ext)
		vol = satMul(vol, ext)
		idx += l.cell(i, lo[i]+(hi[i]-lo[i])/2) * l.strides[i]
	}
	l.read[idx].Add(1)
	return vol
}

// ---------------------------------------------------------------------
// Space-saving top-K

// topKCapacity is the heavy-hitter sketch size: enough to separate a
// dashboard's repeated panels from one-off scans without scanning a
// large table on eviction.
const topKCapacity = 16

type topKEntry struct {
	hash   uint64
	lo, hi []int
	count  uint64
	errv   uint64 // overestimation bound inherited from the evicted entry
}

// TopK is a space-saving heavy-hitter sketch over query boxes
// (Metwally et al.): at most topKCapacity monitored boxes; a novel box
// arriving at capacity replaces the minimum-count entry, inheriting its
// count as the error bound. Counts are exact when Error is 0.
type TopK struct {
	mu      sync.Mutex
	index   map[uint64]int
	entries []topKEntry
}

// NewTopK returns an empty sketch.
func NewTopK() *TopK {
	return &TopK{index: make(map[uint64]int, topKCapacity)}
}

// boxHash is FNV-1a over the box coordinates.
func boxHash(lo, hi []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range lo {
		h = (h ^ uint64(v)) * 1099511628211
	}
	for _, v := range hi {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// Record counts one occurrence of the box. The common path (box already
// monitored) is a map hit and an increment under the lock; boxes are
// only copied on admission.
func (t *TopK) Record(lo, hi []int) {
	h := boxHash(lo, hi)
	t.mu.Lock()
	if i, ok := t.index[h]; ok {
		t.entries[i].count++
		t.mu.Unlock()
		return
	}
	if len(t.entries) < topKCapacity {
		t.index[h] = len(t.entries)
		t.entries = append(t.entries, topKEntry{
			hash:  h,
			lo:    append([]int(nil), lo...),
			hi:    append([]int(nil), hi...),
			count: 1,
		})
		t.mu.Unlock()
		return
	}
	min := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].count < t.entries[min].count {
			min = i
		}
	}
	e := &t.entries[min]
	delete(t.index, e.hash)
	t.index[h] = min
	e.errv = e.count
	e.count++
	e.hash = h
	e.lo = append(e.lo[:0], lo...)
	e.hi = append(e.hi[:0], hi...)
	t.mu.Unlock()
}

// HeavyHitter is one monitored box: Count overestimates the true
// frequency by at most Error.
type HeavyHitter struct {
	Lo    []int  `json:"lo"`
	Hi    []int  `json:"hi"`
	Count uint64 `json:"count"`
	Error uint64 `json:"error"`
}

// Snapshot returns the monitored boxes, highest count first.
func (t *TopK) Snapshot() []HeavyHitter {
	t.mu.Lock()
	out := make([]HeavyHitter, len(t.entries))
	for i, e := range t.entries {
		out[i] = HeavyHitter{
			Lo:    append([]int(nil), e.lo...),
			Hi:    append([]int(nil), e.hi...),
			Count: e.count,
			Error: e.errv,
		}
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Reset empties the sketch.
func (t *TopK) Reset() {
	t.mu.Lock()
	t.entries = t.entries[:0]
	for k := range t.index {
		delete(t.index, k)
	}
	t.mu.Unlock()
}

// ---------------------------------------------------------------------
// WorkloadProfiler

// WorkloadProfiler bundles the workload collectors. Construct with
// NewWorkloadProfiler, configure the heatmap domain once with
// SetDomain, then call RecordRead/RecordWrite from instrumented paths.
// All methods are safe for concurrent use; recording is wait-free
// except the heavy-hitter sketch (see TopK).
type WorkloadProfiler struct {
	enabled atomic.Bool
	reads   *Counter
	writes  *Counter
	layout  atomic.Pointer[heatLayout]
	volume  LogHist
	topk    *TopK
}

// NewWorkloadProfiler returns an enabled profiler counting the
// read/write mix into the given counters (typically registry-owned so
// they surface on /metrics); nil counters are allocated privately.
func NewWorkloadProfiler(reads, writes *Counter) *WorkloadProfiler {
	if reads == nil {
		reads = &Counter{}
	}
	if writes == nil {
		writes = &Counter{}
	}
	w := &WorkloadProfiler{reads: reads, writes: writes, topk: NewTopK()}
	w.enabled.Store(true)
	return w
}

// SetEnabled toggles recording; construction enables it. Disabling the
// profiler while the owning telemetry stays on isolates the profiler's
// cost (the root package's BenchmarkProfilerGuard) and quiets the
// collectors without losing accumulated state.
func (w *WorkloadProfiler) SetEnabled(on bool) { w.enabled.Store(on) }

// Enabled reports whether recording is on.
func (w *WorkloadProfiler) Enabled() bool { return w.enabled.Load() }

// SetDomain installs the heatmap geometry over the inclusive domain
// [lo, hi]; only the first call per layout wins (false if already
// configured). Bounds are copied.
func (w *WorkloadProfiler) SetDomain(lo, hi []int) bool {
	if len(lo) == 0 || len(lo) != len(hi) {
		return false
	}
	return w.layout.CompareAndSwap(nil, newHeatLayout(lo, hi))
}

// HasDomain reports whether the heatmap geometry is configured — the
// hot-path guard callers use to avoid re-deriving cube bounds.
func (w *WorkloadProfiler) HasDomain() bool { return w.layout.Load() != nil }

// RecordRead profiles one range query box.
func (w *WorkloadProfiler) RecordRead(lo, hi []int) {
	if !w.enabled.Load() {
		return
	}
	w.reads.Inc()
	if lay := w.layout.Load(); lay != nil && lay.matches(len(lo)) {
		w.volume.Observe(lay.recordRead(lo, hi))
	} else {
		w.volume.Observe(boxVolume(lo, hi))
	}
	w.topk.Record(lo, hi)
}

// boxVolume is the saturating cell count of [lo, hi] — the off-layout
// fallback so the volume histogram covers every cube in the process.
func boxVolume(lo, hi []int) uint64 {
	vol := uint64(1)
	for i := range lo {
		ext := uint64(1)
		if hi[i] >= lo[i] {
			ext = uint64(hi[i] - lo[i] + 1)
		}
		vol = satMul(vol, ext)
	}
	return vol
}

// RecordPoint profiles one point query (a prefix sum or Get): a
// degenerate box, heating one cell with extent 1 in every dimension.
func (w *WorkloadProfiler) RecordPoint(p []int) {
	if !w.enabled.Load() {
		return
	}
	w.reads.Inc()
	w.volume.Observe(1)
	if lay := w.layout.Load(); lay != nil && lay.matches(len(p)) {
		for i := range lay.extents {
			lay.extents[i].Observe(1)
		}
		lay.read[lay.cellIndex(p)].Add(1)
	}
	w.topk.Record(p, p)
}

// RecordWrite profiles one point update.
func (w *WorkloadProfiler) RecordWrite(p []int) {
	if !w.enabled.Load() {
		return
	}
	w.writes.Inc()
	if lay := w.layout.Load(); lay != nil && lay.matches(len(p)) {
		lay.write[lay.cellIndex(p)].Add(1)
	}
}

// RecordWriteBox profiles one box range update (RangeAdd): the write
// plane heats at the box center — mirroring how RecordRead attributes
// range queries — and the write mix counter moves by one regardless of
// how many cells the box covers.
func (w *WorkloadProfiler) RecordWriteBox(lo, hi []int) {
	if !w.enabled.Load() {
		return
	}
	w.writes.Inc()
	if lay := w.layout.Load(); lay != nil && lay.matches(len(lo)) {
		center := make([]int, len(lo))
		for i := range lo {
			center[i] = lo[i] + (hi[i]-lo[i])/2
		}
		lay.write[lay.cellIndex(center)].Add(1)
	}
}

// Reads returns the profiled read count.
func (w *WorkloadProfiler) Reads() uint64 { return w.reads.Value() }

// Writes returns the profiled write count.
func (w *WorkloadProfiler) Writes() uint64 { return w.writes.Value() }

// Reset zeroes the mix counters, histograms and sketch, and drops the
// heatmap layout so the next SetDomain re-derives the geometry (the
// cube may have grown since it was configured).
func (w *WorkloadProfiler) Reset() {
	w.reads.Reset()
	w.writes.Reset()
	w.layout.Store(nil)
	w.volume.Reset()
	w.topk.Reset()
}

// ---------------------------------------------------------------------
// Snapshot

// HeatmapSnapshot is the point-in-time heatmap: both planes flattened
// dim-0-major (cell [c0,c1,...] at index c0*Grid^(d-1)+c1*Grid^(d-2)+...)
// plus the dimension-0 marginals — the per-region heat a shard
// rebalancer wants without parsing the full plane.
type HeatmapSnapshot struct {
	Grid      int      `json:"grid"`
	Lo        []int    `json:"lo"`
	Hi        []int    `json:"hi"`
	Read      []uint64 `json:"read"`
	Write     []uint64 `json:"write"`
	ReadDim0  []uint64 `json:"read_dim0"`
	WriteDim0 []uint64 `json:"write_dim0"`
}

// WorkloadSnapshot is the JSON-ready profile of everything the
// collectors saw: the read/write mix, the heatmap (nil until SetDomain
// configures a domain), per-dimension extent and box-volume log2
// histograms (bucket i counts values of bit length i), and the heavy
// hitters.
type WorkloadSnapshot struct {
	Enabled      bool             `json:"enabled"`
	Reads        uint64           `json:"reads"`
	Writes       uint64           `json:"writes"`
	ReadFraction float64          `json:"read_fraction"`
	Heatmap      *HeatmapSnapshot `json:"heatmap,omitempty"`
	ExtentLog2   [][]uint64       `json:"extent_log2,omitempty"`
	VolumeLog2   []uint64         `json:"volume_log2,omitempty"`
	HeavyHitters []HeavyHitter    `json:"heavy_hitters"`
}

// Snapshot returns the current profile, read with atomic loads while
// recording continues.
func (w *WorkloadProfiler) Snapshot() WorkloadSnapshot {
	s := WorkloadSnapshot{
		Enabled:      w.enabled.Load(),
		Reads:        w.reads.Value(),
		Writes:       w.writes.Value(),
		VolumeLog2:   w.volume.Snapshot(),
		HeavyHitters: w.topk.Snapshot(),
	}
	if total := s.Reads + s.Writes; total > 0 {
		s.ReadFraction = float64(s.Reads) / float64(total)
	}
	if lay := w.layout.Load(); lay != nil {
		hm := &HeatmapSnapshot{
			Grid:      lay.grid,
			Lo:        append([]int(nil), lay.lo...),
			Hi:        append([]int(nil), lay.hi...),
			Read:      make([]uint64, len(lay.read)),
			Write:     make([]uint64, len(lay.write)),
			ReadDim0:  make([]uint64, lay.grid),
			WriteDim0: make([]uint64, lay.grid),
		}
		block := lay.strides[0] // cells per dim-0 slice
		for i := range lay.read {
			r, wv := lay.read[i].Load(), lay.write[i].Load()
			hm.Read[i], hm.Write[i] = r, wv
			hm.ReadDim0[i/block] += r
			hm.WriteDim0[i/block] += wv
		}
		s.Heatmap = hm
		s.ExtentLog2 = make([][]uint64, len(lay.extents))
		for i := range lay.extents {
			s.ExtentLog2[i] = lay.extents[i].Snapshot()
		}
	}
	return s
}
