package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHeatGridSide(t *testing.T) {
	cases := []struct{ d, want int }{
		{1, 4096}, {2, 64}, {3, 16}, {4, 8}, {6, 4}, {12, 2}, {13, 1}, {0, 1},
	}
	for _, c := range cases {
		if got := heatGridSide(c.d); got != c.want {
			t.Errorf("heatGridSide(%d) = %d, want %d", c.d, got, c.want)
		}
		// The whole plane must stay bounded regardless of d.
		if c.d >= 1 {
			cells := 1.0
			for i := 0; i < c.d; i++ {
				cells *= float64(heatGridSide(c.d))
			}
			if cells > 4096 {
				t.Errorf("d=%d: %v cells exceeds the 4096 budget", c.d, cells)
			}
		}
	}
}

func TestLogHist(t *testing.T) {
	var h LogHist
	for _, v := range []uint64{0, 1, 2, 3, 8, 1024, math.MaxUint64} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if len(s) != 65 {
		t.Fatalf("snapshot trimmed to %d buckets, want 65 (MaxUint64 observed)", len(s))
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 4: 1, 11: 1, 64: 1}
	for i, n := range s {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	h.Reset()
	if s := h.Snapshot(); s != nil {
		t.Errorf("after Reset snapshot = %v, want nil", s)
	}
}

func TestWorkloadHeatmapCells(t *testing.T) {
	w := NewWorkloadProfiler(nil, nil)
	if w.HasDomain() {
		t.Fatal("fresh profiler claims a domain")
	}
	if !w.SetDomain([]int{0, 0}, []int{63, 63}) {
		t.Fatal("first SetDomain rejected")
	}
	if w.SetDomain([]int{0, 0}, []int{127, 127}) {
		t.Fatal("second SetDomain accepted; first writer must win")
	}

	// 64x64 domain at grid 64: one heat cell per domain cell.
	w.RecordWrite([]int{5, 7})
	w.RecordRead([]int{0, 0}, []int{31, 31}) // center (15,15)
	w.RecordPoint([]int{3, 4})

	s := w.Snapshot()
	if s.Heatmap == nil || s.Heatmap.Grid != 64 {
		t.Fatalf("heatmap = %+v, want grid 64", s.Heatmap)
	}
	if got := s.Heatmap.Write[5*64+7]; got != 1 {
		t.Errorf("write heat at (5,7) = %d, want 1", got)
	}
	if got := s.Heatmap.Read[15*64+15]; got != 1 {
		t.Errorf("read heat at box center (15,15) = %d, want 1", got)
	}
	if got := s.Heatmap.Read[3*64+4]; got != 1 {
		t.Errorf("read heat at point (3,4) = %d, want 1", got)
	}
	var readTotal, writeTotal uint64
	for _, v := range s.Heatmap.Read {
		readTotal += v
	}
	for _, v := range s.Heatmap.Write {
		writeTotal += v
	}
	if readTotal != 2 || writeTotal != 1 {
		t.Errorf("plane totals = %d reads, %d writes; want 2, 1", readTotal, writeTotal)
	}
	// Dim-0 marginals collapse the trailing dimensions.
	if s.Heatmap.ReadDim0[15] != 1 || s.Heatmap.ReadDim0[3] != 1 || s.Heatmap.WriteDim0[5] != 1 {
		t.Errorf("marginals wrong: read_dim0[15]=%d read_dim0[3]=%d write_dim0[5]=%d",
			s.Heatmap.ReadDim0[15], s.Heatmap.ReadDim0[3], s.Heatmap.WriteDim0[5])
	}

	// Shapes: the 32x32 box has extent 32 (bit length 6) per dimension
	// and volume 1024 (bit length 11); the point adds extent/volume 1.
	for dim := 0; dim < 2; dim++ {
		if got := s.ExtentLog2[dim][6]; got != 1 {
			t.Errorf("dim %d extent bucket 6 = %d, want 1", dim, got)
		}
		if got := s.ExtentLog2[dim][1]; got != 1 {
			t.Errorf("dim %d extent bucket 1 = %d, want 1 (the point query)", dim, got)
		}
	}
	if got := s.VolumeLog2[11]; got != 1 {
		t.Errorf("volume bucket 11 = %d, want 1", got)
	}

	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("mix = %d reads / %d writes, want 2/1", s.Reads, s.Writes)
	}
	if want := 2.0 / 3.0; math.Abs(s.ReadFraction-want) > 1e-12 {
		t.Errorf("read fraction = %v, want %v", s.ReadFraction, want)
	}
}

func TestWorkloadClampsOutOfDomain(t *testing.T) {
	w := NewWorkloadProfiler(nil, nil)
	w.SetDomain([]int{0}, []int{0}) // 1-cell domain, d=1 → grid 4096
	w.RecordWrite([]int{-5})
	w.RecordWrite([]int{900})
	s := w.Snapshot()
	if s.Heatmap.Write[0] != 1 || s.Heatmap.Write[len(s.Heatmap.Write)-1] != 1 {
		t.Errorf("out-of-domain points must clamp to edge cells; plane ends = %d, %d",
			s.Heatmap.Write[0], s.Heatmap.Write[len(s.Heatmap.Write)-1])
	}
}

func TestTopKExactAndEviction(t *testing.T) {
	k := NewTopK()
	hot := [][2][]int{{{0, 0}, {9, 9}}, {{5, 5}, {6, 6}}}
	for i := 0; i < 10; i++ {
		k.Record(hot[0][0], hot[0][1])
	}
	for i := 0; i < 5; i++ {
		k.Record(hot[1][0], hot[1][1])
	}
	s := k.Snapshot()
	if len(s) != 2 || s[0].Count != 10 || s[0].Error != 0 || s[1].Count != 5 {
		t.Fatalf("exact counts wrong: %+v", s)
	}
	if s[0].Lo[0] != 0 || s[0].Hi[1] != 9 {
		t.Fatalf("top entry box = %v-%v, want [0 0]-[9 9]", s[0].Lo, s[0].Hi)
	}

	// Fill to capacity with distinct singletons, then overflow: the
	// newcomer must evict a minimum entry, inheriting count+1 / error.
	for i := 0; i < topKCapacity; i++ {
		k.Record([]int{i, i}, []int{i + 100, i + 100})
	}
	k.Record([]int{777, 777}, []int{888, 888})
	s = k.Snapshot()
	if len(s) != topKCapacity {
		t.Fatalf("sketch grew to %d entries, capacity %d", len(s), topKCapacity)
	}
	var newcomer *HeavyHitter
	for i := range s {
		if s[i].Lo[0] == 777 {
			newcomer = &s[i]
		}
	}
	if newcomer == nil {
		t.Fatal("overflowing box was not admitted")
	}
	if newcomer.Count != 2 || newcomer.Error != 1 {
		t.Errorf("space-saving admission: count=%d error=%d, want 2/1",
			newcomer.Count, newcomer.Error)
	}
}

func TestWorkloadDisabledRecordsNothing(t *testing.T) {
	w := NewWorkloadProfiler(nil, nil)
	w.SetDomain([]int{0, 0}, []int{63, 63})
	w.SetEnabled(false)
	w.RecordRead([]int{0, 0}, []int{9, 9})
	w.RecordWrite([]int{1, 1})
	w.RecordPoint([]int{2, 2})
	s := w.Snapshot()
	if s.Enabled || s.Reads != 0 || s.Writes != 0 || len(s.HeavyHitters) != 0 {
		t.Errorf("disabled profiler recorded: %+v", s)
	}
	w.SetEnabled(true)
	w.RecordWrite([]int{1, 1})
	if w.Writes() != 1 {
		t.Errorf("re-enabled profiler did not record")
	}
}

func TestWorkloadReset(t *testing.T) {
	w := NewWorkloadProfiler(nil, nil)
	w.SetDomain([]int{0, 0}, []int{63, 63})
	w.RecordRead([]int{0, 0}, []int{31, 31})
	w.RecordWrite([]int{1, 2})
	w.Reset()
	if w.HasDomain() {
		t.Error("Reset must drop the heatmap layout")
	}
	s := w.Snapshot()
	if s.Reads != 0 || s.Writes != 0 || s.Heatmap != nil ||
		len(s.HeavyHitters) != 0 || s.VolumeLog2 != nil {
		t.Errorf("Reset left state behind: %+v", s)
	}
	// The profiler must be reconfigurable after Reset (fresh bounds).
	if !w.SetDomain([]int{0}, []int{7}) {
		t.Error("SetDomain after Reset rejected")
	}
}

// TestConcurrentWorkloadProfiler hammers every collector from many
// goroutines under the race detector and asserts the exact final heat:
// atomic planes and counters lose no increments.
func TestConcurrentWorkloadProfiler(t *testing.T) {
	w := NewWorkloadProfiler(nil, nil)
	w.SetDomain([]int{0, 0}, []int{63, 63})
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			box := [2][]int{{8, 8}, {23, 23}} // center (15,15)
			pt := []int{40, 41}
			for i := 0; i < perG; i++ {
				w.RecordRead(box[0], box[1])
				w.RecordWrite(pt)
			}
		}(g)
	}
	wg.Wait()

	const each = goroutines * perG
	s := w.Snapshot()
	if s.Reads != each || s.Writes != each {
		t.Fatalf("mix = %d/%d, want %d/%d", s.Reads, s.Writes, each, each)
	}
	if got := s.Heatmap.Read[15*64+15]; got != each {
		t.Errorf("read heat = %d, want %d", got, each)
	}
	if got := s.Heatmap.Write[40*64+41]; got != each {
		t.Errorf("write heat = %d, want %d", got, each)
	}
	if len(s.HeavyHitters) != 1 || s.HeavyHitters[0].Count != each ||
		s.HeavyHitters[0].Error != 0 {
		t.Errorf("heavy hitters = %+v, want one exact entry of %d", s.HeavyHitters, each)
	}
	for dim := 0; dim < 2; dim++ {
		if got := s.ExtentLog2[dim][5]; got != each { // extent 16 → bit length 5
			t.Errorf("dim %d extent bucket 5 = %d, want %d", dim, got, each)
		}
	}
	if got := s.VolumeLog2[9]; got != each { // 16*16 = 256 → bit length 9
		t.Errorf("volume bucket 9 = %d, want %d", got, each)
	}
}

// TestWorkloadDimensionMismatch pins the multi-cube behavior: the
// heatmap geometry belongs to the first cube that configured it, and a
// record from a cube of another dimensionality must not touch (or
// panic) the layout — it still counts in the mix and volume histogram.
func TestWorkloadDimensionMismatch(t *testing.T) {
	w := NewWorkloadProfiler(nil, nil)
	if !w.SetDomain([]int{0, 0}, []int{63, 63}) {
		t.Fatal("SetDomain")
	}
	w.RecordRead([]int{0, 0, 0}, []int{7, 7, 7}) // d=3 box on a d=2 map
	w.RecordWrite([]int{1, 2, 3})
	w.RecordPoint([]int{4, 5, 6})
	s := w.Snapshot()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("mix: reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.VolumeLog2[10] != 1 { // 8*8*8 = 512, bit length 10
		t.Errorf("volume histogram missed the off-layout box: %v", s.VolumeLog2)
	}
	for i, v := range s.Heatmap.Read {
		if v != 0 {
			t.Fatalf("heatmap cell %d heated by a mismatched record", i)
		}
	}
	for _, dim := range s.ExtentLog2 {
		for b, v := range dim {
			if v != 0 {
				t.Fatalf("extent bucket %d heated by a mismatched record", b)
			}
		}
	}
}

// divCell is the division formula cell scaling replaces: floor((v-lo)
// * grid / span), clamped to the grid.
func divCell(v, lo, hi, grid int) int {
	span := max(hi-lo+1, 1)
	c := int(int64(v-lo) * int64(grid) / int64(span))
	return min(max(c, 0), grid-1)
}

// divVolume is the division formula satMul replaces: the saturating
// product of the box extents.
func divVolume(exts []uint64) uint64 {
	vol := uint64(1)
	for _, ext := range exts {
		if vol > math.MaxUint64/ext {
			return math.MaxUint64
		}
		vol *= ext
	}
	return vol
}

func TestHeatCellMatchesDivision(t *testing.T) {
	// Odd and prime spans, spans below and above the grid side, large
	// spans up to the core's side cap, and negative low corners.
	spans := []int{1, 2, 3, 5, 7, 15, 17, 63, 65, 97, 1000, 4095, 4097, 65537, 999983, 1<<40 - 3, 1 << 40}
	for _, d := range []int{1, 2, 3, 5} {
		g := heatGridSide(d)
		for _, span := range spans {
			for _, lo := range []int{0, -7, 1 << 20} {
				hi := lo + span - 1
				los, his := make([]int, d), make([]int, d)
				for i := range los {
					los[i], his[i] = lo, hi
				}
				l := newHeatLayout(los, his)
				// Every cell boundary, one step either side, both domain
				// edges and points outside the domain.
				check := func(v int) {
					if got, want := l.cell(d-1, v), divCell(v, lo, hi, g); got != want {
						t.Fatalf("d=%d span=%d lo=%d v=%d: cell %d, division %d", d, span, lo, v, got, want)
					}
				}
				for _, v := range []int{lo - 1 - span, lo - 1, lo, hi, hi + 1, hi + span} {
					check(v)
				}
				for c := 1; c < g; c++ {
					b := lo + int((int64(c)*int64(span)+int64(g)-1)/int64(g))
					for _, v := range []int{b - 1, b, b + 1} {
						check(v)
					}
				}
				if span <= 1<<13 {
					for v := lo; v <= hi; v++ {
						check(v)
					}
				}
				// The flat index and a read box's center cell and volume.
				p := make([]int, d)
				for i := range p {
					p[i] = lo + (i+1)*span/(d+1)
				}
				want := 0
				for i, v := range p {
					want += divCell(v, lo, hi, g) * l.strides[i]
				}
				if got := l.cellIndex(p); got != want {
					t.Fatalf("d=%d span=%d lo=%d: cellIndex(%v) %d, division %d", d, span, lo, p, got, want)
				}
				exts := make([]uint64, d)
				for i := range exts {
					exts[i] = uint64(hi - lo + 1)
				}
				if got, want := l.recordRead(los, his), divVolume(exts); got != want {
					t.Fatalf("d=%d span=%d: recordRead volume %d, division %d", d, span, got, want)
				}
				center := make([]int, d)
				for i := range center {
					center[i] = lo + (hi-lo)/2
				}
				if l.read[l.cellIndex(center)].Load() != 1 {
					t.Fatalf("d=%d span=%d: recordRead did not heat the center cell", d, span)
				}
			}
		}
	}
}

func TestSatMulMatchesDivision(t *testing.T) {
	edge := uint64(1) << 32
	cases := [][]uint64{
		{1}, {3, 5, 7}, {edge, edge - 1}, {edge, edge}, {edge, edge, 1},
		{math.MaxUint64}, {math.MaxUint64, 1}, {math.MaxUint64, 2},
		{math.MaxUint64 / 3, 3}, {math.MaxUint64/3 + 1, 3},
		{math.MaxUint64 / 7, 7, 1}, {1 << 63, 2}, {1 << 62, 2, 2}, {99991, 99989, 99971, 99961},
	}
	for _, exts := range cases {
		vol := uint64(1)
		for _, ext := range exts {
			vol = satMul(vol, ext)
		}
		if want := divVolume(exts); vol != want {
			t.Errorf("%v: satMul volume %d, division %d", exts, vol, want)
		}
		lo, hi := make([]int, len(exts)), make([]int, len(exts))
		fits := true
		for i, ext := range exts {
			if ext > math.MaxInt64 {
				fits = false
				break
			}
			hi[i] = int(ext) - 1
		}
		if fits {
			if got, want := boxVolume(lo, hi), divVolume(exts); got != want {
				t.Errorf("%v: boxVolume %d, division %d", exts, got, want)
			}
		}
	}
}
