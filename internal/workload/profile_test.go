package workload

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ddc/internal/grid"
	"ddc/internal/logrec"
)

// sparsePlane expands a {cell: count} map into a heatmap plane.
func sparsePlane(cells int, hot map[int]uint64) []uint64 {
	plane := make([]uint64, cells)
	for i, n := range hot {
		plane[i] = n
	}
	return plane
}

// goldenProfile profiles the golden DDCWKLD2 fixture: its op sequence
// (add, set, prefix, range sum, a two-box batch, a box update, add) was
// driven through a 16×16 DynamicCube with telemetry on and profiled by the
// live collectors the offline profile replaces. The two tests below pin
// that live snapshot, split into its heatmap and everything else.
func goldenProfile(t *testing.T) Profile {
	t.Helper()
	var recs []CaptureRecord
	info, err := ReadCaptureFile(filepath.Join("testdata", "golden-wkld2.bin"), func(r CaptureRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ProfileRecords(info, recs)
}

// TestProfileGoldenHeatmap: every op kind of the golden fixture heats the
// cell the live heatmap did, reads by the box centre and updates by the
// point or the box centre.
func TestProfileGoldenHeatmap(t *testing.T) {
	want := Heatmap{
		Grid: 64,
		Lo:   []int{0, 0},
		Hi:   []int{15, 15},
		// Cell c0*64+c1 with ci = xi*64/16: the prefix at (9,9), the
		// range sum's centre (7,8) and the batch boxes' (3,3) and (11,3).
		Read: sparsePlane(4096, map[int]uint64{780: 1, 1824: 1, 2340: 1, 2828: 1}),
		// The adds at (5,7) and (15,0), the set at (0,15) and the box
		// update's centre (3,6).
		Write: sparsePlane(4096, map[int]uint64{60: 1, 792: 1, 1308: 1, 3840: 1}),
	}
	if got := goldenProfile(t).Heatmap; !reflect.DeepEqual(got, want) {
		t.Fatalf("golden heatmap: read %v write %v", nonZero(got.Read), nonZero(got.Write))
	}
}

// TestProfileGoldenMatchesLiveProfile is the offline profile's equality
// gate on the rest of the live snapshot: the profile of the golden
// fixture must equal it on every field the offline profile keeps (the
// dim-0 marginals and the heavy hitters' always-zero error bound are
// gone; the mix now carries the sampling rate). The heatmap is pinned by
// TestProfileGoldenHeatmap.
func TestProfileGoldenMatchesLiveProfile(t *testing.T) {
	want := Profile{
		SampleN:    1,
		Reads:      4,
		Writes:     4,
		ExtentLog2: [][]uint64{{0, 1, 0, 0, 3}, {0, 1, 0, 0, 3}},
		VolumeLog2: []uint64{0, 1, 0, 0, 0, 0, 0, 2, 1},
		HeavyHitters: []HeavyHitter{
			{Lo: []int{9, 9}, Hi: []int{9, 9}, Count: 1},
			{Lo: []int{1, 2}, Hi: []int{14, 15}, Count: 1},
			{Lo: []int{0, 0}, Hi: []int{7, 7}, Count: 1},
			{Lo: []int{8, 0}, Hi: []int{15, 7}, Count: 1},
		},
	}
	got := goldenProfile(t)
	got.Heatmap = Heatmap{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden profile:\n got %+v\nwant %+v", got, want)
	}
}

// TestHeatGridSide pins the heatmap side: the largest power of two whose
// d-th power fits 4096 cells.
func TestHeatGridSide(t *testing.T) {
	for d, want := range map[int]int{1: 4096, 2: 64, 3: 16, 4: 8, 5: 4, 6: 4, 7: 2, 12: 2, 13: 1} {
		if got := heatGridSide(d); got != want {
			t.Errorf("heatGridSide(%d) = %d, want %d", d, got, want)
		}
	}
}

// TestProfileClampsOutOfDomain: coordinates past either edge of the
// header's domain land in the edge cells, and a d = 3 domain uses a
// 16-cell side.
func TestProfileClampsOutOfDomain(t *testing.T) {
	info := CaptureInfo{Dims: []int{100, 100, 100}, SampleN: 1}
	recs := []CaptureRecord{
		{Op: OpAdd, Point: grid.Point{-5, 50, 1000}, Value: 1},
		{Op: OpPrefix, Point: grid.Point{99, 0, 1 << 40}},
		{Op: OpRangeAdd, Lo: grid.Point{0, 0, 0}, Hi: grid.Point{99, 99, 99}, Value: 2},
	}
	p := ProfileRecords(info, recs)
	if p.Heatmap.Grid != 16 || len(p.Heatmap.Read) != 4096 {
		t.Fatalf("d = 3 heatmap: grid %d, %d cells", p.Heatmap.Grid, len(p.Heatmap.Read))
	}
	// (−5, 50, 1000) → cells (0, 8, 15); the box centre (49, 49, 49) →
	// (7, 7, 7); the prefix point (99, 0, 2^40) → (15, 0, 15).
	wantWrite := sparsePlane(4096, map[int]uint64{0*256 + 8*16 + 15: 1, 7*256 + 7*16 + 7: 1})
	wantRead := sparsePlane(4096, map[int]uint64{15*256 + 0*16 + 15: 1})
	if !reflect.DeepEqual(p.Heatmap.Write, wantWrite) || !reflect.DeepEqual(p.Heatmap.Read, wantRead) {
		t.Errorf("clamped cells: read %v write %v", nonZero(p.Heatmap.Read), nonZero(p.Heatmap.Write))
	}
}

func nonZero(plane []uint64) map[int]uint64 {
	out := map[int]uint64{}
	for i, n := range plane {
		if n != 0 {
			out[i] = n
		}
	}
	return out
}

// TestProfileLog2Buckets: bucket i counts values of bit length i, an
// inverted extent counts as 1, and the volume saturates at 2^64-1
// instead of wrapping.
func TestProfileLog2Buckets(t *testing.T) {
	info := CaptureInfo{Dims: []int{1 << 40, 1 << 40}, SampleN: 1}
	recs := []CaptureRecord{
		{Op: OpRangeSum, Lo: grid.Point{0, 0}, Hi: grid.Point{0, 6}},                 // extents 1, 7
		{Op: OpRangeSum, Lo: grid.Point{5, 9}, Hi: grid.Point{4, 9}},                 // inverted: 1, 1
		{Op: OpRangeSum, Lo: grid.Point{0, 0}, Hi: grid.Point{1<<40 - 1, 1<<40 - 1}}, // 2^40 each
	}
	p := ProfileRecords(info, recs)
	ext0 := make([]uint64, 42)
	ext0[1], ext0[41] = 2, 1
	ext1 := make([]uint64, 42)
	ext1[1], ext1[3], ext1[41] = 1, 1, 1
	if !reflect.DeepEqual(p.ExtentLog2, [][]uint64{ext0, ext1}) {
		t.Errorf("extents = %v", p.ExtentLog2)
	}
	// Volumes 7 (bit length 3), 1 (1) and 2^80, saturated to 2^64-1 (64).
	vol := make([]uint64, 65)
	vol[1], vol[3], vol[64] = 1, 1, 1
	if !reflect.DeepEqual(p.VolumeLog2, vol) {
		t.Errorf("volume = %v", p.VolumeLog2)
	}
	if empty := ProfileRecords(info, nil); empty.VolumeLog2 != nil || empty.ExtentLog2[0] != nil ||
		empty.Reads != 0 || len(empty.HeavyHitters) != 0 {
		t.Errorf("empty profile = %+v", empty)
	}
}

// TestProfileVolumeSaturates: a box volume at or past 2^64 saturates at
// 2^64-1 (bucket 64) instead of wrapping into a lower bucket, and a
// volume just below 2^64 is still counted exactly.
func TestProfileVolumeSaturates(t *testing.T) {
	const edge = 1 << 32
	info := CaptureInfo{Dims: []int{1 << 62, 1 << 62, 1 << 62}, SampleN: 1}
	for _, c := range []struct {
		exts   [3]int
		bucket int
	}{
		{[3]int{1 << 20, 1 << 21, 1 << 21}, 63},   // 2^62
		{[3]int{1 << 21, 1 << 21, 1 << 21}, 64},   // 2^63
		{[3]int{edge, edge - 1, 1}, 64},           // 2^64 - 2^32, exact
		{[3]int{edge, edge, 1}, 64},               // 2^64 would wrap to 0
		{[3]int{edge, edge, 2}, 64},               // saturated, then times 2
		{[3]int{1 << 62, 3, 1}, 64},               // 3·2^62 would wrap to 2^62
		{[3]int{1 << 62, 2, 2}, 64},               // 2^64 would wrap to 0
		{[3]int{1 << 40, 1 << 40, 1}, 64},         // 2^80
		{[3]int{1 << 40, 1 << 40, 1 << 40}, 64},   // 2^120
		{[3]int{99991, 99989, 99971}, 50},         // ≈ 2^49.8, exact
		{[3]int{1<<62 - 1, 1<<62 - 1, 1}, 64},     // ≈ 2^124
		{[3]int{1, 1, 1}, 1},                      // one cell
		{[3]int{1 << 31, 1 << 31, 1 << 1}, 64},    // exactly 2^63
		{[3]int{1 << 31, 1 << 31, 1}, 63},         // 2^62
		{[3]int{1<<21 + 1, 1 << 21, 1 << 21}, 64}, // just past 2^63
	} {
		lo, hi := grid.Point{0, 0, 0}, make(grid.Point, 3)
		for i, e := range c.exts {
			hi[i] = e - 1
		}
		p := ProfileRecords(info, []CaptureRecord{{Op: OpRangeSum, Lo: lo, Hi: hi}})
		want := make([]uint64, c.bucket+1)
		want[c.bucket] = 1
		if !reflect.DeepEqual(p.VolumeLog2, want) {
			t.Errorf("extents %v: volume buckets %v, want a single box in bucket %d", c.exts, nonZero(p.VolumeLog2), c.bucket)
		}
	}
}

// seededRecords returns a deterministic capture stream over a 32×32
// domain: updates of every kind and queries of every kind drawn from a
// pool of 40 boxes with skewed popularity, so more than heavyHitterCount
// boxes repeat.
func seededRecords(n int) []CaptureRecord {
	r := NewRNG(42)
	pool := Ranges(r, []int{32, 32}, 40, 0.5)
	pick := func() Query {
		// Squaring a uniform draw favours the low pool indices.
		u := r.Intn(40)
		return pool[u*u/40]
	}
	var recs []CaptureRecord
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			recs = append(recs, CaptureRecord{Op: OpAdd, Point: grid.Point{r.Intn(32), r.Intn(32)}, Value: 1})
		case 1:
			recs = append(recs, CaptureRecord{Op: OpSet, Point: grid.Point{r.Intn(32), r.Intn(32)}, Value: 3})
		case 2:
			q := pick()
			recs = append(recs, CaptureRecord{Op: OpRangeAdd, Lo: q.Lo, Hi: q.Hi, Value: -1})
		case 3:
			q := pick()
			recs = append(recs, CaptureRecord{Op: OpPrefix, Point: q.Hi})
		case 4:
			q := pick()
			recs = append(recs, CaptureRecord{Op: OpRangeSum, Lo: q.Lo, Hi: q.Hi})
		default:
			batch := make([]Query, 1+r.Intn(4))
			for j := range batch {
				batch[j] = pick()
			}
			recs = append(recs, CaptureRecord{Op: OpBatch, Batch: batch})
		}
	}
	return recs
}

// TestProfileHeavyHittersExact compares the heavy hitters of a seeded
// stream with more than heavyHitterCount distinct boxes against a
// brute-force count, ties in order of first appearance.
func TestProfileHeavyHittersExact(t *testing.T) {
	recs := seededRecords(3000)
	type tally struct {
		lo, hi []int
		count  uint64
		first  int
	}
	counts := map[string]*tally{}
	seen := 0
	count := func(lo, hi []int) {
		k := fmt.Sprint(lo, hi)
		if c, ok := counts[k]; ok {
			c.count++
			return
		}
		counts[k] = &tally{lo: lo, hi: hi, count: 1, first: seen}
		seen++
	}
	for _, rec := range recs {
		switch rec.Op {
		case OpPrefix:
			count(rec.Point, rec.Point)
		case OpRangeSum:
			count(rec.Lo, rec.Hi)
		case OpBatch:
			for _, q := range rec.Batch {
				count(q.Lo, q.Hi)
			}
		}
	}
	if len(counts) <= heavyHitterCount {
		t.Fatalf("stream has %d distinct boxes; the test needs more than %d", len(counts), heavyHitterCount)
	}
	all := make([]*tally, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].first < all[j].first
	})
	want := make([]HeavyHitter, heavyHitterCount)
	for i := range want {
		want[i] = HeavyHitter{Lo: all[i].lo, Hi: all[i].hi, Count: all[i].count}
	}
	got := ProfileRecords(CaptureInfo{Dims: []int{32, 32}, SampleN: 1}, recs).HeavyHitters
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("heavy hitters:\n got %v\nwant %v", got, want)
	}
}

// TestProfilePlaneSums: every read box heats exactly one read cell and
// every update one write cell, and the mix counts batch boxes one each.
func TestProfilePlaneSums(t *testing.T) {
	recs := seededRecords(2000)
	var reads, writes uint64
	for _, rec := range recs {
		switch {
		case rec.Op == OpBatch:
			reads += uint64(len(rec.Batch))
		case rec.Op == OpPrefix || rec.Op == OpRangeSum:
			reads++
		default:
			if _, ok := logrec.CaptureKind(rec.Op, 2); !ok {
				t.Fatalf("unexpected op %d", rec.Op)
			}
			writes++
		}
	}
	p := ProfileRecords(CaptureInfo{Dims: []int{32, 32}, SampleN: 3}, recs)
	sum := func(plane []uint64) (n uint64) {
		for _, v := range plane {
			n += v
		}
		return n
	}
	if p.Reads != reads || p.Writes != writes || p.SampleN != 3 {
		t.Fatalf("mix reads=%d writes=%d sample=%d, want %d/%d/3", p.Reads, p.Writes, p.SampleN, reads, writes)
	}
	if r, w := sum(p.Heatmap.Read), sum(p.Heatmap.Write); r != reads || w != writes {
		t.Fatalf("plane sums read=%d write=%d, want %d/%d", r, w, reads, writes)
	}
}

// TestProfileCaptureFile profiles a capture written and read back
// through the codec, the path ddcbench -replay takes.
func TestProfileCaptureFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{8}, SampleQueries: 2, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{3}, 1)
	c.RangeSum([]int{0}, []int{7}) // sampled out: the first of every two
	c.RangeSum([]int{2}, []int{5})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []CaptureRecord
	info, err := ReadCaptureFile(path, func(r CaptureRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ProfileRecords(info, recs)
	if p.SampleN != 2 || p.Reads != 1 || p.Writes != 1 || p.Heatmap.Grid != 4096 ||
		len(p.HeavyHitters) != 1 || p.HeavyHitters[0].Count != 1 || p.HeavyHitters[0].Lo[0] != 2 {
		t.Fatalf("profile = %+v", p)
	}
}
