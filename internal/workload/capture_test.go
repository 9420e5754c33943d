package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testClock returns a deterministic clock advancing 1ms per call.
func testClock() func() time.Time {
	base := time.Unix(1700000000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestCaptureRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{64, 64}, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{5, 7}, 100)
	c.Set([]int{0, 63}, -3)
	c.Prefix([]int{31, 31})
	c.RangeSum([]int{0, 0}, []int{31, 31})
	c.Batch([]Query{
		{Lo: []int{0, 0}, Hi: []int{15, 15}},
		{Lo: []int{16, 0}, Hi: []int{31, 15}},
	})
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
	if info.Torn {
		t.Fatal("clean close read as torn")
	}
	if len(info.Dims) != 2 || info.Dims[0] != 64 || info.SampleN != 1 {
		t.Fatalf("info = %+v", info)
	}
	if info.Records != 5 || info.Updates != 2 || info.Queries != 3 {
		t.Fatalf("counts = %+v", info)
	}
	if recs[0].Op != OpAdd || recs[0].Point[0] != 5 || recs[0].Point[1] != 7 || recs[0].Value != 100 {
		t.Fatalf("rec 0 = %+v", recs[0])
	}
	if recs[1].Op != OpSet || recs[1].Value != -3 || recs[1].Point[1] != 63 {
		t.Fatalf("rec 1 = %+v", recs[1])
	}
	if recs[2].Op != OpPrefix || recs[2].Point[0] != 31 {
		t.Fatalf("rec 2 = %+v", recs[2])
	}
	if recs[3].Op != OpRangeSum || recs[3].Lo[0] != 0 || recs[3].Hi[0] != 31 {
		t.Fatalf("rec 3 = %+v", recs[3])
	}
	if recs[4].Op != OpBatch || len(recs[4].Batch) != 2 || recs[4].Batch[1].Hi[0] != 31 {
		t.Fatalf("rec 4 = %+v", recs[4])
	}
	// Delta timestamps reconstruct a strictly increasing absolute clock.
	for i := 1; i < len(recs); i++ {
		if recs[i].At <= recs[i-1].At {
			t.Fatalf("timestamps not increasing: %d then %d", recs[i-1].At, recs[i].At)
		}
	}

	stats := c.Stats()
	if stats.Records != 5 || stats.Updates != 2 || stats.Queries != 3 || stats.Rotations != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCaptureSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{
		Path: path, Dims: []int{8}, SampleQueries: 3, Now: testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		c.RangeSum([]int{0}, []int{7})
	}
	for i := 0; i < 4; i++ {
		c.Add([]int{i}, 1) // updates are never sampled out
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := ReadCaptureFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != 3 || info.Updates != 4 {
		t.Fatalf("1-in-3 sampling kept %d queries (want 3), %d updates (want 4)",
			info.Queries, info.Updates)
	}
	if s := c.Stats(); s.SampledOut != 6 {
		t.Fatalf("sampled_out = %d, want 6", s.SampledOut)
	}
}

func TestCaptureTornTailAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{16, 16}, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Add([]int{i, i}, int64(i+1))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncating anywhere inside the final record is a torn tail, not an
	// error, and replays every record before it.
	for cut := 1; cut < 12; cut++ {
		info, err := ReadCapture(bytes.NewReader(full[:len(full)-cut]), nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !info.Torn || info.Records != 4 {
			t.Fatalf("cut %d: %+v, want 4 records and torn", cut, info)
		}
	}

	// Flipping a payload byte must be rejected as corruption.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := ReadCapture(bytes.NewReader(corrupt), nil); !errors.Is(err, ErrBadCapture) {
		t.Fatalf("payload flip: err = %v, want ErrBadCapture", err)
	}

	// A wrong magic is rejected immediately.
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := ReadCapture(bytes.NewReader(bad), nil); !errors.Is(err, ErrBadCapture) {
		t.Fatalf("bad magic: err = %v, want ErrBadCapture", err)
	}
}

func TestCaptureRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{
		Path: path, Dims: []int{8, 8}, MaxBytes: 200, Now: testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 0; i < total; i++ {
		c.Add([]int{i % 8, i % 8}, int64(i))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Rotations == 0 {
		t.Fatal("no rotation at a 200-byte cap")
	}
	// Both generations parse, and together hold the most recent records
	// (earlier generations beyond .1 are discarded by design).
	cur, err := ReadCaptureFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := ReadCaptureFile(path+".1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Torn || prev.Torn {
		t.Fatalf("rotation produced torn files: cur %+v prev %+v", cur, prev)
	}
	if cur.Records == 0 || prev.Records == 0 {
		t.Fatalf("empty generation: cur %d prev %d", cur.Records, prev.Records)
	}
	if cur.Records+prev.Records > total {
		t.Fatalf("generations hold %d records for %d captured", cur.Records+prev.Records, total)
	}
}

func TestCaptureClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{4}, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{1}, 1)
	c.RangeSum([]int{0}, []int{3})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close records are dropped silently; the file still parses.
	c.Add([]int{2}, 5)
	info, err := ReadCaptureFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 2 {
		t.Fatalf("post-close write leaked: %d records", info.Records)
	}
	// A nil capture records nothing and does not panic: callers with no
	// capture attached record unconditionally.
	var none *Capture
	none.Add([]int{1}, 1)
	none.RangeSum([]int{0}, []int{3})
	none.Prefix([]int{2})
	none.Batch([]Query{{Lo: []int{0}, Hi: []int{1}}})
}

func TestCaptureOptionValidation(t *testing.T) {
	if _, err := NewCapture(CaptureOptions{Dims: []int{4}}); err == nil {
		t.Error("missing path accepted")
	}
	if _, err := NewCapture(CaptureOptions{Path: filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("missing dims accepted")
	}
}

// TestGeneratorsDegenerateExtents pins the generators at the edges of
// their domains: 1-cell domains, zero-width windows and d=1 streams
// must produce valid in-domain operations, not panics or empty boxes.
func TestGeneratorsDegenerateExtents(t *testing.T) {
	one := []int{1}
	r := NewRNG(99)

	for _, u := range Uniform(r, one, 20, 3) {
		if len(u.Point) != 1 || u.Point[0] != 0 {
			t.Fatalf("uniform on 1-cell domain: %v", u.Point)
		}
	}
	for _, u := range Clustered(r, []int{1, 1}, 2, 20, 5, 3) {
		if u.Point[0] != 0 || u.Point[1] != 0 {
			t.Fatalf("clustered on 1x1 domain: %v", u.Point)
		}
	}
	for _, u := range Skewed(r, one, 20, 2, 3) {
		if u.Point[0] != 0 {
			t.Fatalf("skewed on 1-cell domain: %v", u.Point)
		}
	}
	for _, q := range Ranges(r, one, 20, 0.0) {
		if q.Lo[0] != 0 || q.Hi[0] != 0 {
			t.Fatalf("ranges on 1-cell d=1 domain: [%v,%v]", q.Lo, q.Hi)
		}
	}

	// Zero-width and zero-stride windows clamp to 1; a window wider than
	// the dimension clamps to the full extent.
	for _, q := range Windows([]int{8}, 5, 0, 0, 0, nil, nil) {
		if q.Lo[0] != q.Hi[0] || q.Lo[0] < 0 || q.Hi[0] >= 8 {
			t.Fatalf("zero-width window: [%v,%v]", q.Lo, q.Hi)
		}
	}
	for _, q := range Windows([]int{4}, 3, 0, 99, 2, nil, nil) {
		if q.Lo[0] != 0 || q.Hi[0] != 3 {
			t.Fatalf("over-wide window must clamp to the domain: [%v,%v]", q.Lo, q.Hi)
		}
	}
	for _, q := range Windows(one, 3, 0, 1, 1, nil, nil) {
		if q.Lo[0] != 0 || q.Hi[0] != 0 {
			t.Fatalf("window on 1-cell domain: [%v,%v]", q.Lo, q.Hi)
		}
	}

	// A d=1 trade stream interleaves valid updates and queries.
	ts := Trades(r, []int{5}, 30, 3, 9)
	for _, q := range ts.Queries {
		if q.Lo[0] < 0 || q.Hi[0] >= 5 || q.Lo[0] > q.Hi[0] {
			t.Fatalf("d=1 trade query: [%v,%v]", q.Lo, q.Hi)
		}
	}
	for _, u := range ts.Updates {
		if u.Point[0] < 0 || u.Point[0] >= 5 {
			t.Fatalf("d=1 trade update: %v", u.Point)
		}
	}
}

func TestCaptureRangeAddRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk2.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{32, 32}, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{1, 2}, 10)
	c.RangeAdd([]int{0, 0}, []int{15, 15}, -7)
	c.RangeSum([]int{0, 0}, []int{31, 31})
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
	if info.Version != 2 {
		t.Fatalf("version = %d, want 2", info.Version)
	}
	if info.Updates != 2 || info.Queries != 1 {
		t.Fatalf("counts = %+v (rangeadd must count as an update)", info)
	}
	r := recs[1]
	if r.Op != OpRangeAdd || r.Lo[0] != 0 || r.Hi[0] != 15 || r.Hi[1] != 15 || r.Value != -7 {
		t.Fatalf("rangeadd rec = %+v", r)
	}
}

// TestCaptureReadsV1 pins backward compatibility: a DDCWKLD1 stream —
// byte-identical to a v2 stream except for the magic, with no op-6
// records — still decodes.
func TestCaptureReadsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{16}, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{3}, 5)
	c.RangeSum([]int{0}, []int{15})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, CaptureMagicV1)
	var recs []CaptureRecord
	info, err := ReadCapture(bytes.NewReader(data), func(r CaptureRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("version = %d, want 1", info.Version)
	}
	if len(recs) != 2 || recs[0].Op != OpAdd || recs[0].Value != 5 || recs[1].Op != OpRangeSum {
		t.Fatalf("v1 records = %+v", recs)
	}
	// An unrelated magic is still rejected.
	copy(data, "DDCWKLD9")
	if _, err := ReadCapture(bytes.NewReader(data), nil); !errors.Is(err, ErrBadCapture) {
		t.Fatalf("bad magic err = %v, want ErrBadCapture", err)
	}
}
