package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ddc/internal/grid"
)

// Golden format fixtures: testdata/golden-wkld1.bin (DDCWKLD1) and
// testdata/golden-wkld2.bin (DDCWKLD2, every op kind) were written once
// under a fixed clock and are never regenerated. ReadCapture must decode
// each to its record list, and the current writer must re-emit the v2
// stream byte for byte.

var goldenDims = []int{16, 16}

// goldenBase is the fixed clock's epoch; the clock advances 1 ms per
// reading, the header takes the first reading and record i the
// (i+2)-th.
var goldenBase = time.Unix(1700000000, 0)

func goldenAt(i int) int64 {
	return goldenBase.Add(time.Duration(i+2) * time.Millisecond).UnixNano()
}

// goldenCapture writes the DDCWKLD2 fixture's records (rangeadd
// included when withRange) through the current writer and returns the
// file bytes.
func goldenCapture(t *testing.T, withRange bool) []byte {
	t.Helper()
	n := 0
	clock := func() time.Time {
		n++
		return goldenBase.Add(time.Duration(n) * time.Millisecond)
	}
	path := filepath.Join(t.TempDir(), "golden.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: goldenDims, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{5, 7}, 100)
	c.Set([]int{0, 15}, -3)
	c.Prefix([]int{9, 9})
	c.RangeSum([]int{1, 2}, []int{14, 15})
	c.Batch([]Query{
		{Lo: []int{0, 0}, Hi: []int{7, 7}},
		{Lo: []int{8, 0}, Hi: []int{15, 7}},
	})
	if withRange {
		c.RangeAdd([]int{2, 3}, []int{4, 9}, -(1 << 33))
	}
	c.Add([]int{15, 0}, -1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenRecords is the decoded form of goldenCapture's stream.
func goldenRecords(withRange bool) []CaptureRecord {
	recs := []CaptureRecord{
		{Op: OpAdd, Point: grid.Point{5, 7}, Value: 100},
		{Op: OpSet, Point: grid.Point{0, 15}, Value: -3},
		{Op: OpPrefix, Point: grid.Point{9, 9}},
		{Op: OpRangeSum, Lo: grid.Point{1, 2}, Hi: grid.Point{14, 15}},
		{Op: OpBatch, Batch: []Query{
			{Lo: grid.Point{0, 0}, Hi: grid.Point{7, 7}},
			{Lo: grid.Point{8, 0}, Hi: grid.Point{15, 7}},
		}},
	}
	if withRange {
		recs = append(recs, CaptureRecord{Op: OpRangeAdd, Lo: grid.Point{2, 3}, Hi: grid.Point{4, 9}, Value: -(1 << 33)})
	}
	recs = append(recs, CaptureRecord{Op: OpAdd, Point: grid.Point{15, 0}, Value: -1})
	for i := range recs {
		recs[i].At = goldenAt(i)
	}
	return recs
}

func TestGoldenCaptureDecodes(t *testing.T) {
	cases := []struct {
		file      string
		version   int
		withRange bool
		updates   int
	}{
		{"golden-wkld1.bin", 1, false, 3},
		{"golden-wkld2.bin", 2, true, 4},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var got []CaptureRecord
			info, err := ReadCapture(bytes.NewReader(data), func(r CaptureRecord) error {
				got = append(got, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := goldenRecords(tc.withRange)
			wantInfo := CaptureInfo{
				Dims: goldenDims, Version: tc.version, SampleN: 1,
				Base:    goldenBase.Add(time.Millisecond).UnixNano(),
				Records: len(want), Updates: tc.updates, Queries: 3,
			}
			if !reflect.DeepEqual(info, wantInfo) {
				t.Fatalf("info = %+v, want %+v", info, wantInfo)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("records = %+v, want %+v", got, want)
			}
		})
	}
}

func TestGoldenCaptureWriterReemits(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-wkld2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenCapture(t, true); !bytes.Equal(got, want) {
		t.Fatalf("DDCWKLD2 writer drifted from the fixture:\n got %x\nwant %x", got, want)
	}
}
