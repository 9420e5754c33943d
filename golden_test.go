package ddc

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Golden format fixtures: testdata/golden-wal-v1.log (DDCWAL01) and
// testdata/golden-wal-v2.log (DDCWAL02) were written once and are never
// regenerated. Replay must decode each to the cube its mutation list
// builds, and the current writer must re-emit the v2 stream byte for
// byte — any change to the record layout, the framing or the opcodes
// fails here.

// goldenMut is one fixture mutation: a box update when hi is non-nil.
type goldenMut struct {
	set    bool
	lo, hi []int
	v      int64
}

var goldenWALDims = []int{8, 8}

// goldenWALV1 is the DDCWAL01 fixture's stream (point records only: the
// version-1 format predates range records).
var goldenWALV1 = []goldenMut{
	{lo: []int{1, 2}, v: 5},
	{set: true, lo: []int{3, 0}, v: -7},
	{lo: []int{7, 7}, v: 1 << 40},
	{set: true, lo: []int{1, 2}, v: 9},
	{lo: []int{0, 0}, v: -1},
}

// goldenWALV2 is the DDCWAL02 fixture's stream: point, set and range
// records interleaved.
var goldenWALV2 = []goldenMut{
	{lo: []int{1, 2}, v: 5},
	{set: true, lo: []int{3, 0}, v: -7},
	{lo: []int{0, 1}, hi: []int{2, 3}, v: 4},
	{lo: []int{7, 7}, v: 1 << 40},
	{set: true, lo: []int{1, 2}, v: 2},
	{lo: []int{5, 5}, hi: []int{7, 6}, v: -3},
	{lo: []int{0, 0}, v: -1},
}

// applyGolden applies ms to c through the Cube interface.
func applyGolden(t *testing.T, c Cube, ms []goldenMut) {
	t.Helper()
	for _, m := range ms {
		var err error
		switch {
		case m.hi != nil:
			err = c.RangeAdd(m.lo, m.hi, m.v)
		case m.set:
			err = c.Set(m.lo, m.v)
		default:
			err = c.Add(m.lo, m.v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// goldenWALStream writes ms through the current DDCWAL02 writer.
func goldenWALStream(t *testing.T, ms []goldenMut) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := NewWAL(mustNewDynamic(t, goldenWALDims), &b)
	if err != nil {
		t.Fatal(err)
	}
	applyGolden(t, w, ms)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenWALReplay(t *testing.T) {
	cases := []struct {
		file    string
		version int
		muts    []goldenMut
		total   int64
	}{
		{"golden-wal-v1.log", 1, goldenWALV1, 1<<40 + 1},
		{"golden-wal-v2.log", 2, goldenWALV2, 1<<40 + 8},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			c := mustNewDynamic(t, goldenWALDims)
			st, err := ReplayWALStats(bytes.NewReader(readGolden(t, tc.file)), c)
			if err != nil {
				t.Fatal(err)
			}
			if st.Version != tc.version || st.Applied != uint64(len(tc.muts)) || st.Torn {
				t.Fatalf("stats = %+v, want version %d, %d applied, no torn tail", st, tc.version, len(tc.muts))
			}
			want := mustNewDynamic(t, goldenWALDims)
			applyGolden(t, want, tc.muts)
			if !cubesEqual(c, want, goldenWALDims) {
				t.Fatal("replayed cube differs from the fixture's mutation list")
			}
			if c.Total() != tc.total {
				t.Fatalf("total = %d, want %d", c.Total(), tc.total)
			}
		})
	}
}

func TestGoldenWALWriterReemits(t *testing.T) {
	want := readGolden(t, "golden-wal-v2.log")
	if got := goldenWALStream(t, goldenWALV2); !bytes.Equal(got, want) {
		t.Fatalf("DDCWAL02 writer drifted from the fixture:\n got %x\nwant %x", got, want)
	}
}
