package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ddc"
)

// Golden format fixture: testdata/golden-ckpt1.ckpt is a DDCCKPT1
// checkpoint of a small cube that grew past its initial 4x4 domain in
// both directions. It was written once and is never regenerated: Open
// must recover the cube its mutation list builds, and the current
// checkpoint writer must re-emit it byte for byte.

var goldenCkptOpts = Options{
	Dims:                  []int{4, 4},
	Cube:                  ddc.Options{Tile: 4, AutoGrow: true}, // the fixture was written at tile 4
	DisableAutoCheckpoint: true,
	NoSync:                true,
}

// goldenCkptMuts grows the domain (a far corner, then negative
// coordinates) and mixes in a set and an in-bounds box update.
var goldenCkptMuts = []mut{
	{p: []int{1, 2}, v: 5},
	{p: []int{9, 6}, v: 100},
	{p: []int{-3, 1}, v: -40},
	{set: true, p: []int{0, 0}, v: 7},
	{p: []int{0, 0}, hi: []int{2, 2}, v: 3},
	{p: []int{9, 6}, v: 1 << 35},
}

// goldenCube applies goldenCkptMuts to a fresh auto-growing cube.
func goldenCube(t *testing.T) *ddc.DynamicCube {
	t.Helper()
	c, err := ddc.NewDynamicWithOptions(goldenCkptOpts.Dims, goldenCkptOpts.Cube)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goldenCkptMuts {
		var err error
		switch {
		case m.hi != nil:
			err = c.RangeAdd(m.p, m.hi, m.v)
		case m.set:
			err = c.Set(m.p, m.v)
		default:
			err = c.Add(m.p, m.v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestGoldenCheckpointRecovers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden-ckpt1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.ckpt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if r := s.Recovery(); r.SnapshotSeq != 1 || r.Records != 0 {
		t.Fatalf("recovery = %+v, want snapshot 1 and no records", r)
	}
	got, want := s.Cube(), goldenCube(t)
	// Opened with no cube options, the file keeps the tile it was
	// written at, whatever the default.
	if tile := got.Options().Tile; tile != want.Options().Tile {
		t.Fatalf("recovered tile = %d, want the fixture's %d", tile, want.Options().Tile)
	}
	glo, ghi := got.Bounds()
	wlo, whi := want.Bounds()
	if !slices.Equal(glo, wlo) || !slices.Equal(ghi, whi) {
		t.Fatalf("bounds = %v..%v, want %v..%v", glo, ghi, wlo, whi)
	}
	for x := wlo[0]; x <= whi[0]; x++ {
		for y := wlo[1]; y <= whi[1]; y++ {
			p := []int{x, y}
			if got.Get(p) != want.Get(p) {
				t.Fatalf("cell %v = %d, want %d", p, got.Get(p), want.Get(p))
			}
		}
	}
	if tot := got.Total(); tot != 1<<35+99 {
		t.Fatalf("total = %d, want %d", tot, int64(1<<35+99))
	}
}

func TestGoldenCheckpointWriterReemits(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-ckpt1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir, goldenCkptOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goldenCkptMuts {
		apply(t, s, m)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "snap-00000001.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("DDCCKPT1 writer drifted from the fixture:\n got %x\nwant %x", got, want)
	}
}
