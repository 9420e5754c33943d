package core

import (
	"strings"
	"testing"

	"ddc/internal/grid"
	"ddc/internal/workload"
)

func TestInvariantsEmptyAndBasic(t *testing.T) {
	tr, err := NewWithConfig([]int{8, 8}, Config{Tile: 1, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("empty tree: %v", err)
	}
	if err := tr.Set(grid.Point{3, 5}, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after one set: %v", err)
	}
}

func TestInvariantsAfterRandomOps(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		n := []int{64, 16, 8}[d-1]
		tr, err := NewWithConfig(dimsOf(d, n), Config{Tile: 2, Fanout: 3})
		if err != nil {
			t.Fatal(err)
		}
		r := workload.NewRNG(uint64(d))
		for i := 0; i < 80; i++ {
			p := make(grid.Point, d)
			for j := range p {
				p[j] = r.Intn(n)
			}
			if i%2 == 0 {
				if err := tr.Add(p, r.Int63n(40)-20); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tr.Set(p, r.Int63n(40)-20); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestInvariantsAfterGrowthAndMaterialize(t *testing.T) {
	tr, err := NewWithConfig([]int{8, 8}, Config{Tile: 1, Fanout: 3, AutoGrow: true})
	if err != nil {
		t.Fatal(err)
	}
	r := workload.NewRNG(4)
	for _, u := range workload.Expanding(r, 2, 60, 0.7, 20) {
		if err := tr.Add(u.Point, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	// Delegating boxes must pass (their groups are skipped but subtotals
	// checked).
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("grown: %v", err)
	}
	tr.Materialize()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("materialized: %v", err)
	}
	// More updates after materialisation must keep everything in sync.
	for _, u := range workload.Expanding(r, 2, 30, 0.3, 20) {
		if err := tr.Add(u.Point, u.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("post-materialize updates: %v", err)
	}
}

func TestInvariantsBulkBuild(t *testing.T) {
	a := randomArray(t, []int{8, 8, 4}, 77)
	tr, err := BuildFromArray(a, Config{Tile: 2, Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsDetectCorruption corrupts the arena three ways — a box
// record's subtotal, one flat group cell, and a box ref aliased onto
// another box's cells — and requires CheckInvariants to name each.
func TestInvariantsDetectCorruption(t *testing.T) {
	build := func(backend string) *Tree {
		t.Helper()
		tr, err := NewWithConfig([]int{8, 8}, Config{Tile: 1, Fanout: 3, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []grid.Point{{2, 2}, {5, 1}, {1, 6}, {6, 6}} {
			if err := tr.Set(p, 5); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("before corruption: %v", err)
		}
		return tr
	}
	rootBoxes := func(tr *Tree) []boxRec {
		return tr.ar.boxes.region(tr.node(tr.root).box, 0, 4)
	}
	expect := func(tr *Tree, what, want string) {
		t.Helper()
		err := tr.CheckInvariants()
		if err == nil {
			t.Fatalf("%s: corruption not detected", what)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: unexpected error: %v", what, err)
		}
	}

	// A root box record's subtotal.
	tr := build("")
	for i, b := range rootBoxes(tr) {
		if b.kind != boxAbsent {
			rootBoxes(tr)[i].sub += 3
			break
		}
	}
	expect(tr, "subtotal", "subtotal")

	// One cell of a flat group: the first in-block prefix of group 0,
	// which the group's prefix at key 0 reads.
	tr = build("blocked")
	b := rootBoxes(tr)[0]
	if b.kind != boxFlat {
		t.Fatalf("blocked root box kind %d, want flat", b.kind)
	}
	tr.ar.cells.region(b.ref, 0, 1)[0]++
	expect(tr, "flat cell", "group 0 prefix")

	// Two boxes sharing one cells region.
	tr = build("blocked")
	bs := rootBoxes(tr)
	bs[3].ref = bs[0].ref
	expect(tr, "aliased ref", "overlap")
}

func dimsOf(d, n int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = n
	}
	return out
}
