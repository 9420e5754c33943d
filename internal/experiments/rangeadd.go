package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ddc/internal/core"
	"ddc/internal/grid"
	"ddc/internal/workload"
)

func init() {
	register("rangeaddcost", "Box update cost vs box volume (lazy RangeAdd vs per-cell loop)", RangeAddCost)
}

// RangeAddCost measures how the cost of adding a delta to every cell of
// a box scales with the box volume, at d=2 and d=3. The per-cell loop
// (the only option for the baseline methods) pays one tree update per
// covered cell, so its cost is linear in the volume; the lazy pending-
// box path records O(d) bookkeeping regardless of volume, the range-
// update analogue of the paper's volume-independent range query. The
// experiment is also CI's smoke guard: it fails if the lazy path's cost
// is not flat — cells touched exactly constant, latency within 2x —
// across volumes spanning three orders of magnitude.
func RangeAddCost(w io.Writer) error {
	for _, cfg := range []struct {
		d     int
		n     int
		sides []int
	}{
		{d: 2, n: 512, sides: []int{4, 16, 64, 256, 512}},
		{d: 3, n: 64, sides: []int{2, 8, 16, 32, 64}},
	} {
		if err := rangeAddCostDim(w, cfg.d, cfg.n, cfg.sides); err != nil {
			return err
		}
	}
	return nil
}

func rangeAddCostDim(w io.Writer, d, n int, sides []int) error {
	dd := dims(d, n)
	lazy, err := core.NewWithConfig(dd, core.Config{})
	if err != nil {
		return err
	}
	loop, err := core.NewWithConfig(dd, core.Config{})
	if err != nil {
		return err
	}
	// A realistic non-empty cube: the update cost being measured is on
	// top of existing data, not a degenerate empty tree.
	r := workload.NewRNG(11)
	for i := 0; i < 2000; i++ {
		p := make(grid.Point, d)
		for j := range p {
			p[j] = r.Intn(n)
		}
		_ = lazy.Add(p, r.Int63n(50))
		_ = loop.Add(p, r.Int63n(50))
	}

	// The centred box of each side.
	los := make([]grid.Point, len(sides))
	his := make([]grid.Point, len(sides))
	vols := make([]int, len(sides))
	for k, side := range sides {
		los[k], his[k], vols[k] = make(grid.Point, d), make(grid.Point, d), 1
		for i := range los[k] {
			los[k][i] = (n - side) / 2
			his[k][i] = los[k][i] + side - 1
			vols[k] *= side
		}
	}

	// The guard's deterministic half first: exactly one bookkeeping cell
	// per lazy RangeAdd at every volume, counted on one +1/-1 pair per
	// side. A RangeAdd that walks the box fails here, before the timed
	// rounds would run it lazyRounds*lazyReps times per side.
	lazyCells := make([]uint64, len(sides))
	for k := range sides {
		lazy.ResetOps()
		for _, delta := range []int64{1, -1} {
			if err := lazy.RangeAdd(los[k], his[k], delta); err != nil {
				return err
			}
		}
		if lazyCells[k] = lazy.Ops().UpdateCells / 2; lazyCells[k] != lazyCells[0] {
			return fmt.Errorf("rangeaddcost d=%d: lazy cells touched varies with volume (%v)", d, lazyCells[:k+1])
		}
	}

	// Lazy path: each side's latency is the minimum over lazyRounds
	// rounds, and every round times every side, so a burst of load from
	// outside lands in one round of one side and the minimum skips it.
	lazyNs := make([]float64, len(sides))
	for round := 0; round < lazyRounds; round++ {
		for k := range sides {
			ns, err := timeLazy(lazy, los[k], his[k])
			if err != nil {
				return err
			}
			if round == 0 || ns < lazyNs[k] {
				lazyNs[k] = ns
			}
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Box update cost by volume (d=%d, n=%d, per RangeAdd)", d, n),
		Headers: []string{"box side", "box cells", "lazy cells", "lazy ns/op",
			"per-cell cells", "per-cell ns/op"},
	}
	for k, side := range sides {
		// Per-cell loop: the brute-force equivalent, one point update per
		// covered cell (amortized over fewer reps as the box grows).
		loopReps := max(1, 40000/vols[k])
		loop.ResetOps()
		start := time.Now()
		for i := 0; i < loopReps; i++ {
			delta := int64(1)
			if i%2 == 1 {
				delta = -1
			}
			grid.ForEachInBox(los[k], his[k], func(p grid.Point) {
				_ = loop.Add(p, delta)
			})
		}
		loopPerOpNs := float64(time.Since(start).Nanoseconds()) / float64(loopReps)
		loopCells := loop.Ops().UpdateCells / uint64(loopReps)

		t.AddRow(side, vols[k], lazyCells[k], lazyNs[k], loopCells, loopPerOpNs)
	}
	lazy.FlushPending()

	// The guard's measured half: latency within 2x between the cheapest
	// and the most expensive volume.
	for k := range sides {
		if ratio := max(lazyNs[k], lazyNs[0]) / min(lazyNs[k], lazyNs[0]); ratio > 2 {
			return fmt.Errorf("rangeaddcost d=%d: lazy latency ratio %.2f between side %d and side %d exceeds 2x",
				d, ratio, sides[k], sides[0])
		}
	}
	t.Notes = []string{"per-cell cost equals the box volume times the tree update cost; the lazy path is flat",
		"guard: lazy cells touched must be constant and latency within 2x across volumes"}
	return t.Render(w)
}

// lazyRounds is how many interleaved rounds time each box side's lazy
// RangeAdd; the guard reads the fastest.
const lazyRounds = 5

// lazyReps is the number of RangeAdds one timing of one side runs.
const lazyReps = 4000

// timeLazy times lazyReps lazy RangeAdds of the box [lo, hi] on t and
// returns the latency per RangeAdd. Alternating +1/-1 keeps the pending
// list at one box, so each rep measures a single O(d) RangeAdd, not
// list growth. The collector is settled first (the per-cell loop and
// earlier rounds leave garbage), so its cycle does not land inside this
// sub-millisecond window.
func timeLazy(t *core.Tree, lo, hi grid.Point) (float64, error) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < lazyReps; i++ {
		delta := int64(1)
		if i%2 == 1 {
			delta = -1
		}
		if err := t.RangeAdd(lo, hi, delta); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / lazyReps, nil
}
