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

	t := &Table{
		Title: fmt.Sprintf("Box update cost by volume (d=%d, n=%d, per RangeAdd)", d, n),
		Headers: []string{"box side", "box cells", "lazy cells", "lazy ns/op",
			"per-cell cells", "per-cell ns/op"},
	}
	lazyNs := make([]float64, 0, len(sides))
	lazyCells := make([]uint64, 0, len(sides))
	for _, side := range sides {
		lo := make(grid.Point, d)
		hi := make(grid.Point, d)
		vol := 1
		for i := range lo {
			lo[i] = (n - side) / 2
			hi[i] = lo[i] + side - 1
			vol *= side
		}

		// Lazy path: alternating +1/-1 keeps the pending list at one box,
		// so each rep measures a single O(d) RangeAdd, not list growth.
		// The previous side's per-cell loop leaves garbage; settle the
		// collector first so its cycle does not land inside this
		// sub-millisecond window and get timed as RangeAdd cost.
		lazy.ResetOps()
		const reps = 4000
		runtime.GC()
		start := time.Now()
		for i := 0; i < reps; i++ {
			delta := int64(1)
			if i%2 == 1 {
				delta = -1
			}
			if err := lazy.RangeAdd(lo, hi, delta); err != nil {
				return err
			}
		}
		perOpNs := float64(time.Since(start).Nanoseconds()) / reps
		cellsPerOp := lazy.Ops().UpdateCells / reps
		lazyNs = append(lazyNs, perOpNs)
		lazyCells = append(lazyCells, cellsPerOp)

		// Per-cell loop: the brute-force equivalent, one point update per
		// covered cell (amortized over fewer reps as the box grows).
		loopReps := 40000 / vol
		if loopReps < 1 {
			loopReps = 1
		}
		loop.ResetOps()
		start = time.Now()
		for i := 0; i < loopReps; i++ {
			delta := int64(1)
			if i%2 == 1 {
				delta = -1
			}
			grid.ForEachInBox(lo, hi, func(p grid.Point) {
				_ = loop.Add(p, delta)
			})
		}
		loopPerOpNs := float64(time.Since(start).Nanoseconds()) / float64(loopReps)
		loopCells := loop.Ops().UpdateCells / uint64(loopReps)

		t.AddRow(side, vol, cellsPerOp, perOpNs, loopCells, loopPerOpNs)
	}
	lazy.FlushPending()

	// The guard. Cells touched is deterministic: exactly one bookkeeping
	// cell per lazy RangeAdd at every volume. Latency is measured, so
	// re-check with a tolerance of 2x between the cheapest and the most
	// expensive volume.
	for i, c := range lazyCells {
		if c != lazyCells[0] {
			return fmt.Errorf("rangeaddcost d=%d: lazy cells touched varies with volume (%v)", d, lazyCells)
		}
		if i > 0 && (lazyNs[i] > 2*lazyNs[0] || lazyNs[0] > 2*lazyNs[i]) {
			// One retry absorbs scheduler noise before declaring failure.
			if retry := remeasureLazy(lazy, sides[i], sides[0]); retry > 2 {
				return fmt.Errorf("rangeaddcost d=%d: lazy latency ratio %.2f between side %d and side %d exceeds 2x",
					d, retry, sides[i], sides[0])
			}
		}
	}
	t.Notes = []string{"per-cell cost equals the box volume times the tree update cost; the lazy path is flat",
		"guard: lazy cells touched must be constant and latency within 2x across volumes"}
	return t.Render(w)
}

// remeasureLazy re-times a lazy RangeAdd at two box sides back to back
// and returns the larger/smaller latency ratio — a second opinion when
// the first measurement trips the 2x guard.
func remeasureLazy(t *core.Tree, sideA, sideB int) float64 {
	measure := func(side int) float64 {
		d := len(t.Dims())
		n := t.Dims()[0]
		lo := make(grid.Point, d)
		hi := make(grid.Point, d)
		for i := range lo {
			lo[i] = (n - side) / 2
			hi[i] = lo[i] + side - 1
		}
		const reps = 20000
		runtime.GC()
		start := time.Now()
		for i := 0; i < reps; i++ {
			delta := int64(1)
			if i%2 == 1 {
				delta = -1
			}
			_ = t.RangeAdd(lo, hi, delta)
		}
		return float64(time.Since(start).Nanoseconds()) / reps
	}
	a := measure(sideA)
	b := measure(sideB)
	if a < b {
		a, b = b, a
	}
	if b == 0 {
		return 1
	}
	return a / b
}
