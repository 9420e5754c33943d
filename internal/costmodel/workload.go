// Workload-driven cost inputs: the paper's cost formulas describe the
// worst case for a given (n, d); a live system also knows what traffic
// it actually serves. WorkloadProfile carries the observed profile (the
// read/write mix, the query-shape histograms and the dimension-0 heat
// marginal from the workload collectors) into the cost layer so the
// consumers the ROADMAP plans — the greedy view materializer driven by
// query frequencies and the shard rebalancer driven by per-region
// heat — take measured inputs instead of assumptions.
package costmodel

import "ddc/internal/psum"

// WorkloadProfile is an observed workload summary, shaped to be filled
// directly from a workload snapshot (ddc.Telemetry.WorkloadProfile).
type WorkloadProfile struct {
	// Reads and Writes are the profiled operation counts.
	Reads  uint64
	Writes uint64
	// ExtentLog2[i] is the query box-extent histogram of dimension i:
	// bucket b counts boxes whose extent has bit length b (extent in
	// [2^(b-1), 2^b)).
	ExtentLog2 [][]uint64
	// VolumeLog2 is the box-volume histogram, bucketed the same way.
	VolumeLog2 []uint64
	// Dim0Heat is the read-plane heat marginal along dimension 0 — the
	// per-region query pressure a slab partitioner balances against.
	Dim0Heat []uint64
}

// Total returns the profiled operation count.
func (p WorkloadProfile) Total() uint64 { return p.Reads + p.Writes }

// ReadFraction returns reads / (reads + writes), 0 for an empty
// profile.
func (p WorkloadProfile) ReadFraction() float64 {
	if t := p.Total(); t > 0 {
		return float64(p.Reads) / float64(t)
	}
	return 0
}

// Empty reports whether the profile saw no operations.
func (p WorkloadProfile) Empty() bool { return p.Total() == 0 }

// writeHeavyThreshold is the read fraction below which the update-
// optimised backend wins: the backend study (DESIGN.md §11, BENCH_pr6)
// shows blockfenwick's Fenwick-over-blocks updates overtake blocked's
// suffix rewrites once writes dominate roughly 2-to-1.
const writeHeavyThreshold = 1.0 / 3.0

// RecommendBackend maps an observed profile onto a prefix-sum backend
// for the B_c slot: an empty profile keeps the default (psum.ParseKind
// of ""); a write-dominant mix (read fraction under 1/3) picks
// "blockfenwick"; everything else picks "blocked", which won every
// query tier of the backend matrix. The returned string is a canonical
// psum kind name.
func RecommendBackend(p WorkloadProfile) string {
	switch {
	case p.Empty():
		def, _ := psum.ParseKind("")
		return string(def)
	case p.ReadFraction() < writeHeavyThreshold:
		return "blockfenwick"
	default:
		return "blocked"
	}
}

// HotSlabs partitions the dimension-0 heat marginal into n contiguous
// slabs of approximately equal cumulative heat — the shard-boundary
// proposal a rebalancer would apply. The result has up to n entries of
// [start, end) cell-index pairs covering the marginal in order; a cold
// (all-zero) or empty marginal yields one slab per equal-width split.
// Boundaries are greedy: each slab closes once it holds at least
// total/n heat, so later slabs absorb the remainder.
func HotSlabs(heat []uint64, n int) [][2]int {
	if len(heat) == 0 || n < 1 {
		return nil
	}
	if n > len(heat) {
		n = len(heat)
	}
	var total uint64
	for _, h := range heat {
		total += h
	}
	if total == 0 {
		// No signal: equal-width slabs.
		out := make([][2]int, 0, n)
		width := (len(heat) + n - 1) / n
		for lo := 0; lo < len(heat); lo += width {
			hi := lo + width
			if hi > len(heat) {
				hi = len(heat)
			}
			out = append(out, [2]int{lo, hi})
		}
		return out
	}
	out := make([][2]int, 0, n)
	target := total / uint64(n)
	if target == 0 {
		target = 1
	}
	start := 0
	var acc uint64
	for i, h := range heat {
		acc += h
		remainingSlabs := n - len(out)
		remainingCells := len(heat) - i - 1
		if (acc >= target && remainingSlabs > 1) || remainingCells < remainingSlabs-1 {
			out = append(out, [2]int{start, i + 1})
			start = i + 1
			acc = 0
			if len(out) == n-1 {
				break
			}
		}
	}
	if start < len(heat) {
		out = append(out, [2]int{start, len(heat)})
	}
	return out
}
