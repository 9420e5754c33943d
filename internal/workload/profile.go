package workload

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
)

// Offline workload profile: what a captured workload asks of a cube,
// not how fast it ran — computed exactly from a capture's records
// (ddcbench -replay prints it). Four views:
//
//   - the read/write mix, with the header's query sampling rate;
//   - a coarse heatmap over the header's domain [0, dims-1], side
//     2^(12/d) cells per dimension (at most 4096 cells at any d), with
//     separate read and write planes. A query box or box update heats
//     the cell holding its centre, a point the cell holding it;
//     coordinates outside the domain clamp to the edge cells;
//   - per-dimension box-extent and box-volume log2 histograms, bucket i
//     counting values of bit length i;
//   - the most frequent query boxes, exactly counted.
//
// Every query box counts as one read: a prefix query as the one-cell box
// at its point, each box of a batch on its own.

// heavyHitterCount is how many of the most frequent query boxes a
// Profile lists.
const heavyHitterCount = 16

// Profile is the offline profile of a capture's records.
type Profile struct {
	// SampleN is the header's query sampling rate: Reads counts the
	// query boxes the capture kept, about 1 in SampleN of those served.
	// Every update is captured.
	SampleN int    `json:"sample_queries"`
	Reads   uint64 `json:"reads"`
	Writes  uint64 `json:"writes"`

	Heatmap Heatmap `json:"heatmap"`

	// ExtentLog2[i] is dimension i's query box extent histogram and
	// VolumeLog2 the box volume (cell count) histogram, each trimmed to
	// its last non-zero bucket (nil when empty).
	ExtentLog2 [][]uint64 `json:"extent_log2"`
	VolumeLog2 []uint64   `json:"volume_log2"`

	// HeavyHitters are the heavyHitterCount most frequent query boxes,
	// highest count first, ties in order of first appearance.
	HeavyHitters []HeavyHitter `json:"heavy_hitters"`
}

// Heatmap holds the read and write planes flattened dim-0-major: cell
// [c0, c1, ...] is at index c0*Grid^(d-1) + c1*Grid^(d-2) + ...
type Heatmap struct {
	Grid  int      `json:"grid"`
	Lo    []int    `json:"lo"`
	Hi    []int    `json:"hi"`
	Read  []uint64 `json:"read"`
	Write []uint64 `json:"write"`
}

// HeavyHitter is one query box and how many times the capture holds it.
type HeavyHitter struct {
	Lo    []int  `json:"lo"`
	Hi    []int  `json:"hi"`
	Count uint64 `json:"count"`
}

// heatGridSide is the heatmap's cells per dimension for a d-dimensional
// domain: the largest power of two g with g^d <= 4096.
func heatGridSide(d int) int { return 1 << uint(12/d) }

// ProfileRecords profiles a capture's records; info is the capture's
// header summary (ReadCapture's result).
func ProfileRecords(info CaptureInfo, recs []CaptureRecord) Profile {
	d := len(info.Dims)
	grid := heatGridSide(d)
	cells := 1
	for range info.Dims {
		cells *= grid
	}
	p := Profile{
		SampleN: info.SampleN,
		Heatmap: Heatmap{
			Grid:  grid,
			Lo:    make([]int, d),
			Hi:    make([]int, d),
			Read:  make([]uint64, cells),
			Write: make([]uint64, cells),
		},
	}
	for i, n := range info.Dims {
		p.Heatmap.Hi[i] = n - 1
	}
	// cellOf returns the flat heatmap cell holding the centre of [lo, hi].
	cellOf := func(lo, hi []int) int {
		idx := 0
		for i, n := range info.Dims {
			idx = idx*grid + heatCell(lo[i]+(hi[i]-lo[i])/2, n, grid)
		}
		return idx
	}
	extents := make([][65]uint64, d)
	var volume [65]uint64
	type boxCount struct {
		lo, hi []int
		count  uint64
	}
	var boxes []boxCount
	index := map[string]int{}
	var key []byte
	read := func(lo, hi []int) {
		p.Reads++
		p.Heatmap.Read[cellOf(lo, hi)]++
		vol := uint64(1)
		for i := range lo {
			ext := uint64(1)
			if hi[i] >= lo[i] {
				ext = uint64(hi[i] - lo[i] + 1)
			}
			extents[i][bits.Len64(ext)]++
			if h, l := bits.Mul64(vol, ext); h == 0 {
				vol = l
			} else {
				vol = math.MaxUint64
			}
		}
		volume[bits.Len64(vol)]++
		key = key[:0]
		for _, v := range lo {
			key = binary.AppendVarint(key, int64(v))
		}
		for _, v := range hi {
			key = binary.AppendVarint(key, int64(v))
		}
		if j, ok := index[string(key)]; ok {
			boxes[j].count++
			return
		}
		index[string(key)] = len(boxes)
		boxes = append(boxes, boxCount{lo: lo, hi: hi, count: 1})
	}
	for _, rec := range recs {
		if m, ok := rec.Mutation(); ok {
			p.Writes++
			hi := m.Hi
			if !m.Kind.Box() {
				hi = m.Lo
			}
			p.Heatmap.Write[cellOf(m.Lo, hi)]++
			continue
		}
		switch rec.Op {
		case OpPrefix:
			read(rec.Point, rec.Point)
		case OpRangeSum:
			read(rec.Lo, rec.Hi)
		case OpBatch:
			for _, q := range rec.Batch {
				read(q.Lo, q.Hi)
			}
		}
	}
	p.ExtentLog2 = make([][]uint64, d)
	for i := range extents {
		p.ExtentLog2[i] = trimLog2(extents[i][:])
	}
	p.VolumeLog2 = trimLog2(volume[:])
	// A stable sort keeps ties in order of first appearance.
	sort.SliceStable(boxes, func(i, j int) bool { return boxes[i].count > boxes[j].count })
	p.HeavyHitters = make([]HeavyHitter, min(len(boxes), heavyHitterCount))
	for i := range p.HeavyHitters {
		b := boxes[i]
		p.HeavyHitters[i] = HeavyHitter{Lo: append([]int(nil), b.lo...), Hi: append([]int(nil), b.hi...), Count: b.count}
	}
	return p
}

// heatCell maps coordinate v of a dimension spanning [0, n-1] onto one
// of grid cells, floor(v * grid / n), clamping coordinates outside the
// dimension to the edge cells. The product is taken in 128 bits, so no
// header extent can overflow it.
func heatCell(v, n, grid int) int {
	switch {
	case v <= 0:
		return 0
	case v >= n:
		return grid - 1
	}
	hi, lo := bits.Mul64(uint64(v), uint64(grid))
	q, _ := bits.Div64(hi, lo, uint64(n))
	return int(q)
}

// trimLog2 copies a log2 histogram up to its last non-zero bucket, or
// returns nil when it is empty.
func trimLog2(buckets []uint64) []uint64 {
	top := len(buckets)
	for top > 0 && buckets[top-1] == 0 {
		top--
	}
	if top == 0 {
		return nil
	}
	return append([]uint64(nil), buckets[:top]...)
}
