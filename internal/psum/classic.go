package psum

import "ddc/internal/bctree"

// classic adapts the paper-exact Cumulative B Tree (internal/bctree,
// Section 4.1) to the Backend interface. It is sparse — absent keys
// cost nothing — and is the paper-exact reference: its storage is
// proportional to the nonzero keys, where the flat layouts pay for the
// universe. The default (auto) starts every group in this layout.
type classic struct {
	tr *bctree.Tree
	m  int // universe (advisory: the B-tree itself is unbounded)
}

func newClassic(universe, fanout int) classic {
	if fanout == 0 {
		fanout = bctree.DefaultFanout
	}
	if universe < 1 {
		universe = 1 // match the flat layouts' minimum key space
	}
	return classic{tr: bctree.NewWithFanout(fanout), m: universe}
}

func classicFromSlice(values []int64, fanout int) classic {
	if fanout == 0 {
		fanout = bctree.DefaultFanout
	}
	m := len(values)
	if m < 1 {
		m = 1
	}
	return classic{tr: bctree.FromSlice(values, fanout), m: m}
}

func (c *classic) PrefixSum(key int) int64 {
	v, _ := c.tr.PrefixSumVisits(key)
	return v
}

func (c *classic) PrefixSumVisits(key int) (int64, uint64) {
	return c.tr.PrefixSumVisits(key)
}

func (c *classic) Add(key int, delta int64) uint64 {
	before := c.tr.NodeVisits
	c.tr.Add(key, delta)
	return c.tr.NodeVisits - before
}

func (c *classic) Get(key int) int64 { return c.tr.Get(key) }
func (c *classic) Total() int64      { return c.tr.Total() }
func (c *classic) Universe() int     { return c.m }

// Grow only widens the advisory bound: the sparse B-tree accepts any
// key already.
func (c *classic) Grow(newUniverse int) {
	if newUniverse > c.m {
		c.m = newUniverse
	}
}

// Len counts nonzero keys. The B-tree retains keys whose values have
// cancelled back to zero, so this filters rather than using tr.Len —
// all backends must agree on the logical contents.
func (c *classic) Len() int {
	n := 0
	c.tr.ForEach(func(_ int, v int64) {
		if v != 0 {
			n++
		}
	})
	return n
}

func (c *classic) StorageCells() int { return c.tr.StorageCells() }

func (c *classic) ForEach(fn func(key int, value int64)) {
	c.tr.ForEach(func(k int, v int64) {
		if v != 0 {
			fn(k, v)
		}
	})
}

func (c *classic) Kind() Kind { return Classic }
