package main

import (
	"fmt"

	"ddc"
)

// ingest: ddc.Buffered with default options (1 ms flush interval,
// MaxDelta 256, merger on) over a 256x256 dense DynamicCube that fits
// in cache. Writes dominate; the delta front, background drains and
// core's AddBatch and pending-box paths do the work. HTTP and the store
// are bypassed.
var ingest = &bench{
	spec: spec{
		name: "ingest", side: 256, rate: 500000,
		// 1/8 reads (1 op in 128 a dashboard batch), 1/64 range adds
		// from the pool, the rest Zipf-skewed point adds.
		mix:  mix{read: 120, batch: 8, rangeAdd: 16},
		zipf: 1.2,
	},
	setupReps:  3,
	spansPerOp: 1,
	setup:      func(st *stream, _ *tracer) (sut, error) { return newBufferedSUT(st) },
	rungs:      ingestRungs,
	layers:     ingestLayers,
}

func newBufferedSUT(st *stream) (*bufferedSUT, error) {
	c, err := ddc.BuildDynamic(st.dimsSlice(), st.initial, ddc.Options{})
	if err != nil {
		return nil, err
	}
	b := ddc.NewBuffered(c, ddc.BufferedOptions{})
	return &bufferedSUT{cubeTarget: cubeTarget{b, st.dash}, b: b, c: c}, nil
}

// bufferedSUT is a Buffered front over a DynamicCube. depth sums the
// delta depth each read met, when sampled.
type bufferedSUT struct {
	cubeTarget
	b     *ddc.Buffered
	c     *ddc.DynamicCube
	depth float64
}

// finish drains the front, so the pending check sees every box.
func (s *bufferedSUT) finish() error {
	if err := s.b.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return checkPending(s.c.PendingBoxes())
}

func (s *bufferedSUT) close() error { return s.b.Close() }

// ingestRungs are the bare DynamicCube below the front, and a second
// front whose delta depth is sampled before every read, outside the
// timed window.
func ingestRungs(st *stream) []*rung {
	var depth *bufferedSUT
	return []*rung{
		{name: "cube", build: func() (sut, error) {
			c, err := ddc.BuildDynamic(st.dimsSlice(), st.initial, ddc.Options{})
			if err != nil {
				return nil, err
			}
			return &cubeSUT{cubeTarget{c, st.dash}, c}, nil
		}},
		{name: "depth",
			build: func() (sut, error) {
				s, err := newBufferedSUT(st)
				depth = s
				return s, err
			},
			before: func(_ int, o *op) {
				if o.kind == opRead {
					depth.depth += float64(depth.b.DeltaDepth())
				}
			},
		},
	}
}

func ingestLayers(st *stream, rs map[string]*rung, m metrics) error {
	e2e := rs["e2e"].sys.(*bufferedSUT)
	s := e2e.b.Stats()
	n := counts(st.ops)
	drains := float64(s.Drains)
	m.set("core.pending_boxes", float64(e2e.c.PendingBoxes()), "count")
	m.set("buffered.read_tax_us", rs["e2e"].run.stats(opRead).p50-rs["cube"].run.stats(opRead).p50, "us")
	m.set("buffered.write_us", rs["e2e"].run.stats(opAdd, opRangeAdd).p50, "us")
	m.set("buffered.drains_per_kop", drains/(float64(len(st.ops))/1e3), "count")
	m.set("buffered.coalesce_ratio", float64(s.Coalesced)/float64(s.BufferedOps), "ratio")
	m.set("buffered.points_per_drain", float64(s.DrainedPoints)/drains, "count")
	m.set("buffered.delta_depth_at_read", rs["depth"].sys.(*bufferedSUT).depth/float64(n[opRead]), "count")
	return nil
}
