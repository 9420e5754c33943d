package main

import (
	"fmt"
	"time"

	"ddc"
	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/psum"
)

// olap-read: a large dense cube (1024x1024, ~69 MB live, far past L2)
// read through the default DynamicCube. Core descent and psum do nearly
// all the work; Buffered, store, handler and HTTP are bypassed.
var olapRead = &bench{
	spec: spec{
		name: "olap-read", side: 1024, rate: 34000,
		mix: mix{read: 819, batch: 102}, // 80% reads, 10% batches, 10% adds
	},
	setupReps:  1,
	spansPerOp: 1,
	setup: func(st *stream, _ *tracer) (sut, error) {
		c, err := ddc.BuildDynamic(st.dimsSlice(), st.initial, ddc.Options{})
		if err != nil {
			return nil, err
		}
		return &cubeSUT{cubeTarget{c, st.dash}, c}, nil
	},
	rungs:  olapRungs,
	layers: olapLayers,
}

// cubeSUT is any ddc.Cube under test; c, when set, is a DynamicCube
// whose pending list finish checks.
type cubeSUT struct {
	cubeTarget
	c *ddc.DynamicCube
}

func (s *cubeSUT) finish() error {
	if s.c == nil {
		return nil
	}
	return checkPending(s.c.PendingBoxes())
}

func (s *cubeSUT) close() error { return nil }

// checkPending fails a run whose core pending list outgrew the RangeAdd
// pool: identical boxes merge, so more than boxPool means the stream is
// no longer stationary.
func checkPending(n int) error {
	if n > boxPool {
		return fmt.Errorf("core pending boxes %d exceed the %d-box pool", n, boxPool)
	}
	return nil
}

// olapRungs are core.Tree below the DynamicCube, and the Synchronized
// and ShardedCube wrappers around it.
func olapRungs(st *stream) []*rung {
	return []*rung{
		coreRung(st),
		{name: "sync", build: func() (sut, error) {
			c, err := ddc.BuildDynamic(st.dimsSlice(), st.initial, ddc.Options{})
			if err != nil {
				return nil, err
			}
			return &cubeSUT{cubeTarget: cubeTarget{ddc.NewSynchronized(c), st.dash}}, nil
		}},
		{name: "sharded", build: func() (sut, error) {
			c, err := ddc.BuildSharded(st.dimsSlice(), st.initial, 4, ddc.Options{})
			if err != nil {
				return nil, err
			}
			return &cubeSUT{cubeTarget: cubeTarget{c, st.dash}}, nil
		}},
	}
}

func olapLayers(st *stream, rs map[string]*rung, m metrics) error {
	psumLayer(st, m)
	coreLayer(st, rs["core"], m)
	cubeRead := rs["e2e"].run.stats(opRead).p50
	m.set("cube.read_tax_us", cubeRead-rs["core"].run.stats(opRead).p50, "us")
	m.set("sync.read_tax_us", rs["sync"].run.stats(opRead).p50-cubeRead, "us")
	m.set("sharded.read_tax_us", rs["sharded"].run.stats(opRead).p50-cubeRead, "us")
	return nil
}

// psumLayer times PrefixSum on a classic backend built from row 0 of
// the cube, with the keys the read stream's corners ask for in
// dimension 1.
func psumLayer(st *stream, m metrics) {
	be := psum.FromSlice(psum.Classic, st.initial[:st.spec.side], core.DefaultFanout)
	var keys []int
	for i := range st.ops {
		if o := &st.ops[i]; o.kind == opRead {
			keys = append(keys, int(o.hi[1]), int(o.lo[1])-1)
		}
	}
	var visits uint64
	for _, k := range keys {
		_, v := be.PrefixSumVisits(k)
		visits += v
	}
	var sink int64
	per := make([]float64, 5)
	for rep := range per {
		t0 := time.Now()
		for _, k := range keys {
			sink += be.PrefixSum(k)
		}
		per[rep] = float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
	}
	_ = sink
	m.set("psum.prefix_ns", median(per), "ns")
	m.set("psum.visits_per_prefix", float64(visits)/float64(len(keys)), "count")
}

// coreRung is a core.Tree bulk-built from the initial cube.
func coreRung(st *stream) *rung {
	return &rung{name: "core", build: func() (sut, error) {
		a, err := cube.FromValues(st.dimsSlice(), st.initial)
		if err != nil {
			return nil, err
		}
		tree, err := core.BuildFromArray(a, core.Config{})
		if err != nil {
			return nil, err
		}
		return newCoreTarget(tree, st.dash), nil
	}}
}

func coreLayer(st *stream, r *rung, m metrics) {
	c := r.sys.(*coreTarget)
	n := counts(st.ops)
	reads, adds := float64(n[opRead]), float64(n[opAdd])
	m.set("core.read_us", r.run.stats(opRead).p50, "us")
	m.set("core.batch_us", r.run.stats(opBatch).p50, "us")
	m.set("core.add_us", r.run.stats(opAdd).p50, "us")
	m.set("core.visits_per_read", float64(c.ops[opRead].NodeVisits)/reads, "count")
	m.set("core.cells_per_read", float64(c.ops[opRead].QueryCells)/reads, "count")
	m.set("core.cells_per_write", float64(c.ops[opAdd].UpdateCells)/adds, "count")
	m.set("core.batch_dedup_ratio", float64(c.stats.DistinctCorners)/float64(c.stats.CornerTerms), "ratio")
	m.set("core.batch_cache_hit_ratio", float64(c.stats.CacheHits)/float64(c.stats.DistinctCorners), "ratio")
	m.set("core.pending_boxes", float64(c.t.PendingBoxes()), "count")
}
