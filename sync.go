package ddc

import (
	"sync"

	"ddc/internal/logrec"
)

// Synchronized wraps a Cube with a sync.RWMutex, making it safe for
// concurrent use. Mutations always take the exclusive lock. Reads take
// the shared lock when the wrapped cube declares (via ConcurrentReader)
// that its read paths tolerate concurrent callers — DynamicCube and
// ShardedCube do — so any number of readers proceed in parallel and only
// writers serialize. For cubes whose reads mutate internal state (the
// operation-counting baselines), reads fall back to the exclusive lock
// and behave exactly like the historical single-mutex wrapper.
type Synchronized struct {
	mu sync.RWMutex
	c  Cube
	// sharedReads is true when c's read methods are safe under RLock.
	sharedReads bool
}

// NewSynchronized wraps c. The wrapped cube must not be used directly
// afterwards.
func NewSynchronized(c Cube) *Synchronized {
	s := &Synchronized{c: c}
	if cr, ok := c.(ConcurrentReader); ok && cr.ConcurrentReads() {
		s.sharedReads = true
	}
	return s
}

func (s *Synchronized) rlock() {
	if s.sharedReads {
		s.mu.RLock()
	} else {
		s.mu.Lock()
	}
}

func (s *Synchronized) runlock() {
	if s.sharedReads {
		s.mu.RUnlock()
	} else {
		s.mu.Unlock()
	}
}

// Dims implements Cube.
func (s *Synchronized) Dims() []int {
	s.rlock()
	defer s.runlock()
	return s.c.Dims()
}

// Get implements Cube.
func (s *Synchronized) Get(p []int) int64 {
	s.rlock()
	defer s.runlock()
	return s.c.Get(p)
}

// Set implements Cube.
func (s *Synchronized) Set(p []int, v int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: v})
}

// Add implements Cube.
func (s *Synchronized) Add(p []int, d int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: d})
}

// RangeAdd implements Cube.
func (s *Synchronized) RangeAdd(lo, hi []int, d int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: d})
}

// apply is the one mutator behind Set, Add and RangeAdd: m reaches the
// wrapped cube under the exclusive lock.
func (s *Synchronized) apply(m logrec.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.Apply(s.c)
}

// AddBatch applies a batch of deltas under one lock acquisition,
// implementing BatchAdder. If the wrapped cube has its own bulk path it
// is used; otherwise the deltas are applied in order.
func (s *Synchronized) AddBatch(batch []PointDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ba, ok := s.c.(BatchAdder); ok {
		return ba.AddBatch(batch)
	}
	for _, pd := range batch {
		if err := s.c.Add(pd.Point, pd.Delta); err != nil {
			return err
		}
	}
	return nil
}

// Prefix implements Cube.
func (s *Synchronized) Prefix(p []int) int64 {
	s.rlock()
	defer s.runlock()
	return s.c.Prefix(p)
}

// RangeSum implements Cube.
func (s *Synchronized) RangeSum(lo, hi []int) (int64, error) {
	s.rlock()
	defer s.runlock()
	return s.c.RangeSum(lo, hi)
}

// RangeSumBatch implements Cube, answering the whole batch under one
// lock acquisition (shared when the wrapped cube tolerates concurrent
// readers). The wrapped cube's own batched engine — corner dedup,
// versioned prefix cache, parallel descents for DynamicCube and
// ShardedCube — runs underneath.
func (s *Synchronized) RangeSumBatch(queries []RangeQuery) ([]int64, error) {
	s.rlock()
	defer s.runlock()
	return s.c.RangeSumBatch(queries)
}

// Total implements Cube.
func (s *Synchronized) Total() int64 {
	s.rlock()
	defer s.runlock()
	return s.c.Total()
}

// Ops implements Cube.
func (s *Synchronized) Ops() OpCounts {
	s.rlock()
	defer s.runlock()
	return s.c.Ops()
}

// ResetOps implements Cube.
func (s *Synchronized) ResetOps() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.ResetOps()
}

// Unwrap returns the underlying cube for type-specific operations; the
// caller is responsible for synchronizing any direct use.
func (s *Synchronized) Unwrap() Cube { return s.c }
