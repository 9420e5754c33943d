package main

import (
	"fmt"

	"ddc"
)

// check replays the stream on ddc.NewFenwick, the independent
// comparator, and marks every op whose recorded answer differs (each
// batch window and, when writesAnswer, each write's response value) as
// failed.
func check(st *stream, r *run, writesAnswer bool) error {
	f, err := ddc.NewFenwick(st.dimsSlice())
	if err != nil {
		return err
	}
	side := st.spec.side
	for i, v := range st.initial {
		if v != 0 {
			if err := f.Add([]int{i / side, i % side}, v); err != nil {
				return err
			}
		}
	}
	var lo, hi [dims]int
	for i := range st.ops {
		o := &st.ops[i]
		ok := true
		switch o.kind {
		case opRead:
			want, err := f.RangeSum(o.loInts(lo[:]), o.hiInts(hi[:]))
			if err != nil {
				return fmt.Errorf("comparator read %d: %w", i, err)
			}
			ok = r.answers[o.ans] == want
		case opBatch:
			for j, q := range st.dash[o.dash] {
				want, err := f.RangeSum(q.Lo, q.Hi)
				if err != nil {
					return fmt.Errorf("comparator batch %d: %w", i, err)
				}
				ok = ok && r.answers[int(o.ans)+j] == want
			}
		case opAdd:
			p := o.loInts(lo[:])
			if err := f.Add(p, int64(o.delta)); err != nil {
				return fmt.Errorf("comparator add %d: %w", i, err)
			}
			if writesAnswer {
				ok = r.answers[o.ans] == f.Get(p)
			}
		case opRangeAdd:
			l, h := o.loInts(lo[:]), o.hiInts(hi[:])
			if err := f.RangeAdd(l, h, int64(o.delta)); err != nil {
				return fmt.Errorf("comparator rangeadd %d: %w", i, err)
			}
			if writesAnswer {
				want, err := f.RangeSum(l, h)
				if err != nil {
					return fmt.Errorf("comparator rangeadd %d: %w", i, err)
				}
				ok = r.answers[o.ans] == want
			}
		}
		if !ok {
			r.failed[i] = true
		}
	}
	return nil
}

// sameAnswers marks every op of r whose answers differ from ref's — a
// ladder rung replaying a stream already checked against the comparator.
// writesAnswer says whether write answers are comparable.
func sameAnswers(ref, r *run, writesAnswer bool) {
	for i := range r.st.ops {
		o := &r.st.ops[i]
		if (o.kind == opAdd || o.kind == opRangeAdd) && !writesAnswer {
			continue
		}
		n := answerSlots(o.kind)
		for j := int(o.ans); j < int(o.ans)+n; j++ {
			if ref.answers[j] != r.answers[j] {
				r.failed[i] = true
			}
		}
	}
}
