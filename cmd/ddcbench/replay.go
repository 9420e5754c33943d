package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ddc"
	"ddc/internal/workload"
)

// Replay mode executes a DDCWKLD2 (or legacy DDCWKLD1) workload
// capture (see FORMATS.md)
// against a freshly built cube: updates rebuild the captured state in
// order, queries re-run with their answers folded into order-sensitive
// checksums. Replaying the same capture under every -backend must
// produce identical checksums — the capture→replay equivalence check
// scripts/ci.sh runs — and a live server's answers must match the
// replayed ones bit-exactly.

// replaySummary is the machine-readable outcome of one replay run.
type replaySummary struct {
	File          string `json:"file"`
	Backend       string `json:"backend"`
	Dims          []int  `json:"dims"`
	SampleQueries int    `json:"sample_queries"`
	// Speed is the pacing factor: 0 replays as fast as possible, 1 at
	// the recorded rate, 2 twice as fast.
	Speed   float64 `json:"speed"`
	Records int     `json:"records"`
	Updates int     `json:"updates"`
	Queries int     `json:"queries"`
	Torn    bool    `json:"torn"`
	WallNs  int64   `json:"wall_ns"`
	// QueryValues counts individual query answers (a batch contributes
	// one per box); SumsSum and SumsXor fold them in execution order —
	// the equivalence fingerprint.
	QueryValues int    `json:"query_values"`
	SumsSum     int64  `json:"sums_sum"`
	SumsXor     uint64 `json:"sums_xor"`
}

func (s *replaySummary) mix(v int64) {
	s.QueryValues++
	s.SumsSum += v
	s.SumsXor ^= uint64(v)
}

// execReplay loads a capture and executes it against a new cube with
// the given backend, pacing records by their recorded timestamps when
// speed > 0.
func execReplay(path, backend string, speed float64) (*replaySummary, *ddc.DynamicCube, error) {
	var recs []workload.CaptureRecord
	info, err := workload.ReadCaptureFile(path, func(rec workload.CaptureRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	c, err := ddc.NewDynamicWithOptions(info.Dims, ddc.Options{Backend: backend})
	if err != nil {
		return nil, nil, err
	}
	sum := &replaySummary{
		File: path, Backend: c.Backend(), Dims: info.Dims,
		SampleQueries: info.SampleN, Speed: speed,
		Records: info.Records, Updates: info.Updates, Queries: info.Queries,
		Torn: info.Torn,
	}
	start := time.Now()
	for _, rec := range recs {
		if speed > 0 {
			due := start.Add(time.Duration(float64(rec.At-recs[0].At) / speed))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		if m, ok := rec.Mutation(); ok {
			if err := m.Apply(c); err != nil {
				return nil, nil, fmt.Errorf("replay %v: %w", m, err)
			}
			continue
		}
		switch rec.Op {
		case workload.OpPrefix:
			sum.mix(c.Prefix(rec.Point))
		case workload.OpRangeSum:
			v, err := c.RangeSum(rec.Lo, rec.Hi)
			if err != nil {
				return nil, nil, fmt.Errorf("replay rangesum %v..%v: %w", rec.Lo, rec.Hi, err)
			}
			sum.mix(v)
		case workload.OpBatch:
			queries := make([]ddc.RangeQuery, len(rec.Batch))
			for i, q := range rec.Batch {
				queries[i] = ddc.RangeQuery{Lo: q.Lo, Hi: q.Hi}
			}
			vals, err := c.RangeSumBatch(queries)
			if err != nil {
				return nil, nil, fmt.Errorf("replay batch of %d: %w", len(queries), err)
			}
			for _, v := range vals {
				sum.mix(v)
			}
		default:
			return nil, nil, fmt.Errorf("replay: unknown op %d", rec.Op)
		}
	}
	sum.WallNs = time.Since(start).Nanoseconds()
	return sum, c, nil
}

// runReplay is the `ddcbench -replay` entry point: execute the capture
// and emit a standard ddcbench JSON report (to the -json file, or
// stdout) whose replay block carries the equivalence checksums.
func runReplay(path, backend string, speed float64, jsonPath string) error {
	tel := ddc.GlobalTelemetry()
	tel.Reset()
	tel.Enable()
	defer func() {
		tel.Disable()
		tel.Reset()
	}()
	sum, c, err := execReplay(path, backend, speed)
	if err != nil {
		return err
	}
	report := perfReport{
		Suite:      "replay",
		Version:    ddc.Version,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Replay:     sum,
	}
	nsPerOp := float64(0)
	if sum.Records > 0 {
		nsPerOp = float64(sum.WallNs) / float64(sum.Records)
	}
	report.Results = append(report.Results, benchResult{
		Name:      "replay/exec",
		Backend:   sum.Backend,
		NsPerOp:   nsPerOp,
		Iters:     sum.Records,
		OpCounts:  c.Ops(),
		Telemetry: tel.Snapshot(),
	})
	if jsonPath != "" {
		return writeReport(jsonPath, &report)
	}
	out, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = os.Stdout.Write(out)
	return err
}
