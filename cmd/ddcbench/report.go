package main

import (
	"encoding/json"
	"fmt"
	"os"

	"ddc"
)

// The -replay mode writes its result as one machine-readable JSON
// document (perfReport); its replay block is what scripts/wkldsmoke
// compares across backends.

// benchResult is one measured configuration.
type benchResult struct {
	// Name identifies the measurement, e.g. "replay/exec".
	Name string `json:"name"`
	// Params are the knobs that shaped it.
	Params map[string]int `json:"params,omitempty"`
	// Backend names the prefix-sum backend the measurement ran on.
	Backend string `json:"backend,omitempty"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// Iters is how many operations the measurement ran.
	Iters int `json:"iters"`
	// OpCounts aggregates the cube's internal work counters over the
	// whole run (cells touched by queries/updates, node visits).
	OpCounts ddc.OpCounts `json:"op_counts"`
	// Telemetry is the metric snapshot for the run: operation totals,
	// visit/cell counters, contribution kinds, and latency and fan-out
	// histogram percentiles.
	Telemetry ddc.TelemetrySnapshot `json:"telemetry"`
}

// perfReport is the top-level JSON document.
type perfReport struct {
	Suite      string        `json:"suite"`
	Version    string        `json:"version"` // ddc module build version
	GoMaxProcs int           `json:"go_max_procs"`
	GoVersion  string        `json:"go_version"`
	Results    []benchResult `json:"results"`
	// Replay summarises a `-replay` run: record counts and the
	// order-sensitive answer checksums the capture→replay equivalence
	// check compares across backends.
	Replay *replaySummary `json:"replay,omitempty"`
}

// writeReport marshals and writes the report.
func writeReport(path string, report *perfReport) error {
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d results to %s (GOMAXPROCS=%d)\n", len(report.Results), path, report.GoMaxProcs)
	return nil
}
