// Command ddcbench regenerates the paper's tables and figures and the
// repository's measured-scaling and ablation experiments, and replays
// workload captures. The system's end-to-end numbers come from
// perfbench (perfbench/run.py) and its component timings from the Go
// benchmarks (go test -bench); the mixed-workload cells (direct vs
// buffered write fronts under concurrent range sums, the checkpoint
// stall, and the CI guard over both) are Go benchmarks too:
//
//	go test -run - -bench 'Mixed(Checkpoint)?$' -cpu 1,2,4 -benchtime 2x .
//	go test -run - -bench MixedGuard -benchtime 1x .
//
// Usage:
//
//	ddcbench -list           list experiment ids
//	ddcbench <id> [<id>...]  run selected experiments
//	ddcbench all             run everything (the EXPERIMENTS.md inputs)
//	ddcbench -replay cap.bin [-replay-speed X] [-backend B] [-json out.json]
//	                         replay a DDCWKLD2 workload capture
//	ddcbench -version        print build identity and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"ddc"
	"ddc/internal/experiments"
	"ddc/internal/psum"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvOut := flag.Bool("csv", false, "emit CSV series instead of tables (figure1 only)")
	jsonOut := flag.String("json", "", "with -replay, write the JSON report to `file` instead of stdout")
	version := flag.Bool("version", false, "print version, Go toolchain and backend, then exit")
	replay := flag.String("replay", "", "replay the DDCWKLD2 (or DDCWKLD1) workload capture in `file` (see FORMATS.md)")
	replaySpeed := flag.Float64("replay-speed", 0, "replay pacing: 0 = as fast as possible, 1 = recorded rate, 2 = twice as fast")
	backend := flag.String("backend", "", "prefix-sum backend for -replay: auto (default: classic per group until half its universe is populated, then blocked), classic, blocked, blockfenwick")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ddcbench [-list] <experiment-id>... | all\n\nexperiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()
	if *version {
		be, err := psum.ParseKind(*backend)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddcbench:", err)
			os.Exit(2)
		}
		fmt.Printf("ddcbench version=%s go_version=%s backend=%s\n", ddc.Version, runtime.Version(), be)
		return
	}
	if *jsonOut != "" && *replay == "" {
		fmt.Fprintln(os.Stderr, "ddcbench: -json names -replay's output file; it needs -replay")
		os.Exit(2)
	}
	if *replay != "" {
		if err := runReplay(*replay, *backend, *replaySpeed, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "ddcbench:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *csvOut {
		if len(args) != 1 || args[0] != "figure1" {
			fmt.Fprintln(os.Stderr, "ddcbench: -csv is supported for figure1")
			os.Exit(2)
		}
		if err := experiments.Figure1CSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ddcbench:", err)
			os.Exit(1)
		}
		return
	}
	if len(args) == 1 && args[0] == "all" {
		if err := experiments.RunAll(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ddcbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range args {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ddcbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("==== %s: %s ====\n\n", e.ID, e.Title)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ddcbench:", err)
			os.Exit(1)
		}
	}
}
