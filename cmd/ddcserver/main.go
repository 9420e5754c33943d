// Command ddcserver serves a Dynamic Data Cube over HTTP/JSON: live
// point updates and range-sum analytics against the same cube — the
// interactive, continuously-updated data cube Section 1 of the paper
// argues for.
//
//	ddcserver -data DIR -dims 100,366 -addr :8080 [-autogrow]
//	          [-backend auto|classic|blocked|blockfenwick]
//	          [-pprof] [-trace-sample N] [-slow-query 50ms]
//	          [-slo-objective 100ms]
//	          [-workload-capture FILE] [-capture-sample N]
//	          [-capture-max-bytes N]
//	ddcserver -dims 100,366 [-cube snap] [-wal log]   (legacy single-file mode)
//	ddcserver -version                                (print build identity)
//
// With -data the server runs on a durable store directory: recovery
// from the latest checkpoint plus WAL tail replay at startup,
// checksummed fsync'd commits per mutation, and checkpoint/rotate via
// POST /v1/checkpoint or automatic thresholds. -data conflicts with
// -cube/-wal.
//
// Endpoints: POST /v1/add, POST /v1/set, POST /v1/batch,
// POST /v1/checkpoint, GET /v1/get, GET /v1/sum, POST /v1/sum/batch,
// GET /v1/scan, GET /v1/explain, POST /v1/explain (span-traced batch
// EXPLAIN), GET /v1/stats, GET /v1/trace, GET /v1/workload (live
// query-shape profile), GET /v1/snapshot, GET /healthz, GET /readyz,
// GET /metrics (Prometheus text), and GET /debug/pprof/ with -pprof.
// See internal/cubeserver.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ddc"
	"ddc/internal/cubecli"
	"ddc/internal/cubeserver"
	"ddc/internal/psum"
	"ddc/internal/store"
	"ddc/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "", "durable store directory (checkpoints + WAL segments); conflicts with -cube/-wal")
	dimsFlag := flag.String("dims", "", "dimension sizes for a fresh cube, e.g. 100,366")
	cubePath := flag.String("cube", "", "snapshot to load instead of a fresh cube (legacy mode)")
	walPath := flag.String("wal", "", "append mutations to this write-ahead log, replayed at startup (legacy mode)")
	autogrow := flag.Bool("autogrow", false, "grow the cube for out-of-range updates")
	backend := flag.String("backend", "", "prefix-sum backend for row-sum groups: auto (default: each group switches from classic to blocked once half its universe is populated), classic (paper-exact B_c tree), blocked, blockfenwick; snapshots/WAL are backend-agnostic, so any data loads under any backend")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	traceSample := flag.Int("trace-sample", 0, "record a structured trace for 1 in N queries (0 = off)")
	slowQuery := flag.Duration("slow-query", 0, "log queries at or above this duration to /v1/trace (0 = off)")
	sloObjective := flag.Duration("slo-objective", 0, "latency objective for the SLO burn-rate counters in /metrics (0 = off)")
	version := flag.Bool("version", false, "print version, Go toolchain and backend, then exit")
	buffered := flag.Bool("buffered", false, "buffer writes in an in-memory delta front drained by a background merger (sustained-write mode; requires -data)")
	bufferMaxDelta := flag.Int("buffer-max-delta", 0, "delta depth that wakes the merger (0 = default 256; with -buffered)")
	bufferFlush := flag.Duration("buffer-flush-interval", 0, "merger tick interval (0 = default 1ms; with -buffered)")
	capturePath := flag.String("workload-capture", "", "append a DDCWKLD2 workload capture to this file (see FORMATS.md); replay with ddcbench -replay")
	captureSample := flag.Int("capture-sample", 1, "capture 1 in N queries (updates are always captured)")
	captureMaxBytes := flag.Int64("capture-max-bytes", 0, "rotate the capture file past this size, keeping one previous generation (0 = never)")
	flag.Parse()

	if *version {
		be, err := psum.ParseKind(*backend)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ddcserver version=%s go_version=%s backend=%s\n", ddc.Version, runtime.Version(), be)
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	opts := cubeserver.Options{
		Pprof:        *pprofFlag,
		TraceSample:  *traceSample,
		SlowQuery:    *slowQuery,
		SLOObjective: *sloObjective,
		Logger:       logger,
	}

	var handler http.Handler
	var dims []int
	shutdown := func() error { return nil }

	switch {
	case *dataDir != "":
		if *cubePath != "" || *walPath != "" {
			log.Fatal("ddcserver: -data conflicts with -cube/-wal")
		}
		if *dimsFlag != "" {
			var err error
			if dims, err = cubecli.ParsePoint(*dimsFlag); err != nil {
				log.Fatal("ddcserver: -dims: ", err)
			}
		}
		// Server construction enables telemetry, but recovery happens
		// first — turn it on now so the startup recovery and checkpoint
		// land in /metrics.
		ddc.GlobalTelemetry().Enable()
		st, err := store.Open(*dataDir, store.Options{
			Dims:     dims,
			Cube:     ddc.Options{AutoGrow: *autogrow, Backend: *backend},
			Buffered: *buffered,
			Buffer: ddc.BufferedOptions{
				MaxDelta:      *bufferMaxDelta,
				FlushInterval: *bufferFlush,
			},
		})
		if err != nil {
			log.Fatal("ddcserver: opening store: ", err)
		}
		rec := st.Recovery()
		log.Printf("store %s: recovered snapshot seq %d + %d segments (%d records%s)",
			st.Dir(), rec.SnapshotSeq, rec.Segments, rec.Records,
			map[bool]string{true: ", torn tail dropped", false: ""}[rec.TornTail])
		if *buffered {
			log.Print("buffered write front enabled (delta + background merger)")
		}
		handler = cubeserver.NewWithPersistence(st.Cube(), st, opts)
		dims = st.Cube().Dims()
		shutdown = st.Close
	default:
		if *buffered {
			log.Fatal("ddcserver: -buffered requires -data")
		}
		// A previous run may have checkpointed recovered WAL state to
		// <wal>.ckpt; pick it up when no explicit snapshot is given.
		base := *cubePath
		if base == "" && *walPath != "" {
			if _, err := os.Stat(*walPath + ".ckpt"); err == nil {
				base = *walPath + ".ckpt"
				log.Printf("loading checkpoint %s", base)
			}
		}
		cube, err := openCube(*dimsFlag, base, *autogrow, *backend)
		if err != nil {
			log.Fatal("ddcserver: ", err)
		}
		var wal *ddc.WAL
		if *walPath != "" {
			var f *os.File
			if wal, f, err = openLegacyWAL(cube, *walPath); err != nil {
				log.Fatal("ddcserver: ", err)
			}
			shutdown = func() error {
				return errors.Join(wal.Flush(), f.Close())
			}
		}
		handler = cubeserver.NewWithOptions(cube, wal, opts)
		dims = cube.Dims()
	}

	if *capturePath != "" {
		cp, err := workload.NewCapture(workload.CaptureOptions{
			Path:          *capturePath,
			Dims:          dims,
			SampleQueries: *captureSample,
			MaxBytes:      *captureMaxBytes,
		})
		if err != nil {
			log.Fatal("ddcserver: -workload-capture: ", err)
		}
		ddc.GlobalTelemetry().AttachCapture(cp)
		log.Printf("capturing workload to %s (1 in %d queries, all updates)", *capturePath, *captureSample)
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("serving cube dims=%v on %s", dims, *addr)

	select {
	case err := <-errCh:
		log.Fatal("ddcserver: ", err)
	case <-ctx.Done():
		stop()
		log.Print("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Print("ddcserver: shutdown: ", err)
		}
		// Flush the workload capture before telemetry goes quiet: detach
		// first so no record races the close, then drain the buffer and
		// sync. A torn in-flight record at the tail is tolerated by
		// readers, but a graceful exit should not leave one.
		if cp := ddc.GlobalTelemetry().AttachCapture(nil); cp != nil {
			st := cp.Stats()
			if err := cp.Close(); err != nil {
				log.Print("ddcserver: closing workload capture: ", err)
			} else {
				log.Printf("workload capture closed: %d records (%d updates, %d queries, %d sampled out) in %d bytes",
					st.Records, st.Updates, st.Queries, st.SampledOut, st.Bytes)
			}
		}
		// Persist every acknowledged mutation before exiting: flush and
		// sync the WAL (legacy mode) or checkpoint and close the store.
		if err := shutdown(); err != nil {
			log.Fatal("ddcserver: closing persistence: ", err)
		}
		// Drain observability before the process dies: the slow-query
		// ring and a final metric snapshot go to the structured log, so
		// a post-mortem has the last traces even without a scraper.
		flushObservability(logger)
	}
}

// flushObservability writes the retained slow/sampled traces and a
// final telemetry snapshot to the structured log — the shutdown-time
// flush that keeps the last window of evidence out of a dying process.
func flushObservability(logger *slog.Logger) {
	tel := ddc.GlobalTelemetry()
	traces := tel.Traces()
	capacity, dropped := tel.TraceRingStats()
	for _, tr := range traces {
		logger.Info("retained trace",
			"seq", tr.Seq, "op", tr.Op, "duration_ns", tr.DurationNs,
			"slow", tr.Slow, "trace_id", tr.TraceID,
			"node_visits", tr.NodeVisits, "spans", len(tr.Spans))
	}
	snap := tel.Snapshot()
	logger.Info("final telemetry snapshot",
		"traces_flushed", len(traces), "trace_ring_capacity", capacity,
		"trace_ring_dropped", dropped,
		"queries", snap.Queries, "updates", snap.Updates,
		"query_node_visits", snap.QueryNodeVisits,
		"query_cells", snap.QueryCells,
		"slow_queries", snap.SlowQueries,
		"slo_objective_ns", snap.SLOObjectiveNs,
		"slo_good", snap.SLOGood, "slo_requests", snap.SLORequests,
		"wal_appends", snap.WALAppends, "wal_flushes", snap.WALFlushes,
		"store_checkpoints", snap.StoreCheckpoints)
}

// openLegacyWAL recovers a single-file WAL: replay the existing log,
// save a snapshot of the recovered state to <path>.ckpt, and only then
// rotate the log aside (<path>.old) and start a fresh one.
// Snapshotting before the rotation means a crash right after startup
// cannot lose the replayed records — previously they lived only in
// memory and in a .old file the next boot ignored.
func openLegacyWAL(cube *ddc.DynamicCube, walPath string) (*ddc.WAL, *os.File, error) {
	if f, err := os.Open(walPath); err == nil {
		// A log shorter than its 12-byte header is the signature of a
		// crash between creating the file and flushing the header — no
		// record in it was ever acknowledged. Treat it as empty.
		var n uint64
		if fi, serr := f.Stat(); serr == nil && fi.Size() < 12 {
			log.Printf("ignoring header-less log %s (%d bytes, crash during creation)", walPath, fi.Size())
		} else {
			var rerr error
			n, rerr = ddc.ReplayWAL(f, cube)
			if rerr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("replaying %s: %v", walPath, rerr)
			}
			log.Printf("replayed %d records from %s", n, walPath)
		}
		f.Close()
		snapPath := walPath + ".ckpt"
		if err := saveSnapshot(cube, snapPath); err != nil {
			return nil, nil, fmt.Errorf("checkpointing recovered state: %v", err)
		}
		log.Printf("checkpointed recovered state to %s", snapPath)
		if err := os.Rename(walPath, walPath+".old"); err != nil {
			return nil, nil, fmt.Errorf("rotating log: %v", err)
		}
	}
	f, err := os.Create(walPath)
	if err != nil {
		return nil, nil, err
	}
	wal, err := ddc.NewWAL(cube, f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Commit the header immediately so a crash before the first mutation
	// leaves a well-formed empty log rather than an empty file.
	if err := wal.Flush(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return wal, f, nil
}

// saveSnapshot writes the cube atomically: temp file next to the
// target (so the rename stays on one filesystem), fsync, rename.
func saveSnapshot(cube *ddc.DynamicCube, path string) error {
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if err := cube.SaveCompact(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(path+".tmp", path)
}

func openCube(dims, cubePath string, autogrow bool, backend string) (*ddc.DynamicCube, error) {
	if cubePath != "" {
		f, err := os.Open(cubePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ddc.LoadDynamicBackend(f, backend)
	}
	if dims == "" {
		return nil, fmt.Errorf("need -dims or -cube")
	}
	d, err := cubecli.ParsePoint(dims)
	if err != nil {
		return nil, fmt.Errorf("-dims: %v", err)
	}
	return ddc.NewDynamicWithOptions(d, ddc.Options{AutoGrow: autogrow, Backend: backend})
}
