#!/bin/sh
# CI gate: static checks, build, the full test suite, the -race
# concurrency tier (see README "Testing" and DESIGN.md §7), the
# fault-injection durability tier (DESIGN.md §9: crash/corruption
# matrices over the WAL and the store), the telemetry-overhead
# benchmark (DESIGN.md §8; reported, not gated), the dense read
# benchmarks, the bulk-build tier, the batch-equivalence property tier (DESIGN.md §10), the
# backend guard benchmark, the workload capture tier, the mixed-workload
# tier for the buffered write front (DESIGN.md §15), the end-to-end
# benchmark module's own checks plus one answer-checked smoke run, and
# last the mixed-workload guard benchmark.
set -eux

cd "$(dirname "$0")/.."

# Built binaries go to one private directory, so concurrent
# runs never clobber each other; it is removed however the script exits.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fmt_diff=$(gofmt -l .)
if [ -n "$fmt_diff" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt_diff" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race -run Concurrent ./...
# Fault injection: every truncation offset and byte flip of a WAL, every
# store commit point and checkpoint stage, the framed-record codec's
# truncate/flip/I/O-fault matrix, the capture's record-region matrix and
# the golden format fixtures, with verbose failure output.
go test -run 'WAL|Replay|Crash|Corrupt|Torn|Golden|Frame' -count=1 . ./internal/store ./internal/logrec ./internal/workload
# Telemetry overhead (DESIGN.md §8): disabled vs enabled Prefix ns/op,
# reported for the log. No ratio is gated here: the disabled path sits
# within about 1-2% of the core Prefix, too close to gate on this
# benchmark's spread. TestTracingDisabledAllocs (below) holds the
# disabled path at 0 allocs/op.
go test -run - -bench BenchmarkTelemetryOverhead -benchtime 0.5s .
# Dense read benchmarks: one iteration each of the flat d = 2 arm, the
# delegating arm of a grown, unmaterialised d = 2 cube and the
# nested-cube d = 3 arm of the overlay descent, plus the cold batched
# engine on the dense 1024² cube below (dashboard) and above (random
# boxes) its fan-out crossover (ns/op is not gated here; the benchmarks
# must build and answer).
go test -run - -bench '(RangeQuery|RangeSumBatch)$/(dense|grown|dashboard|random)' -benchtime 1x .
# Bulk-build tier: the one-pass face-recurrence build must lay out its
# arena page for page as the per-box rescan reference does (every
# backend, tiles 1-8, d = 1-4, all-zero regions, single-tile and empty
# domains; FuzzBulkBuild's seed corpus), answer like the incremental
# path, hold the dense 512² cube's live-heap budget, and leave a fresh
# d = 3 cube's Add at 0 allocations; BuildSharded bulk-loads each slab
# with it. Then one iteration of each build benchmark row (ns/op is
# not gated here; the rows must build).
go test -run 'BuildFromArray|BulkBuild|DenseBulkCubeHeap|BuildSharded' -count=1 . ./internal/core
go test -run - -bench BuildBulkVsIncremental -benchtime 1x ./internal/core
# Batch-equivalence property tier: a planned RangeSumBatch must answer
# exactly what a sequential RangeSum loop answers, on every Cube
# implementation, grown domains and sharded cubes included (DESIGN.md
# §10); every batch entry point derived from a planner's one engine must
# agree with it (sums, stats, op counts, one ring trace per untraced
# call); every implementation must reject malformed points and boxes
# with the same sentinel; plus the endpoint's contract. The served codec
# (DESIGN.md §7) rides along: its decoder fuzz seed corpora (each scanner
# against encoding/json or url.ParseQuery + cubecli on the same input),
# the byte-identical append-encoded responses, and the per-request
# allocation guard of the hot endpoints.
go test -run 'RangeSumBatch|BatchTelemetry|SumBatch|BatchEntryPoints|ValidationAgreement|DecodeQueries|DecodeMutation|ParseRangeQuery|ServedHandlerAllocs|ResponseBytes' -count=1 . ./internal/cubeserver
# Backend property tier (DESIGN.md §11): every prefix-sum backend must
# agree exactly with the classic reference — cube-level op sequences,
# snapshot round-trips across backends, the psum fuzz seed corpus, the
# auto promotion tests, core's op-count invariance and the differential
# descent test against the reference recursion, the batch engine's
# op-count contract (a batch costs the tree-only descents of its
# distinct cache-missing corners plus one pending term per query box
# and pending box that meet, on both sides of the fan-out crossover),
# and the pending composition against NaiveCube and a per-corner
# reference (TestPendingComposePerBox) — under the race detector; the
# allocation guards run in the plain pass above.
go test -race -run 'Backend|Auto|OpCount|Descent|BatchMatches|PendingComposePerBox' -count=1 . ./internal/psum ./internal/core
# Guard benchmark (guard_bench_test.go): the blocked backend's point
# sum and point add must each cost at most 1.4x classic's on a d = 2
# 256² cube (a flat-layout regression fails here).
go test -run - -bench BackendGuard .
# Observability tier (DESIGN.md §12): the span/tracing property tests
# under the race detector, the span-count and EXPLAIN-schema contracts,
# then a live smoke — boot a real ddcserver, poll /readyz, run a traced
# POST /v1/explain and validate its schema (trace id, plan, Theorem 1
# visit budget, stage span tree), and exit via SIGTERM so the graceful
# shutdown flush runs. TestTracingDisabledAllocs pins the disabled
# path at 0 allocs/op. TestServedPooledScratchRace runs served readers,
# writers and the trace and workload endpoints at once over the pooled
# request scratch, every answer checked, and
# TestCaptureReplaysServedAnswers runs concurrent writers and readers
# against a buffered store with a workload capture attached, whose
# replay must answer what the clients were answered.
go test -race -run 'Span|Traceparent|ServedPooledScratchRace|CaptureReplaysServedAnswers' -count=1 . ./internal/obs ./internal/cubeserver
go test -run 'TracingDisabledAllocs|ExplainBatchSchema|Readyz|HealthAndReadiness|TraceRingStats|BuildInfo' -count=1 . ./internal/cubeserver
go build -o "$tmp/ddcserver" ./cmd/ddcserver
go run ./scripts/obssmoke -server "$tmp/ddcserver"
# Workload capture tier (DESIGN.md §13): the capture codec
# (FuzzReadCapture's seed corpus included), the server's capture point
# (one record per operation, in the client's coordinates, replaying to
# the served answers), the /v1/workload schema, the offline profile
# (equal to the retired live collectors on the golden fixture, exact
# heavy hitters, plane sums) and the telemetry-off read allocations;
# -version on both binaries; then the capture→replay equivalence smoke
# — boot a ddcserver with -workload-capture, over a plain cube and again
# over a buffered store, drive mixed traffic over HTTP, and require
# ddcbench -replay to reproduce the live answers bit-exactly under every
# prefix-sum backend and its profile to count the traffic.
go test -run 'Workload|Capture|Profile|HeatGridSide' -count=1 . ./internal/workload ./internal/cubeserver
"$tmp/ddcserver" -version
go build -o "$tmp/ddcbench" ./cmd/ddcbench
"$tmp/ddcbench" -version
go run ./scripts/wkldsmoke -server "$tmp/ddcserver" -bench "$tmp/ddcbench"
# Range-update tier (DESIGN.md §14): cross-implementation equivalence of
# box updates against the naive ground truth, the lazy pending-box
# semantics (flush points, merged iteration, explain contributions, the
# once-per-query-box composition and its allocation guards), the
# partial-failure sweep (scenario rollback, aggregate compensation,
# iterator early termination), the FuzzRangeAdd seed corpus, and the WAL
# corruption matrix over the mixed point+range record stream.
go test -run 'RangeAdd|PendingComposePerBox|Scenario|AggregateRecordCompensates|IteratorEarlyTermination' -count=1 . ./internal/core ./internal/store ./internal/cubeserver
go test -run FuzzRangeAdd -count=1 .
# Bench smoke guard: the rangeaddcost experiment fails its run if the
# lazy path's cost is not flat (cells exactly constant, latency within
# 2x) across box volumes spanning three orders of magnitude, while the
# per-cell loop scales linearly — the volume-independence contract of
# the O(d) RangeAdd.
"$tmp/ddcbench" rangeaddcost
# Mixed-workload tier (DESIGN.md §15): the buffered write front's
# read-your-writes equivalence, drain/freeze interleavings and the
# store crash matrix under the race detector. The mixed-workload guard
# runs last (below).
go test -race -run 'Buffered|StoreBuffered|DeltaDrain' -count=1 . ./internal/store ./internal/cubeserver
# Benchmark module (perfbench/, a nested Go module outside ./...): vet
# and its own tests (same seed, same stream; transparent timing seams),
# then one short olap-read run — run.py replays every answer on a
# Fenwick reference and exits nonzero on any mismatch. No timing bound
# is checked here.
(cd perfbench && go vet ./... && go test ./...)
python3 perfbench/run.py --workload olap-read --seed 1 --seconds 1 --trace 0
# Mixed-workload guard (mixed_bench_test.go), last because it stays red
# until the buffered delta is bounded (see ROADMAP.md) and set -e would
# stop the tiers above at it: BenchmarkMixedGuard fails unless the
# buffered front sustains >=2x the synchronous path's writes/s at no
# worse than 1.25x query p99, with a concurrent checkpoint inflating
# write p99 by at most 1.5x, and each of its cells checks the cube's
# total against the acknowledged writes.
go test -run - -bench MixedGuard -benchtime 1x .
