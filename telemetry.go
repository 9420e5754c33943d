package ddc

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ddc/internal/core"
	"ddc/internal/cube"
	"ddc/internal/grid"
	"ddc/internal/logrec"
	"ddc/internal/obs"
	"ddc/internal/psum"
)

// Telemetry is the cube-wide observability surface: a lock-cheap
// metrics registry (atomic counters and fixed-bucket latency histograms
// with p50/p95/p99 snapshots) fed by the DynamicCube, ShardedCube, WAL
// and snapshot hot paths, plus structured per-query tracing with a
// sampling knob and a ring-buffer slow-query log.
//
// Telemetry is disabled by default; every instrumentation site gates on
// a single atomic flag load, so the disabled fast path stays free of
// locks and allocations (TestTracingDisabledAllocs pins 0 allocs/op;
// BenchmarkTelemetryOverhead reports the time, ungated). Enable it
// process-wide with GlobalTelemetry().Enable() — internal/cubeserver
// does so on construction and serves the registry at GET /metrics and
// the trace ring at GET /v1/trace.
//
// All counters tally the paper's operation cost model: node visits and
// cells touched per query/update (Theorems 1-2's O(log^d n) claims are
// checked against these in telemetry_test.go), and per-kind
// contribution counts using the Section 3.2 taxonomy (subtotal,
// row sum, delegated, leaf).
type Telemetry struct {
	enabled atomic.Bool
	reg     *obs.Registry

	// queries and updates are labelled by operation and by the cube's
	// prefix-sum backend ({op=...,backend=...}), so backend A/B runs
	// separate cleanly in one process; the row index is the op, the
	// column the psum.Index of the backend.
	queries [numQueryOps][]*obs.Counter
	updates [numUpdateOps][]*obs.Counter
	contrib [cube.NumContribKinds]*obs.Counter

	queryNodeVisits  *obs.Counter
	queryCells       *obs.Counter
	updateNodeVisits *obs.Counter
	updateCells      *obs.Counter
	slowQueries      *obs.Counter

	queryLat  *obs.Histogram
	updateLat *obs.Histogram

	fanoutWidth *obs.Histogram
	queueWait   *obs.Histogram

	batchQueries   *obs.Counter
	batchCorners   *obs.Counter
	batchDistinct  *obs.Counter
	batchCacheHits *obs.Counter
	batchCacheMiss *obs.Counter
	batchSizeHist  *obs.Histogram
	batchLat       *obs.Histogram

	walAppends    *obs.Counter
	walFlushes    *obs.Counter
	walAppendLat  *obs.Histogram
	walFlushLat   *obs.Histogram
	walTornDrops  *obs.Counter
	walCRCRejects *obs.Counter

	storeRecoveries    *obs.Counter
	storeCheckpoints   *obs.Counter
	storeRecoveryLat   *obs.Histogram
	storeCheckpointLat *obs.Histogram

	snapSaves   *obs.Counter
	snapLoads   *obs.Counter
	snapSaveLat *obs.Histogram
	snapLoadLat *obs.Histogram

	goroutines *obs.Gauge

	// Delta-buffer write front (buffered.go): ingest and drain counters,
	// plus a depth gauge recomputed at scrape time from the registered
	// Buffered instances — pull-based so a Reset during an in-flight
	// drain can never leave a negative or stale depth reading.
	deltaBuffered   *obs.Counter
	deltaCoalesced  *obs.Counter
	deltaDrains     *obs.Counter
	deltaDepth      *obs.Gauge
	deltaDrainLat   *obs.Histogram
	deltaDrainBatch *obs.Histogram
	deltaSources    sync.Map // *Buffered -> func() int

	// SLO burn-rate counters: per-op requests and requests meeting the
	// latency objective. Burn rate = 1 - good/total over a scrape window;
	// an objective of 0 counts everything good (SLO accounting off).
	sloObjNs  atomic.Int64
	sloGood   [numQueryOps]*obs.Counter
	sloTotal  [numQueryOps]*obs.Counter
	buildOnce sync.Once

	sampler *obs.Sampler
	slowNs  atomic.Int64
	traces  *obs.Ring[QueryTrace]
	seq     atomic.Uint64
}

// Query and update operation indices (and their metric labels).
const (
	qOpPrefix = iota
	qOpRange
	qOpBatchRange
	numQueryOps
)

const (
	uOpAdd = iota
	uOpSet
	uOpBatch
	uOpRangeAdd
	numUpdateOps
)

var qOpNames = [numQueryOps]string{"prefix", "rangesum", "rangesum_batch"}

// uOpNames labels the update ops: the mutation kinds by their table
// names, plus batched point updates.
var uOpNames = [numUpdateOps]string{
	uOpAdd:      logrec.Add.String(),
	uOpSet:      logrec.Set.String(),
	uOpBatch:    "batch",
	uOpRangeAdd: logrec.RangeAdd.String(),
}

// backendNames indexes the per-backend metric label by psum.Index.
var backendNames = func() []string {
	kinds := psum.Kinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return names
}()

// kindNames maps core.ContributionKind values to metric labels.
var kindNames = [cube.NumContribKinds]string{"subtotal", "row_sum", "delegated", "leaf", "pending", "delta"}

// traceRingCapacity bounds the slow-query/sampled-trace ring.
const traceRingCapacity = 256

// globalTelemetry is the process-wide instance every cube records into.
var globalTelemetry = NewTelemetry()

// GlobalTelemetry returns the process-wide Telemetry instance that all
// DynamicCube, ShardedCube, WAL and snapshot instrumentation records
// into when enabled.
func GlobalTelemetry() *Telemetry { return globalTelemetry }

// NewTelemetry returns a disabled Telemetry with a fresh registry.
// Most callers want GlobalTelemetry — the cubes record only into the
// global instance; standalone instances serve tests.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	t := &Telemetry{
		reg:     reg,
		sampler: &obs.Sampler{},
		traces:  obs.NewRing[QueryTrace](traceRingCapacity),
	}
	for i, op := range qOpNames {
		t.queries[i] = make([]*obs.Counter, len(backendNames))
		for b, be := range backendNames {
			t.queries[i][b] = reg.Counter(
				fmt.Sprintf("ddc_queries_total{op=%q,backend=%q}", op, be),
				"queries served, by operation and prefix-sum backend")
		}
	}
	for i, op := range uOpNames {
		t.updates[i] = make([]*obs.Counter, len(backendNames))
		for b, be := range backendNames {
			t.updates[i][b] = reg.Counter(
				fmt.Sprintf("ddc_updates_total{op=%q,backend=%q}", op, be),
				"updates applied, by operation and prefix-sum backend")
		}
	}
	for i, k := range kindNames {
		t.contrib[i] = reg.Counter(fmt.Sprintf("ddc_query_contributions_total{kind=%q}", k),
			"prefix-query contributions collected, by Section 3.2 kind")
	}
	t.queryNodeVisits = reg.Counter("ddc_query_node_visits_total",
		"tree nodes visited by queries (the paper's O(log^d n) cost)")
	t.queryCells = reg.Counter("ddc_query_cells_total",
		"cells read by queries (subtotals, row sums, leaf cells)")
	t.updateNodeVisits = reg.Counter("ddc_update_node_visits_total",
		"tree nodes visited by updates")
	t.updateCells = reg.Counter("ddc_update_cells_total",
		"cells written by updates (subtotals, group stores, leaf cells)")
	t.slowQueries = reg.Counter("ddc_slow_queries_total",
		"queries at or above the slow-query threshold")
	t.queryLat = reg.Histogram("ddc_query_latency_ns",
		"query latency in nanoseconds", obs.LatencyBuckets())
	t.updateLat = reg.Histogram("ddc_update_latency_ns",
		"update latency in nanoseconds", obs.LatencyBuckets())
	t.fanoutWidth = reg.Histogram("ddc_shard_fanout_width",
		"shards touched per sharded operation", obs.ExpBuckets(1, 11))
	t.queueWait = reg.Histogram("ddc_shard_queue_wait_ns",
		"delay between fan-out start and per-shard task start", obs.LatencyBuckets())
	t.batchQueries = reg.Counter("ddc_batch_queries_total",
		"logical range queries answered through batched execution")
	t.batchCorners = reg.Counter("ddc_batch_corner_terms_total",
		"non-empty signed corner terms expanded by batch planning (pre-dedup)")
	t.batchDistinct = reg.Counter("ddc_batch_distinct_corners_total",
		"distinct corner prefixes a batch needed after deduplication")
	t.batchCacheHits = reg.Counter("ddc_batch_cache_hits_total",
		"distinct corners served from the versioned prefix cache")
	t.batchCacheMiss = reg.Counter("ddc_batch_cache_misses_total",
		"distinct corners that descended the tree (cache misses)")
	t.batchSizeHist = reg.Histogram("ddc_batch_size",
		"logical queries per batched range-sum call", obs.ExpBuckets(1, 13))
	t.batchLat = reg.Histogram("ddc_batch_latency_ns",
		"batched range-sum call latency in nanoseconds", obs.LatencyBuckets())
	t.walAppends = reg.Counter("ddc_wal_appends_total", "WAL records appended")
	t.walFlushes = reg.Counter("ddc_wal_flushes_total", "WAL flushes")
	t.walAppendLat = reg.Histogram("ddc_wal_append_latency_ns",
		"WAL record append latency in nanoseconds", obs.LatencyBuckets())
	t.walFlushLat = reg.Histogram("ddc_wal_flush_latency_ns",
		"WAL flush latency in nanoseconds", obs.LatencyBuckets())
	t.walTornDrops = reg.Counter("ddc_wal_torn_tail_drops_total",
		"partial trailing records dropped during WAL replay (crash signature)")
	t.walCRCRejects = reg.Counter("ddc_wal_checksum_rejects_total",
		"WAL records rejected for a CRC32C mismatch")
	t.storeRecoveries = reg.Counter("ddc_store_recoveries_total",
		"data-directory recoveries (store opens)")
	t.storeCheckpoints = reg.Counter("ddc_store_checkpoints_total",
		"checkpoints written (snapshot + segment rotation)")
	t.storeRecoveryLat = reg.Histogram("ddc_store_recovery_latency_ns",
		"data-directory recovery latency in nanoseconds", obs.LatencyBuckets())
	t.storeCheckpointLat = reg.Histogram("ddc_store_checkpoint_latency_ns",
		"checkpoint latency in nanoseconds", obs.LatencyBuckets())
	t.snapSaves = reg.Counter("ddc_snapshot_saves_total", "snapshots written")
	t.snapLoads = reg.Counter("ddc_snapshot_loads_total", "snapshots loaded")
	t.snapSaveLat = reg.Histogram("ddc_snapshot_save_latency_ns",
		"snapshot save latency in nanoseconds", obs.LatencyBuckets())
	t.snapLoadLat = reg.Histogram("ddc_snapshot_load_latency_ns",
		"snapshot load latency in nanoseconds", obs.LatencyBuckets())
	t.goroutines = reg.Gauge("ddc_goroutines", "live goroutines at scrape time")
	t.deltaBuffered = reg.Counter("ddc_delta_ops_buffered_total",
		"mutations absorbed by the buffered write front")
	t.deltaCoalesced = reg.Counter("ddc_delta_ops_coalesced_total",
		"buffered mutations that merged into an existing delta entry")
	t.deltaDrains = reg.Counter("ddc_delta_drains_total",
		"delta drain cycles applied to the tree")
	t.deltaDepth = reg.Gauge("ddc_delta_depth",
		"undrained delta entries (points + boxes) at scrape time")
	t.deltaDrainLat = reg.Histogram("ddc_delta_drain_latency_ns",
		"delta drain latency in nanoseconds (freeze to tree-applied)", obs.LatencyBuckets())
	t.deltaDrainBatch = reg.Histogram("ddc_delta_drain_batch_size",
		"delta entries applied per drain", obs.ExpBuckets(1, 16))
	for i, op := range qOpNames {
		t.sloGood[i] = reg.Counter(fmt.Sprintf("ddc_slo_good_total{op=%q}", op),
			"requests that met the latency objective, by operation")
		t.sloTotal[i] = reg.Counter(fmt.Sprintf("ddc_slo_requests_total{op=%q}", op),
			"requests counted against the latency objective, by operation")
	}
	return t
}

// SetSLOObjective sets the latency objective the SLO burn-rate counters
// judge queries against: a query at or under d is "good". d <= 0 counts
// every query good (SLO accounting effectively off).
func (t *Telemetry) SetSLOObjective(d time.Duration) { t.sloObjNs.Store(d.Nanoseconds()) }

// SLOObjective returns the current latency objective.
func (t *Telemetry) SLOObjective() time.Duration {
	return time.Duration(t.sloObjNs.Load())
}

// recordSLO counts one request of duration d against the objective.
func (t *Telemetry) recordSLO(op int, d time.Duration) {
	t.sloTotal[op].Inc()
	if obj := t.sloObjNs.Load(); obj <= 0 || d.Nanoseconds() <= obj {
		t.sloGood[op].Inc()
	}
}

// SetBuildInfo registers the ddc_build_info gauge (value always 1) with
// the module version, Go toolchain and the serving cube's prefix-sum
// backend as labels — the standard join key for dashboards. Idempotent;
// the first caller's backend label wins (one process serves one cube).
func (t *Telemetry) SetBuildInfo(backend string) {
	t.buildOnce.Do(func() {
		t.reg.Gauge(fmt.Sprintf("ddc_build_info{version=%q,go_version=%q,backend=%q}",
			Version, runtime.Version(), backend),
			"build identity (constant 1); labels carry the info").Set(1)
	})
}

// Enable turns instrumentation on.
func (t *Telemetry) Enable() { t.enabled.Store(true) }

// Disable turns instrumentation off, restoring the zero-overhead fast
// path. Accumulated metrics and traces are retained.
func (t *Telemetry) Disable() { t.enabled.Store(false) }

// Enabled reports whether instrumentation is on.
func (t *Telemetry) Enabled() bool { return t.enabled.Load() }

// on is the hot-path gate: one atomic load.
func (t *Telemetry) on() bool { return t.enabled.Load() }

// Reset zeroes every metric and discards retained traces. Sampling and
// threshold knobs are kept. For tests and benchmark harnesses.
func (t *Telemetry) Reset() {
	t.reg.Reset()
	t.traces.Reset()
}

// registerDeltaSource adds a buffered front's authoritative depth
// callback; the depth gauge is recomputed from these at scrape time.
func (t *Telemetry) registerDeltaSource(key any, fn func() int) {
	t.deltaSources.Store(key, fn)
}

// unregisterDeltaSource removes a buffered front's depth callback.
func (t *Telemetry) unregisterDeltaSource(key any) {
	t.deltaSources.Delete(key)
}

// refreshDeltaDepth recomputes the depth gauge from the registered
// buffered fronts. Called at scrape/snapshot time, so the gauge is
// always derived from live state — Reset-proof by construction.
func (t *Telemetry) refreshDeltaDepth() {
	var depth int64
	t.deltaSources.Range(func(_, v any) bool {
		depth += int64(v.(func() int)())
		return true
	})
	t.deltaDepth.Set(depth)
}

// recordDeltaBuffered counts n mutations absorbed by a buffered front,
// coalesced of which merged into an existing delta entry.
func (t *Telemetry) recordDeltaBuffered(n, coalesced int) {
	t.deltaBuffered.Add(uint64(n))
	t.deltaCoalesced.Add(uint64(coalesced))
}

// recordDeltaDrain counts one completed drain cycle of n entries.
func (t *Telemetry) recordDeltaDrain(d time.Duration, n int) {
	t.deltaDrains.Inc()
	t.deltaDrainLat.Observe(uint64(d.Nanoseconds()))
	t.deltaDrainBatch.Observe(uint64(n))
}

// recordDeltaCompose counts n delta terms composed into a query answer
// (the "delta" contribution kind).
func (t *Telemetry) recordDeltaCompose(n int) {
	t.queryCells.Add(uint64(n))
	t.contrib[int(core.KindDelta)].Add(uint64(n))
}

// SetTraceSampling makes 1 in n queries retain their span tree in the
// trace ring; n <= 0 disables sampling. A sampled prefix re-walks its
// descent for per-level spans, so keep n large on hot servers.
func (t *Telemetry) SetTraceSampling(n int) { t.sampler.SetRate(n) }

// TraceSampling returns the current 1-in-N trace sampling rate.
func (t *Telemetry) TraceSampling() int { return t.sampler.Rate() }

// SetSlowQueryThreshold records every query with latency >= d into the
// slow-query ring (and the ddc_slow_queries_total counter); d <= 0
// disables the slow-query log.
func (t *Telemetry) SetSlowQueryThreshold(d time.Duration) { t.slowNs.Store(d.Nanoseconds()) }

// SlowQueryThreshold returns the current slow-query threshold.
func (t *Telemetry) SlowQueryThreshold() time.Duration {
	return time.Duration(t.slowNs.Load())
}

// Traces returns the retained traces (sampled and slow queries),
// newest first.
func (t *Telemetry) Traces() []QueryTrace { return t.traces.Snapshot() }

// WritePrometheus renders every metric in the Prometheus text format
// (histograms as summaries with p50/p95/p99); safe to call while
// recording continues.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	t.goroutines.Set(int64(runtime.NumGoroutine()))
	t.refreshDeltaDepth()
	return t.reg.WritePrometheus(w)
}

// ---------------------------------------------------------------------
// Snapshot

// DistStats summarises one histogram: count, sum and bucket-resolution
// percentile estimates, in the metric's unit (nanoseconds for latency
// histograms, shards for fan-out width).
type DistStats struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
}

func distFrom(s obs.HistStats) DistStats {
	return DistStats{Count: s.Count, Sum: s.Sum, P50: s.P50, P95: s.P95, P99: s.P99}
}

// TelemetrySnapshot is a point-in-time copy of every telemetry metric,
// JSON-ready (cmd/ddcbench embeds it in its -replay report so it
// carries visit counts alongside ns/op).
type TelemetrySnapshot struct {
	Enabled bool `json:"enabled"`

	// Queries and Updates are per-operation totals summed across every
	// prefix-sum backend; the ByBackend maps split the same counts per
	// backend (all registered backends appear, zeros included).
	Queries          map[string]uint64 `json:"queries"`
	Updates          map[string]uint64 `json:"updates"`
	QueriesByBackend map[string]uint64 `json:"queries_by_backend"`
	UpdatesByBackend map[string]uint64 `json:"updates_by_backend"`
	Contributions    map[string]uint64 `json:"contributions"`

	QueryNodeVisits  uint64 `json:"query_node_visits"`
	QueryCells       uint64 `json:"query_cells"`
	UpdateNodeVisits uint64 `json:"update_node_visits"`
	UpdateCells      uint64 `json:"update_cells"`
	SlowQueries      uint64 `json:"slow_queries"`

	QueryLatencyNs   DistStats `json:"query_latency_ns"`
	UpdateLatencyNs  DistStats `json:"update_latency_ns"`
	ShardFanoutWidth DistStats `json:"shard_fanout_width"`
	ShardQueueWaitNs DistStats `json:"shard_queue_wait_ns"`

	BatchQueries         uint64    `json:"batch_queries"`
	BatchCornerTerms     uint64    `json:"batch_corner_terms"`
	BatchDistinctCorners uint64    `json:"batch_distinct_corners"`
	BatchCacheHits       uint64    `json:"batch_cache_hits"`
	BatchCacheMisses     uint64    `json:"batch_cache_misses"`
	BatchSize            DistStats `json:"batch_size"`
	BatchLatencyNs       DistStats `json:"batch_latency_ns"`

	WALAppends     uint64    `json:"wal_appends"`
	WALFlushes     uint64    `json:"wal_flushes"`
	WALAppendNs    DistStats `json:"wal_append_ns"`
	WALFlushNs     DistStats `json:"wal_flush_ns"`
	SnapshotSaves  uint64    `json:"snapshot_saves"`
	SnapshotLoads  uint64    `json:"snapshot_loads"`
	SnapshotSaveNs DistStats `json:"snapshot_save_ns"`
	SnapshotLoadNs DistStats `json:"snapshot_load_ns"`

	// SLO burn-rate accounting: per-op request totals and the subset
	// meeting the latency objective (ObjectiveNs 0 = accounting off).
	SLOObjectiveNs int64             `json:"slo_objective_ns"`
	SLOGood        map[string]uint64 `json:"slo_good"`
	SLORequests    map[string]uint64 `json:"slo_requests"`

	WALTornTailDrops   uint64    `json:"wal_torn_tail_drops"`
	WALChecksumRejects uint64    `json:"wal_checksum_rejects"`
	StoreRecoveries    uint64    `json:"store_recoveries"`
	StoreCheckpoints   uint64    `json:"store_checkpoints"`
	StoreRecoveryNs    DistStats `json:"store_recovery_ns"`
	StoreCheckpointNs  DistStats `json:"store_checkpoint_ns"`

	// Delta-buffer write front (sustained-write engine).
	DeltaOpsBuffered uint64    `json:"delta_ops_buffered"`
	DeltaCoalesced   uint64    `json:"delta_ops_coalesced"`
	DeltaDrains      uint64    `json:"delta_drains"`
	DeltaDepth       int64     `json:"delta_depth"`
	DeltaDrainNs     DistStats `json:"delta_drain_ns"`
	DeltaDrainBatch  DistStats `json:"delta_drain_batch"`
}

// Snapshot returns a consistent-enough copy of all metrics, read with
// atomic loads while recording continues.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	s := TelemetrySnapshot{
		Enabled:          t.Enabled(),
		Queries:          map[string]uint64{},
		Updates:          map[string]uint64{},
		QueriesByBackend: map[string]uint64{},
		UpdatesByBackend: map[string]uint64{},
		Contributions:    map[string]uint64{},
	}
	for _, be := range backendNames {
		s.QueriesByBackend[be] = 0
		s.UpdatesByBackend[be] = 0
	}
	for i, op := range qOpNames {
		var sum uint64
		for b, c := range t.queries[i] {
			v := c.Value()
			sum += v
			s.QueriesByBackend[backendNames[b]] += v
		}
		s.Queries[op] = sum
	}
	for i, op := range uOpNames {
		var sum uint64
		for b, c := range t.updates[i] {
			v := c.Value()
			sum += v
			s.UpdatesByBackend[backendNames[b]] += v
		}
		s.Updates[op] = sum
	}
	for i, k := range kindNames {
		s.Contributions[k] = t.contrib[i].Value()
	}
	s.QueryNodeVisits = t.queryNodeVisits.Value()
	s.QueryCells = t.queryCells.Value()
	s.UpdateNodeVisits = t.updateNodeVisits.Value()
	s.UpdateCells = t.updateCells.Value()
	s.SlowQueries = t.slowQueries.Value()
	s.QueryLatencyNs = distFrom(t.queryLat.Snapshot())
	s.UpdateLatencyNs = distFrom(t.updateLat.Snapshot())
	s.ShardFanoutWidth = distFrom(t.fanoutWidth.Snapshot())
	s.ShardQueueWaitNs = distFrom(t.queueWait.Snapshot())
	s.BatchQueries = t.batchQueries.Value()
	s.BatchCornerTerms = t.batchCorners.Value()
	s.BatchDistinctCorners = t.batchDistinct.Value()
	s.BatchCacheHits = t.batchCacheHits.Value()
	s.BatchCacheMisses = t.batchCacheMiss.Value()
	s.BatchSize = distFrom(t.batchSizeHist.Snapshot())
	s.BatchLatencyNs = distFrom(t.batchLat.Snapshot())
	s.WALAppends = t.walAppends.Value()
	s.WALFlushes = t.walFlushes.Value()
	s.WALAppendNs = distFrom(t.walAppendLat.Snapshot())
	s.WALFlushNs = distFrom(t.walFlushLat.Snapshot())
	s.SnapshotSaves = t.snapSaves.Value()
	s.SnapshotLoads = t.snapLoads.Value()
	s.SnapshotSaveNs = distFrom(t.snapSaveLat.Snapshot())
	s.SnapshotLoadNs = distFrom(t.snapLoadLat.Snapshot())
	s.SLOObjectiveNs = t.sloObjNs.Load()
	s.SLOGood = map[string]uint64{}
	s.SLORequests = map[string]uint64{}
	for i, op := range qOpNames {
		s.SLOGood[op] = t.sloGood[i].Value()
		s.SLORequests[op] = t.sloTotal[i].Value()
	}
	s.WALTornTailDrops = t.walTornDrops.Value()
	s.WALChecksumRejects = t.walCRCRejects.Value()
	s.StoreRecoveries = t.storeRecoveries.Value()
	s.StoreCheckpoints = t.storeCheckpoints.Value()
	s.StoreRecoveryNs = distFrom(t.storeRecoveryLat.Snapshot())
	s.StoreCheckpointNs = distFrom(t.storeCheckpointLat.Snapshot())
	t.refreshDeltaDepth()
	s.DeltaOpsBuffered = t.deltaBuffered.Value()
	s.DeltaCoalesced = t.deltaCoalesced.Value()
	s.DeltaDrains = t.deltaDrains.Value()
	s.DeltaDepth = t.deltaDepth.Value()
	s.DeltaDrainNs = distFrom(t.deltaDrainLat.Snapshot())
	s.DeltaDrainBatch = distFrom(t.deltaDrainBatch.Snapshot())
	return s
}

// ---------------------------------------------------------------------
// Tracing

// QueryTrace is one retained trace: an operation the sampler or the
// slow-query threshold admitted, and its span tree. A cube-layer trace
// (op prefix, rangesum or rangesum_batch) has one root span named by
// its op, whose attributes carry the query box, the operation counts
// and the per-kind contributions; a sampled prefix adds one "level"
// child per tree level. A request trace (op "http <path>") carries the
// request's span tree and trace ID. Traces land in a fixed-capacity
// ring readable via Telemetry.Traces and the server's GET /v1/trace.
type QueryTrace struct {
	Seq        uint64    `json:"seq"`
	Op         string    `json:"op"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`

	// Slow marks traces admitted by the slow-query threshold; the rest
	// were admitted by sampling.
	Slow bool `json:"slow"`

	TraceID string             `json:"trace_id,omitempty"`
	Spans   []obs.SpanSnapshot `json:"spans"`
}

// shouldTrace decides whether an operation of duration d is retained:
// sampled admits it (and a prefix's per-level walk), slow admits it by
// the slow-query threshold.
func (t *Telemetry) shouldTrace(d time.Duration) (sampled, slow bool) {
	sampled = t.sampler.Sample()
	if ns := t.slowNs.Load(); ns > 0 && d.Nanoseconds() >= ns {
		slow = true
	}
	return sampled, slow
}

// trace retains tr in the ring, stamping its sequence number.
func (t *Telemetry) trace(tr QueryTrace) {
	tr.Seq = t.seq.Add(1)
	if tr.Slow {
		t.slowQueries.Inc()
	}
	t.traces.Add(tr)
}

// AdmitSpans offers one finished operation's span trace to the ring:
// when the sampler or the slow-query threshold admits an operation of
// duration d, sc's span tree is retained under op with sc's trace ID.
// It reports whether the slow-query threshold admitted it. The caller
// keeps sc; the retained tree is a copy.
func (t *Telemetry) AdmitSpans(op string, start time.Time, d time.Duration, sc *obs.SpanContext) (slow bool) {
	sampled, slow := t.shouldTrace(d)
	if sampled || slow {
		t.trace(QueryTrace{
			Op: op, Start: start, DurationNs: d.Nanoseconds(), Slow: slow,
			TraceID: sc.TraceID(), Spans: sc.Tree(),
		})
	}
	return slow
}

// cubeQuery is one finished cube-layer query, as queryDone records it.
type cubeQuery struct {
	op    int // qOpPrefix, qOpRange or qOpBatchRange
	be    int // psum.Index of the cube's backend
	start time.Time
	err   error // a failed query is counted, not traced

	// lo and hi are a range sum's box; a prefix sets lo to its point.
	lo, hi []int
	batch  []RangeQuery
	shards int // fan-out width; 0 when unsharded
	ops    cube.OpCounter
	stats  BatchStats

	// tree, when set, re-walks a sampled prefix for its level spans.
	tree *core.Tree
	// sc is a batch caller's live span context: its owner retains that
	// trace, so none is admitted here.
	sc *obs.SpanContext
}

// queryDone is the one recording call of every cube-layer query: its
// metrics and, when admitted, its trace. Called only when telemetry is
// enabled.
func (t *Telemetry) queryDone(q *cubeQuery) {
	d := time.Since(q.start)
	if q.shards > 0 {
		t.recordFanout(q.shards)
	}
	if q.op == qOpBatchRange {
		t.recordBatch(len(q.batch), q.be, d, q.ops, q.stats)
	} else {
		t.recordQuery(q.op, q.be, d, q.ops)
	}
	if q.err == nil && q.sc == nil {
		t.admitQuery(q, d)
	}
}

// admitQuery builds and retains the span tree of a cube-layer query of
// duration d when the sampler or the slow-query threshold admits it:
// one root span named by the op, carrying the box ("p.i" for a prefix,
// "lo.i"/"hi.i" for a range sum), node_visits, query_cells, shards and
// batch when nonzero, and a count per nonzero contribution kind. A
// sampled prefix with a tree adds its level spans. Only admitted
// queries reach the builder, so it may allocate.
func (t *Telemetry) admitQuery(q *cubeQuery, d time.Duration) {
	sampled, slow := t.shouldTrace(d)
	if !sampled && !slow {
		return
	}
	attrs := map[string]int64{
		"node_visits": int64(q.ops.NodeVisits),
		"query_cells": int64(q.ops.QueryCells),
	}
	box := func(key string, p []int) {
		for i, v := range p {
			attrs[key+strconv.Itoa(i)] = int64(v)
		}
	}
	if q.op == qOpPrefix {
		box("p.", q.lo)
	} else {
		box("lo.", q.lo)
		box("hi.", q.hi)
	}
	nonZero := func(key string, n int64) {
		if n != 0 {
			attrs[key] = n
		}
	}
	nonZero("shards", int64(q.shards))
	nonZero("batch", int64(len(q.batch)))
	for i, n := range q.ops.Contribs {
		nonZero(kindNames[i], int64(n))
	}
	root := obs.SpanSnapshot{Parent: int32(obs.NoSpan), Name: qOpNames[q.op], DurationNs: d.Nanoseconds(), Attrs: attrs}
	if sampled && q.tree != nil {
		_, parts := q.tree.ExplainPrefix(grid.Point(q.lo))
		root.Children = levelSpans(parts)
	}
	t.trace(QueryTrace{
		Op: root.Name, Start: q.start, DurationNs: root.DurationNs,
		Slow: slow, Spans: []obs.SpanSnapshot{root},
	})
}

// levelSpans folds a prefix's contribution walk into one "level" child
// of the root span per tree level: the level, its contribution count,
// their summed value and a count per contribution kind.
func levelSpans(parts []core.Contribution) []obs.SpanSnapshot {
	var levels []obs.SpanSnapshot
	for _, p := range parts {
		for len(levels) <= p.Level {
			n := len(levels)
			levels = append(levels, obs.SpanSnapshot{ID: int32(n + 1), Name: "level",
				Attrs: map[string]int64{"level": int64(n), "contributions": 0, "value": 0}})
		}
		a := levels[p.Level].Attrs
		a["contributions"]++
		a["value"] += p.Value
		a[kindNames[p.Kind]]++
	}
	return levels
}

// TraceRingStats reports the trace ring's capacity and how many traces
// have been evicted by newer ones since the last reset — so consumers
// of /v1/trace know whether they are seeing a complete record.
func (t *Telemetry) TraceRingStats() (capacity int, dropped uint64) {
	return t.traces.Capacity(), t.traces.Dropped()
}

// ---------------------------------------------------------------------
// Recording helpers (called only when enabled)

// recordQuery counts one query under its operation and the recording
// cube's backend index (psum.Index of the cube's Options.Backend).
func (t *Telemetry) recordQuery(op, be int, d time.Duration, ops cube.OpCounter) {
	t.queries[op][be].Inc()
	t.recordSLO(op, d)
	t.queryLat.Observe(uint64(d.Nanoseconds()))
	t.queryNodeVisits.Add(ops.NodeVisits)
	t.queryCells.Add(ops.QueryCells)
	for i, n := range ops.Contribs {
		t.contrib[i].Add(n)
	}
}

// recordBatch records one batched range-sum call: n logical queries
// attributed to the rangesum_batch op (so ddc_queries_total and
// /v1/stats see every logical query), the deduplicated work counted
// exactly once, and the sharing statistics.
func (t *Telemetry) recordBatch(n, be int, d time.Duration, ops cube.OpCounter, st BatchStats) {
	t.queries[qOpBatchRange][be].Add(uint64(n))
	t.recordSLO(qOpBatchRange, d)
	t.batchQueries.Add(uint64(n))
	t.batchSizeHist.Observe(uint64(n))
	t.batchLat.Observe(uint64(d.Nanoseconds()))
	t.batchCorners.Add(uint64(st.CornerTerms))
	t.batchDistinct.Add(uint64(st.DistinctCorners))
	t.batchCacheHits.Add(uint64(st.CacheHits))
	t.batchCacheMiss.Add(uint64(st.CacheMisses))
	t.queryNodeVisits.Add(ops.NodeVisits)
	t.queryCells.Add(ops.QueryCells)
	for i, c := range ops.Contribs {
		t.contrib[i].Add(c)
	}
}

func (t *Telemetry) recordUpdate(op, be int, d time.Duration, ops cube.OpCounter) {
	t.updates[op][be].Inc()
	t.updateLat.Observe(uint64(d.Nanoseconds()))
	t.updateNodeVisits.Add(ops.NodeVisits)
	t.updateCells.Add(ops.UpdateCells)
}

func (t *Telemetry) recordFanout(width int) {
	t.fanoutWidth.Observe(uint64(width))
}

func (t *Telemetry) recordQueueWait(d time.Duration) {
	t.queueWait.Observe(uint64(d.Nanoseconds()))
}

func (t *Telemetry) recordWALAppend(d time.Duration) {
	t.walAppends.Inc()
	t.walAppendLat.Observe(uint64(d.Nanoseconds()))
}

func (t *Telemetry) recordWALFlush(d time.Duration) {
	t.walFlushes.Inc()
	t.walFlushLat.Observe(uint64(d.Nanoseconds()))
}

func (t *Telemetry) recordSnapSave(d time.Duration) {
	t.snapSaves.Inc()
	t.snapSaveLat.Observe(uint64(d.Nanoseconds()))
}

func (t *Telemetry) recordSnapLoad(d time.Duration) {
	t.snapLoads.Inc()
	t.snapLoadLat.Observe(uint64(d.Nanoseconds()))
}

func (t *Telemetry) recordWALTornDrop()       { t.walTornDrops.Inc() }
func (t *Telemetry) recordWALChecksumReject() { t.walCRCRejects.Inc() }

// RecordStoreRecovery counts one data-directory recovery and its
// latency. It is the instrumentation hook for internal/store (which,
// living outside this package, cannot reach the unexported recorders);
// it is a no-op while telemetry is disabled.
func (t *Telemetry) RecordStoreRecovery(d time.Duration) {
	if !t.on() {
		return
	}
	t.storeRecoveries.Inc()
	t.storeRecoveryLat.Observe(uint64(d.Nanoseconds()))
}

// RecordStoreCheckpoint counts one checkpoint (snapshot + segment
// rotation) and its latency; see RecordStoreRecovery.
func (t *Telemetry) RecordStoreCheckpoint(d time.Duration) {
	if !t.on() {
		return
	}
	t.storeCheckpoints.Inc()
	t.storeCheckpointLat.Observe(uint64(d.Nanoseconds()))
}
