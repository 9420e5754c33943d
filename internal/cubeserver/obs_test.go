package cubeserver

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ddc"
	"ddc/internal/obs"
)

// brokenPersistence is a Persistence whose health check fails — the
// server must report itself unready while still serving.
type brokenPersistence struct{ err error }

func (p brokenPersistence) Add(pt []int, delta int64) error          { return nil }
func (p brokenPersistence) RangeAdd(lo, hi []int, delta int64) error { return nil }
func (p brokenPersistence) Set(pt []int, value int64) error          { return nil }
func (p brokenPersistence) Flush() error                             { return nil }
func (p brokenPersistence) Checkpoint() error                        { return ErrCheckpointUnsupported }
func (p brokenPersistence) Healthy() error                           { return p.err }

func TestHealthAndReadiness(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))

	resp, out := get(t, srv.URL+"/healthz")
	if resp.StatusCode != 200 || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, out)
	}
	resp, out = get(t, srv.URL+"/readyz")
	if resp.StatusCode != 200 || out["status"] != "ready" {
		t.Fatalf("readyz: %d %v", resp.StatusCode, out)
	}
}

func TestReadyzBeforeConstructionCompletes(t *testing.T) {
	resetTelemetry(t)
	s := NewWithPersistence(mustCube(t, []int{32, 32}, ddc.Options{}), nil, Options{})
	s.ready.Store(false) // simulate the pre-recovery window
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	resp, out := get(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "starting" {
		t.Fatalf("readyz during startup: %d %v", resp.StatusCode, out)
	}
	// Liveness stays green: the process is up even if not ready.
	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz during startup: %d", resp.StatusCode)
	}
}

func TestReadyzUnhealthyPersistence(t *testing.T) {
	resetTelemetry(t)
	p := brokenPersistence{err: errors.New("wal poisoned: fsync failed")}
	srv := httptest.NewServer(NewWithPersistence(mustCube(t, []int{32, 32}, ddc.Options{}), p, Options{}))
	t.Cleanup(srv.Close)
	resp, out := get(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "unready" {
		t.Fatalf("readyz with poisoned persistence: %d %v", resp.StatusCode, out)
	}
	if reason, _ := out["reason"].(string); !strings.Contains(reason, "fsync failed") {
		t.Fatalf("readyz reason = %q, want the health error", reason)
	}
	// Reads still work while draining.
	if resp, _ := get(t, srv.URL+"/v1/sum?range=0,0:31,31"); resp.StatusCode != 200 {
		t.Fatalf("sum while unready: %d", resp.StatusCode)
	}
}

// TestTraceparentPropagation: with telemetry on, every response carries
// a W3C traceparent, and an inbound header's trace ID is adopted.
func TestTraceparentPropagation(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))

	resp, err := http.Get(srv.URL + "/v1/sum?range=0,0:31,31")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	h := resp.Header.Get("traceparent")
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("response traceparent %q is not a version-00 header", h)
	}

	const upstream = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", srv.URL+"/v1/sum?range=0,0:31,31", nil)
	req.Header.Set("traceparent", "00-"+upstream+"-00f067aa0ba902b7-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	h = resp.Header.Get("traceparent")
	if !strings.Contains(h, upstream) {
		t.Fatalf("outbound traceparent %q did not adopt the caller's trace ID", h)
	}
}

// TestExplainBatchSchema checks the POST /v1/explain contract end to
// end: correct sums, the structured plan, a per-level visit profile
// inside the Theorem 1 budget, and a span tree whose stage spans sum to
// within the explain root's duration.
func TestExplainBatchSchema(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{64, 64}, ddc.Options{}))
	for _, body := range []string{
		`{"point":[5,7],"delta":100}`,
		`{"point":[30,40],"delta":7}`,
		`{"point":[50,9],"delta":-3}`,
	} {
		if resp, out := post(t, srv.URL+"/v1/add", body); resp.StatusCode != 200 {
			t.Fatalf("add: %d %v", resp.StatusCode, out)
		}
	}

	resp, out := post(t, srv.URL+"/v1/explain",
		`{"queries":[{"lo":[0,0],"hi":[31,31]},{"lo":[0,0],"hi":[63,63]},{"lo":[16,16],"hi":[47,47]}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %v", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("explain Content-Type = %q", ct)
	}

	if id, _ := out["trace_id"].(string); len(id) != 32 {
		t.Fatalf("trace_id = %v, want 32 hex digits", out["trace_id"])
	}
	sums, ok := out["sums"].([]interface{})
	if !ok || len(sums) != 3 {
		t.Fatalf("sums = %v, want 3 entries", out["sums"])
	}
	if sums[0].(float64) != 100 || sums[1].(float64) != 104 || sums[2].(float64) != 7 {
		t.Fatalf("explain sums = %v, want [100 104 7]", sums)
	}

	plan, ok := out["plan"].(map[string]interface{})
	if !ok {
		t.Fatalf("plan missing: %v", out)
	}
	for _, key := range []string{"queries", "corner_terms", "skipped_corners",
		"distinct_corners", "dedup_saved", "cache_hits", "cache_misses"} {
		if _, ok := plan[key]; !ok {
			t.Errorf("plan missing %q", key)
		}
	}
	if plan["queries"].(float64) != 3 {
		t.Fatalf("plan.queries = %v", plan["queries"])
	}

	budget, ok := out["budget"].(map[string]interface{})
	if !ok {
		t.Fatalf("budget missing: %v", out)
	}
	if within, _ := budget["within_budget"].(bool); !within {
		t.Fatalf("explain reports the batch outside the O(log^d n) budget: %v", budget)
	}
	if budget["outer_visits"].(float64) > budget["max_visits"].(float64) {
		t.Fatalf("outer_visits %v exceeds max_visits %v", budget["outer_visits"], budget["max_visits"])
	}
	levels, ok := out["levels"].([]interface{})
	if !ok || float64(len(levels)) > budget["tree_levels"].(float64) {
		t.Fatalf("levels = %v beyond tree_levels %v", out["levels"], budget["tree_levels"])
	}
	descents := plan["cache_misses"].(float64)
	for i, n := range levels {
		if n.(float64) > descents {
			t.Fatalf("level %d: %v visits for %v descents", i, n, descents)
		}
	}

	spans, ok := out["spans"].([]interface{})
	if !ok || len(spans) == 0 {
		t.Fatalf("spans missing: %v", out["spans"])
	}
	explain := findSpan(spans, "explain")
	if explain == nil {
		t.Fatalf("no explain root span in %v", spans)
	}
	kids, _ := explain["children"].([]interface{})
	var stageSum float64
	seen := map[string]bool{}
	for _, k := range kids {
		ks := k.(map[string]interface{})
		seen[ks["name"].(string)] = true
		stageSum += ks["duration_ns"].(float64)
	}
	for _, name := range []string{"batch.plan", "batch.dedup", "batch.execute", "batch.gather"} {
		if !seen[name] {
			t.Errorf("explain span tree missing stage %q (have %v)", name, seen)
		}
	}
	if parentDur := explain["duration_ns"].(float64); stageSum > parentDur {
		t.Fatalf("stage spans sum to %.0fns, beyond the explain span's %.0fns", stageSum, parentDur)
	}

	// Bad requests keep the schema honest.
	if resp, _ := post(t, srv.URL+"/v1/explain", `{"queries":[]}`); resp.StatusCode != 400 {
		t.Fatalf("empty explain batch: %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, srv.URL+"/v1/explain", `{"queries":[{"lo":[90,0],"hi":[9,9]}]}`); resp.StatusCode != 400 {
		t.Fatalf("inverted explain range: %d, want 400", resp.StatusCode)
	}
}

// findSpan walks a JSON-decoded span forest for a span by name.
func findSpan(spans []interface{}, name string) map[string]interface{} {
	for _, s := range spans {
		m, ok := s.(map[string]interface{})
		if !ok {
			continue
		}
		if m["name"] == name {
			return m
		}
		if kids, ok := m["children"].([]interface{}); ok {
			if found := findSpan(kids, name); found != nil {
				return found
			}
		}
	}
	return nil
}

// TestTraceRingStatsExposed: /v1/trace reports the ring's capacity and
// lifetime drop count alongside the retained traces.
func TestTraceRingStatsExposed(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))
	resp, out := get(t, srv.URL+"/v1/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	capacity, ok := out["capacity"].(float64)
	if !ok || capacity <= 0 {
		t.Fatalf("trace capacity = %v, want positive", out["capacity"])
	}
	if _, ok := out["dropped"].(float64); !ok {
		t.Fatalf("trace dropped = %v, want a count", out["dropped"])
	}
}

// TestBuildInfoExposed: the build identity reaches both /v1/stats and
// the ddc_build_info metric.
func TestBuildInfoExposed(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))

	_, out := get(t, srv.URL+"/v1/stats")
	build, ok := out["build"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats build section missing: %v", out)
	}
	if build["version"] != ddc.Version {
		t.Fatalf("stats build.version = %v, want %s", build["version"], ddc.Version)
	}
	if gv, _ := build["go_version"].(string); !strings.HasPrefix(gv, "go") {
		t.Fatalf("stats build.go_version = %v", build["go_version"])
	}
	if _, ok := out["slo"].(map[string]interface{}); !ok {
		t.Fatalf("stats slo section missing: %v", out)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, `ddc_build_info{version="`+ddc.Version+`"`) {
		t.Fatalf("/metrics missing ddc_build_info for %s", ddc.Version)
	}
}

// TestServedReadSampleRate: a served single-span read draws the trace
// sampler once, in the cube layer, so at sample rate N exactly 1 in N
// GET /v1/sum requests leaves a rangesum trace in the ring.
func TestServedReadSampleRate(t *testing.T) {
	const reads = 24
	for _, rate := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("rate%d", rate), func(t *testing.T) {
			resetTelemetry(t)
			srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))
			tel := ddc.GlobalTelemetry()
			tel.SetTraceSampling(rate)
			for i := 0; i < reads; i++ {
				if resp, _ := get(t, srv.URL+"/v1/sum?range=0,0:31,31"); resp.StatusCode != 200 {
					t.Fatalf("sum: %d", resp.StatusCode)
				}
			}
			n := 0
			for _, tr := range tel.Traces() {
				if tr.Op == "rangesum" {
					n++
				}
			}
			if want := reads / rate; n != want {
				t.Fatalf("%d reads at sample rate %d left %d rangesum traces, want %d", reads, rate, n, want)
			}
		})
	}
}

// TestTraceRingOneShape: under sampling 1 a served single-span read
// leaves the cube layer's rangesum span tree (its root carries the box
// and counts), a multi-span batch request leaves the request's span
// tree rooted at "http <path>" with the planner's stage spans beneath,
// and every retained trace has a non-empty span tree.
func TestTraceRingOneShape(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))
	tel := ddc.GlobalTelemetry()
	tel.SetTraceSampling(1)
	post(t, srv.URL+"/v1/add", `{"point":[3,4],"delta":5}`)
	get(t, srv.URL+"/v1/sum?range=1,2:30,31")
	post(t, srv.URL+"/v1/sum/batch", `{"queries":[{"lo":[0,0],"hi":[7,7]},{"lo":[2,3],"hi":[31,31]}]}`)

	byOp := map[string]obs.SpanSnapshot{}
	for _, tr := range tel.Traces() {
		if len(tr.Spans) == 0 {
			t.Fatalf("trace %q has no spans", tr.Op)
		}
		byOp[tr.Op] = tr.Spans[0]
	}
	sum, ok := byOp["rangesum"]
	if !ok || sum.Name != "rangesum" || sum.Attrs["lo.0"] != 1 || sum.Attrs["hi.1"] != 31 || sum.Attrs["node_visits"] == 0 {
		t.Errorf("rangesum trace root %+v (found %v)", sum, ok)
	}
	batch, ok := byOp["http /v1/sum/batch"]
	if !ok || batch.Name != "http /v1/sum/batch" {
		t.Fatalf("batch request trace root %+v (found %v)", batch, ok)
	}
	stages := map[string]bool{}
	for _, c := range batch.Children {
		stages[c.Name] = true
	}
	for _, stage := range []string{"batch.plan", "batch.dedup", "batch.execute", "batch.gather"} {
		if !stages[stage] {
			t.Errorf("batch request trace missing stage %q: %+v", stage, batch.Children)
		}
	}
	if _, ok := byOp["rangesum_batch"]; ok {
		t.Error("a traced request's batch was also admitted by the cube layer")
	}
}

// TestBatchBodyBounded posts a 262,144-query body (6.3 MB) to both
// batch endpoints: each must refuse it having read only its byte bound,
// not decode every box and then count them.
func TestBatchBodyBounded(t *testing.T) {
	resetTelemetry(t)
	s := New(mustCube(t, []int{64, 64}, ddc.Options{}), nil)
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i < 1<<18; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"lo":[1,2],"hi":[3,4]}`)
	}
	b.WriteString(`]}`)
	body := b.String()
	for _, path := range []string{"/v1/sum/batch", "/v1/explain"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Errorf("%s: refusing a %d-byte body allocated %d bytes", path, len(body), alloc)
		}
	}
}

// TestRequestTraceOneClock: a retained request trace takes its start
// and duration from its root span, so the record's duration_ns equals
// the root span's duration.
func TestRequestTraceOneClock(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))
	tel := ddc.GlobalTelemetry()
	tel.SetTraceSampling(1)
	for i := 0; i < 3; i++ {
		post(t, srv.URL+"/v1/sum/batch", `{"queries":[{"lo":[0,0],"hi":[7,7]},{"lo":[2,3],"hi":[31,31]}]}`)
	}
	n := 0
	for _, tr := range tel.Traces() {
		if tr.Op != "http /v1/sum/batch" {
			continue
		}
		n++
		if root := tr.Spans[0]; root.DurationNs != tr.DurationNs {
			t.Errorf("trace %s: root span lasted %d ns, the record %d ns", tr.TraceID, root.DurationNs, tr.DurationNs)
		}
	}
	if n != 3 {
		t.Fatalf("%d sampled batch request traces, want 3", n)
	}
}
