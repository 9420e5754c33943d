package cubeserver

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ddc"
)

// resetTelemetry clears the process-wide telemetry between tests (the
// registry is global; server construction enables it).
func resetTelemetry(t *testing.T) {
	t.Helper()
	tel := ddc.GlobalTelemetry()
	tel.Reset()
	tel.SetTraceSampling(0)
	tel.SetSlowQueryThreshold(0)
	t.Cleanup(func() {
		tel.Disable()
		tel.SetTraceSampling(0)
		tel.SetSlowQueryThreshold(0)
		tel.Reset()
	})
}

// scrapeMetrics fetches /metrics and returns every sample line as a
// name -> value map (quantile lines keep their label suffix).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMetricsEndpointUnderLoad(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{100, 100}, ddc.Options{}))

	load := func(rounds int) {
		for i := 0; i < rounds; i++ {
			post(t, srv.URL+"/v1/add", fmt.Sprintf(`{"point":[%d,%d],"delta":3}`, i%100, (i*7)%100))
			get(t, srv.URL+fmt.Sprintf("/v1/sum?range=0,0:%d,99", 50+i%50))
		}
	}

	load(5)
	first := scrapeMetrics(t, srv.URL)
	if first[`ddc_updates_total{op="add",backend="auto"}`] != 5 {
		t.Errorf("adds after first load = %v, want 5", first[`ddc_updates_total{op="add",backend="auto"}`])
	}
	if first[`ddc_queries_total{op="rangesum",backend="auto"}`] != 5 {
		t.Errorf("range sums after first load = %v, want 5", first[`ddc_queries_total{op="rangesum",backend="auto"}`])
	}
	if first["ddc_query_latency_ns_count"] != 5 {
		t.Errorf("latency count = %v, want 5", first["ddc_query_latency_ns_count"])
	}
	if first[`ddc_query_latency_ns{quantile="0.5"}`] <= 0 {
		t.Error("latency p50 should be positive under load")
	}

	load(10)
	second := scrapeMetrics(t, srv.URL)
	if got := second[`ddc_queries_total{op="rangesum",backend="auto"}`]; got != 15 {
		t.Errorf("range sums after second load = %v, want 15", got)
	}
	if second["ddc_query_node_visits_total"] <= first["ddc_query_node_visits_total"] {
		t.Error("node visit counter did not advance under load")
	}
}

func TestStatsAndMetricsAgree(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{64, 64}, ddc.Options{}))

	for i := 0; i < 7; i++ {
		post(t, srv.URL+"/v1/add", fmt.Sprintf(`{"point":[%d,%d],"delta":1}`, i, i))
	}
	for i := 0; i < 4; i++ {
		get(t, srv.URL+"/v1/sum?range=0,0:63,63")
	}

	_, stats := get(t, srv.URL+"/v1/stats")
	ops, ok := stats["ops"].(map[string]interface{})
	if !ok {
		t.Fatalf("/v1/stats has no ops section: %v", stats)
	}
	metrics := scrapeMetrics(t, srv.URL)

	var scrapeQueries, scrapeUpdates float64
	for name, v := range metrics {
		if strings.HasPrefix(name, "ddc_queries_total{") {
			scrapeQueries += v
		}
		if strings.HasPrefix(name, "ddc_updates_total{") {
			scrapeUpdates += v
		}
	}
	if got := ops["queries"].(float64); got != scrapeQueries {
		t.Errorf("/v1/stats queries %v != /metrics total %v", got, scrapeQueries)
	}
	if got := ops["updates"].(float64); got != scrapeUpdates {
		t.Errorf("/v1/stats updates %v != /metrics total %v", got, scrapeUpdates)
	}
	if got := ops["query_cells"].(float64); got != metrics["ddc_query_cells_total"] {
		t.Errorf("/v1/stats query_cells %v != /metrics %v", got, metrics["ddc_query_cells_total"])
	}
}

func TestStatsCacheInvalidation(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{32, 32}, ddc.Options{}))

	post(t, srv.URL+"/v1/add", `{"point":[3,4],"delta":5}`)
	_, s1 := get(t, srv.URL+"/v1/stats")
	if s1["total"].(float64) != 5 {
		t.Fatalf("total = %v, want 5", s1["total"])
	}
	// A second read must serve the cached values unchanged.
	_, s2 := get(t, srv.URL+"/v1/stats")
	if s2["total"] != s1["total"] || s2["nonzero"] != s1["nonzero"] || s2["storage"] != s1["storage"] {
		t.Errorf("cached stats changed without a mutation: %v vs %v", s2, s1)
	}
	// A mutation must invalidate the cache.
	post(t, srv.URL+"/v1/add", `{"point":[9,9],"delta":7}`)
	_, s3 := get(t, srv.URL+"/v1/stats")
	if s3["total"].(float64) != 12 {
		t.Errorf("total after second add = %v, want 12", s3["total"])
	}
	if s3["nonzero"].(float64) != 2 {
		t.Errorf("nonzero after second add = %v, want 2", s3["nonzero"])
	}
	// Batches invalidate too (even partially applied ones).
	post(t, srv.URL+"/v1/batch", `{"ops":[{"op":"add","point":[1,1],"value":3}]}`)
	_, s4 := get(t, srv.URL+"/v1/stats")
	if s4["total"].(float64) != 15 {
		t.Errorf("total after batch = %v, want 15", s4["total"])
	}
}

func TestTraceEndpoint(t *testing.T) {
	resetTelemetry(t)
	cube := mustCube(t, []int{64, 64}, ddc.Options{})
	srv := httptest.NewServer(NewWithOptions(cube, nil, Options{
		TraceSample: 1,
		SlowQuery:   time.Nanosecond,
	}))
	t.Cleanup(srv.Close)

	post(t, srv.URL+"/v1/add", `{"point":[10,10],"delta":4}`)
	get(t, srv.URL+"/v1/sum?range=0,0:63,63")

	_, out := get(t, srv.URL+"/v1/trace")
	if out["sampling"].(float64) != 1 {
		t.Errorf("sampling = %v, want 1", out["sampling"])
	}
	if out["slow_query_ns"].(float64) != 1 {
		t.Errorf("slow_query_ns = %v, want 1", out["slow_query_ns"])
	}
	traces, ok := out["traces"].([]interface{})
	if !ok || len(traces) == 0 {
		t.Fatalf("no traces returned: %v", out)
	}
	tr := traces[0].(map[string]interface{})
	if tr["op"] != "rangesum" {
		t.Errorf("newest trace op = %v, want rangesum", tr["op"])
	}
	if tr["slow"] != true {
		t.Errorf("1ns threshold should mark the query slow: %v", tr)
	}
}

func TestPprofGated(t *testing.T) {
	resetTelemetry(t)
	cube := mustCube(t, []int{16, 16}, ddc.Options{})

	plain := httptest.NewServer(New(cube, nil))
	t.Cleanup(plain.Close)
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without the flag: status %d", resp.StatusCode)
	}

	prof := httptest.NewServer(NewWithOptions(cube, nil, Options{Pprof: true}))
	t.Cleanup(prof.Close)
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d, want 200", resp.StatusCode)
	}
}

// TestSumBatchEndpoint exercises POST /v1/sum/batch end to end: the
// batched sums must match the sequential endpoint, the response carries
// the planner's sharing stats, and telemetry attributes every logical
// query while counting the deduplicated work once — visible through
// both /metrics and /v1/stats.
func TestSumBatchEndpoint(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{64, 32}, ddc.Options{}))

	for i := 0; i < 40; i++ {
		post(t, srv.URL+"/v1/add", fmt.Sprintf(`{"point":[%d,%d],"delta":%d}`, (i*13)%64, (i*7)%32, 1+i%5))
	}

	// Overlapping windows: heavy corner sharing across the batch.
	body := `{"queries":[
		{"lo":[0,4],"hi":[15,27]},
		{"lo":[8,4],"hi":[23,27]},
		{"lo":[16,4],"hi":[31,27]},
		{"lo":[0,4],"hi":[15,27]}
	]}`
	resp, out := post(t, srv.URL+"/v1/sum/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	sums, ok := out["sums"].([]interface{})
	if !ok || len(sums) != 4 {
		t.Fatalf("sums = %v, want 4 values", out["sums"])
	}
	ranges := []string{"0,4:15,27", "8,4:23,27", "16,4:31,27", "0,4:15,27"}
	for i, rg := range ranges {
		_, one := get(t, srv.URL+"/v1/sum?range="+rg)
		if sums[i].(float64) != one["sum"].(float64) {
			t.Errorf("query %d: batch %v != sequential %v", i, sums[i], one["sum"])
		}
	}
	batch, ok := out["batch"].(map[string]interface{})
	if !ok {
		t.Fatalf("no batch stats in response: %v", out)
	}
	if batch["queries"].(float64) != 4 {
		t.Errorf("batch.queries = %v, want 4", batch["queries"])
	}
	terms := batch["corner_terms"].(float64)
	distinct := batch["distinct_corners"].(float64)
	if distinct <= 0 || distinct >= terms {
		t.Errorf("no dedup visible: %v distinct of %v terms", distinct, terms)
	}

	// Telemetry: 4 logical queries attributed, physical work once.
	m := scrapeMetrics(t, srv.URL)
	if got := m[`ddc_queries_total{op="rangesum_batch",backend="auto"}`]; got != 4 {
		t.Errorf(`ddc_queries_total{op="rangesum_batch",backend="auto"} = %v, want 4`, got)
	}
	if got := m["ddc_batch_queries_total"]; got != 4 {
		t.Errorf("ddc_batch_queries_total = %v, want 4", got)
	}
	if got := m["ddc_batch_distinct_corners_total"]; got != distinct {
		t.Errorf("ddc_batch_distinct_corners_total = %v, want %v", got, distinct)
	}
	if got := m["ddc_batch_corner_terms_total"]; got != terms {
		t.Errorf("ddc_batch_corner_terms_total = %v, want %v", got, terms)
	}
	if m["ddc_batch_size_count"] != 1 {
		t.Errorf("ddc_batch_size_count = %v, want 1", m["ddc_batch_size_count"])
	}

	// /v1/stats folds the batch members into the aggregate query count:
	// 4 sequential re-checks above plus the 4 batched queries.
	_, stats := get(t, srv.URL+"/v1/stats")
	ops := stats["ops"].(map[string]interface{})
	if got := ops["queries"].(float64); got != 8 {
		t.Errorf("stats queries = %v, want 8 (4 batched + 4 sequential)", got)
	}
}

// TestBackendLabelInStatsAndMetrics pins the per-backend telemetry
// surface: a server over a non-default backend must name it in
// /v1/stats, and /metrics must attribute its operations to the matching
// backend label while the other backends' series stay at zero.
func TestBackendLabelInStatsAndMetrics(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{64, 64}, ddc.Options{Backend: "blocked"}))

	for i := 0; i < 6; i++ {
		post(t, srv.URL+"/v1/add", fmt.Sprintf(`{"point":[%d,%d],"delta":2}`, i, 2*i))
	}
	for i := 0; i < 3; i++ {
		get(t, srv.URL+"/v1/sum?range=0,0:63,63")
	}

	_, stats := get(t, srv.URL+"/v1/stats")
	if got, _ := stats["backend"].(string); got != "blocked" {
		t.Errorf("/v1/stats backend = %q, want %q", got, "blocked")
	}

	m := scrapeMetrics(t, srv.URL)
	if got := m[`ddc_updates_total{op="add",backend="blocked"}`]; got != 6 {
		t.Errorf(`adds under backend="blocked" = %v, want 6`, got)
	}
	if got := m[`ddc_queries_total{op="rangesum",backend="blocked"}`]; got != 3 {
		t.Errorf(`range sums under backend="blocked" = %v, want 3`, got)
	}
	for _, be := range []string{"classic", "blockfenwick"} {
		if got := m[fmt.Sprintf(`ddc_updates_total{op="add",backend=%q}`, be)]; got != 0 {
			t.Errorf("backend %q saw %v adds, want 0", be, got)
		}
	}
}

// TestSumBatchEndpointErrors pins the endpoint's rejection paths.
func TestSumBatchEndpointErrors(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{16, 16}, ddc.Options{}))

	if resp, err := http.Get(srv.URL + "/v1/sum/batch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status = %d, want 405", resp.StatusCode)
		}
	}
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"queries":[]}`},
		{"malformed", `{"queries":`},
		{"bad query", `{"queries":[{"lo":[0,0],"hi":[3,3]},{"lo":[5,5],"hi":[2,2]}]}`},
		{"out of bounds", `{"queries":[{"lo":[0,0],"hi":[99,99]}]}`},
	} {
		resp, out := post(t, srv.URL+"/v1/sum/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.name, resp.StatusCode, out)
		}
	}
	// The failing index is named so clients can repair the batch.
	_, out := post(t, srv.URL+"/v1/sum/batch", `{"queries":[{"lo":[0,0],"hi":[3,3]},{"lo":[5,5],"hi":[2,2]}]}`)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "query 1") {
		t.Errorf("error %q does not name the failing query", msg)
	}
}
