// Command obssmoke is the CI observability smoke test: it boots a real
// ddcserver binary with every query traced, waits for readiness, loads
// a few cells, runs a span-traced batch EXPLAIN and validates the
// response shape — the trace identity, the plan, the Theorem 1 visit
// budget and the stage span tree — then checks the health, trace-ring,
// build-info and workload-capture surfaces, requires every retained
// trace to be a span tree, and shuts the server down gracefully.
// Standard library only.
//
//	go build -o /tmp/ddcserver ./cmd/ddcserver
//	go run ./scripts/obssmoke -server /tmp/ddcserver
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

func main() {
	server := flag.String("server", "", "path to a built ddcserver binary")
	timeout := flag.Duration("timeout", 15*time.Second, "readiness deadline")
	flag.Parse()
	if *server == "" {
		fatalf("obssmoke: -server is required")
	}
	if err := run(*server, *timeout); err != nil {
		fatalf("obssmoke: %v", err)
	}
	fmt.Println("obssmoke: ok")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func run(server string, timeout time.Duration) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := exec.Command(server,
		"-dims", "64,64",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-slow-query", "1ms",
		"-trace-sample", "1",
		"-slo-objective", "100ms")
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %v", server, err)
	}
	defer cmd.Process.Kill()

	if err := pollReady(base, timeout); err != nil {
		return err
	}
	if err := checkExplain(base); err != nil {
		return err
	}
	if err := checkSurfaces(base); err != nil {
		return err
	}
	if err := checkWorkload(base); err != nil {
		return err
	}
	if err := checkTraces(base); err != nil {
		return err
	}

	// Graceful shutdown: SIGTERM must flush the ring and exit cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling server: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exited uncleanly: %v", err)
		}
	case <-time.After(timeout):
		return fmt.Errorf("server did not exit within %v of SIGTERM", timeout)
	}
	return nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// pollReady waits for GET /readyz to answer 200 {"status":"ready"}.
func pollReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			var body struct {
				Status string `json:"status"`
			}
			err := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == 200 && body.Status == "ready" {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v", timeout)
}

func postJSON(url, body string, out interface{}) (*http.Response, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp, fmt.Errorf("%s: decoding response: %v", url, err)
		}
	}
	return resp, nil
}

// explainResponse is the POST /v1/explain schema the smoke validates;
// pointers distinguish "absent" from zero values.
type explainResponse struct {
	TraceID string  `json:"trace_id"`
	Sums    []int64 `json:"sums"`
	Plan    *struct {
		Queries         int `json:"queries"`
		CornerTerms     int `json:"corner_terms"`
		SkippedCorners  int `json:"skipped_corners"`
		DistinctCorners int `json:"distinct_corners"`
		DedupSaved      int `json:"dedup_saved"`
		CacheHits       int `json:"cache_hits"`
		CacheMisses     int `json:"cache_misses"`
	} `json:"plan"`
	Levels []uint64 `json:"levels"`
	Budget *struct {
		TreeLevels   int    `json:"tree_levels"`
		Descents     int    `json:"descents"`
		MaxVisits    uint64 `json:"max_visits"`
		OuterVisits  uint64 `json:"outer_visits"`
		WithinBudget *bool  `json:"within_budget"`
	} `json:"budget"`
	Spans []spanNode `json:"spans"`
}

type spanNode struct {
	Name       string     `json:"name"`
	DurationNs int64      `json:"duration_ns"`
	Children   []spanNode `json:"children"`
}

func checkExplain(base string) error {
	for i, body := range []string{
		`{"point":[5,7],"delta":100}`,
		`{"point":[30,40],"delta":7}`,
	} {
		resp, err := postJSON(base+"/v1/add", body, nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != 200 {
			return fmt.Errorf("add %d: status %d", i, resp.StatusCode)
		}
	}
	var ex explainResponse
	resp, err := postJSON(base+"/v1/explain",
		`{"queries":[{"lo":[0,0],"hi":[31,31]},{"lo":[0,0],"hi":[63,63]}]}`, &ex)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("explain: status %d", resp.StatusCode)
	}
	if len(ex.TraceID) != 32 {
		return fmt.Errorf("explain trace_id %q is not 32 hex digits", ex.TraceID)
	}
	if len(ex.Sums) != 2 || ex.Sums[0] != 100 || ex.Sums[1] != 107 {
		return fmt.Errorf("explain sums = %v, want [100 107]", ex.Sums)
	}
	if ex.Plan == nil || ex.Budget == nil {
		return fmt.Errorf("explain missing plan or budget section")
	}
	if ex.Plan.Queries != 2 || ex.Plan.CornerTerms < 1 {
		return fmt.Errorf("explain plan = %+v", *ex.Plan)
	}
	if ex.Budget.WithinBudget == nil || !*ex.Budget.WithinBudget {
		return fmt.Errorf("explain batch outside the O(log^d n) budget: %+v", *ex.Budget)
	}
	if len(ex.Levels) > ex.Budget.TreeLevels {
		return fmt.Errorf("explain levels span %d > tree_levels %d", len(ex.Levels), ex.Budget.TreeLevels)
	}
	for i, n := range ex.Levels {
		if n > uint64(ex.Plan.CacheMisses) {
			return fmt.Errorf("level %d: %d visits for %d descents", i, n, ex.Plan.CacheMisses)
		}
	}
	root := findSpan(ex.Spans, "explain")
	if root == nil {
		return fmt.Errorf("explain span tree has no explain root")
	}
	var stageSum int64
	seen := map[string]bool{}
	for _, c := range root.Children {
		seen[c.Name] = true
		stageSum += c.DurationNs
	}
	for _, stage := range []string{"batch.plan", "batch.dedup", "batch.execute", "batch.gather"} {
		if !seen[stage] {
			return fmt.Errorf("explain span tree missing stage %q", stage)
		}
	}
	if stageSum > root.DurationNs {
		return fmt.Errorf("stage spans sum to %dns beyond the parent's %dns", stageSum, root.DurationNs)
	}
	return nil
}

func findSpan(spans []spanNode, name string) *spanNode {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if found := findSpan(spans[i].Children, name); found != nil {
			return found
		}
	}
	return nil
}

// checkSurfaces hits the remaining observability endpoints: liveness,
// the trace ring's self-description and the build-info metric.
func checkSurfaces(base string) error {
	var health struct {
		Status string `json:"status"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || health.Status != "ok" {
		return fmt.Errorf("healthz: status %d %+v", resp.StatusCode, health)
	}

	var ring struct {
		Capacity *int    `json:"capacity"`
		Dropped  *uint64 `json:"dropped"`
	}
	resp, err = http.Get(base + "/v1/trace")
	if err != nil {
		return err
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		resp.Body.Close()
		return fmt.Errorf("/v1/trace Content-Type = %q", ct)
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil || ring.Capacity == nil || *ring.Capacity <= 0 || ring.Dropped == nil {
		return fmt.Errorf("/v1/trace ring stats missing: %+v (err %v)", ring, err)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{"ddc_build_info{", "ddc_slo_requests_total{", "ddc_queries_total{"} {
		if !strings.Contains(string(scrape), want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}
	return nil
}

// checkWorkload validates GET /v1/workload: its capture block reports
// no capture attached for this run.
func checkWorkload(base string) error {
	var wl struct {
		Capture *struct {
			Attached *bool `json:"attached"`
		} `json:"capture"`
	}
	resp, err := http.Get(base + "/v1/workload")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&wl)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		return fmt.Errorf("/v1/workload: status %d (err %v)", resp.StatusCode, err)
	}
	if wl.Capture == nil || wl.Capture.Attached == nil || *wl.Capture.Attached {
		return fmt.Errorf("/v1/workload capture block wrong: %+v", wl.Capture)
	}
	return nil
}

// checkTraces validates the one GET /v1/trace shape after the traffic
// above and one range sum, all of it sampled: every retained trace has
// an op and a non-empty span tree; a cube-layer trace's root span is
// named by its op (the range sum leaves a rangesum trace), and a
// request trace's
// root is "http <path>" (the EXPLAIN request leaves one).
func checkTraces(base string) error {
	var ring struct {
		Traces []struct {
			Op    string     `json:"op"`
			Spans []spanNode `json:"spans"`
		} `json:"traces"`
	}
	// One plain range sum, which leaves a rangesum trace.
	resp, err := http.Get(base + "/v1/sum?range=0,0:31,31")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("/v1/sum: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/trace")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		return fmt.Errorf("/v1/trace: status %d (err %v)", resp.StatusCode, err)
	}
	seen := map[string]bool{}
	for i, tr := range ring.Traces {
		cubeOp := tr.Op == "prefix" || tr.Op == "rangesum" || tr.Op == "rangesum_batch"
		if !cubeOp && !strings.HasPrefix(tr.Op, "http /") {
			return fmt.Errorf("/v1/trace entry %d: op %q is neither a cube op nor a request", i, tr.Op)
		}
		if len(tr.Spans) == 0 || tr.Spans[0].Name != tr.Op {
			return fmt.Errorf("/v1/trace entry %d: op %q needs a span tree rooted at %q: %+v", i, tr.Op, tr.Op, tr.Spans)
		}
		seen[tr.Op] = true
	}
	for _, op := range []string{"rangesum", "http /v1/explain"} {
		if !seen[op] {
			return fmt.Errorf("/v1/trace has no %q trace among %d", op, len(ring.Traces))
		}
	}
	return nil
}
