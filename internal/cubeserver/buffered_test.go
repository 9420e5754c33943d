package cubeserver

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ddc"
	"ddc/internal/store"
)

// Tests for the buffered (delta-front) serving mode: reads must compose
// tree + delta, tree-walk endpoints must drain first, and a crash still
// recovers every acknowledged mutation. The merger is disabled
// (FlushInterval < 0) so nothing drains behind the test's back — every
// correct answer below proves the composed read path, not a lucky
// drain.
func newBufferedServer(t *testing.T, dir string) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{
		Dims:     []int{8, 8},
		Buffered: true,
		Buffer:   ddc.BufferedOptions{MaxDelta: 1 << 28, FlushInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewWithPersistence(st.Cube(), st, Options{}))
	t.Cleanup(srv.Close)
	return srv, st
}

func TestBufferedServerReadYourWrites(t *testing.T) {
	srv, st := newBufferedServer(t, t.TempDir())
	if resp, _ := post(t, srv.URL+"/v1/add", `{"point":[1,1],"delta":5}`); resp.StatusCode != 200 {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	if resp, _ := post(t, srv.URL+"/v1/add/range", `{"lo":[0,0],"hi":[7,7],"delta":1}`); resp.StatusCode != 200 {
		t.Fatalf("range add status = %d", resp.StatusCode)
	}
	if st.Buffered().Stats().Drains != 0 {
		t.Fatal("precondition: nothing should have drained")
	}
	// The tree alone knows none of this; only the composed path does.
	if got := getOK(t, srv.URL+"/v1/get?point=1,1")["value"].(float64); got != 6 {
		t.Fatalf("get = %v, want 6", got)
	}
	if got := getOK(t, srv.URL+"/v1/sum?range=0,0:7,7")["sum"].(float64); got != 5+64 {
		t.Fatalf("sum = %v, want %d", got, 5+64)
	}
	if resp, out := post(t, srv.URL+"/v1/sum/batch", `{"queries":[{"lo":[1,1],"hi":[1,1]},{"lo":[0,0],"hi":[7,7]}]}`); resp.StatusCode != 200 {
		t.Fatalf("sum/batch status = %d: %v", resp.StatusCode, out)
	} else {
		sums := out["sums"].([]interface{})
		if sums[0].(float64) != 6 || sums[1].(float64) != 5+64 {
			t.Fatalf("batch sums = %v, want [6 69]", sums)
		}
	}
	if got := getOK(t, srv.URL+"/v1/stats")["total"].(float64); got != 5+64 {
		t.Fatalf("stats total = %v, want %d", got, 5+64)
	}
	if resp, out := post(t, srv.URL+"/v1/explain", `{"queries":[{"lo":[0,0],"hi":[7,7]}]}`); resp.StatusCode != 200 {
		t.Fatalf("explain status = %d: %v", resp.StatusCode, out)
	} else if sums := out["sums"].([]interface{}); sums[0].(float64) != 5+64 {
		t.Fatalf("explain sums = %v, want [69]", sums)
	}
}

func TestBufferedServerExplainDeltaKind(t *testing.T) {
	srv, _ := newBufferedServer(t, t.TempDir())
	if resp, _ := post(t, srv.URL+"/v1/add", `{"point":[2,3],"delta":7}`); resp.StatusCode != 200 {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	out := getOK(t, srv.URL+"/v1/explain?point=4,4")
	if got := out["prefix"].(float64); got != 7 {
		t.Fatalf("explain prefix = %v, want 7", got)
	}
	found := false
	for _, c := range out["contributions"].([]interface{}) {
		if c.(map[string]interface{})["Kind"] == "delta" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no delta contribution in %v", out["contributions"])
	}
}

func TestBufferedServerScanDrainsFront(t *testing.T) {
	srv, st := newBufferedServer(t, t.TempDir())
	if resp, _ := post(t, srv.URL+"/v1/add", `{"point":[3,4],"delta":9}`); resp.StatusCode != 200 {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	out := getOK(t, srv.URL+"/v1/scan?range=0,0:7,7")
	cells := out["cells"].([]interface{})
	if len(cells) != 1 || cells[0].(map[string]interface{})["value"].(float64) != 9 {
		t.Fatalf("scan cells = %v, want one cell of 9", cells)
	}
	if st.Buffered().DeltaDepth() != 0 {
		t.Fatal("scan should have drained the delta front")
	}
}

func TestBufferedServerSnapshotDrainsFront(t *testing.T) {
	srv, _ := newBufferedServer(t, t.TempDir())
	if resp, _ := post(t, srv.URL+"/v1/add", `{"point":[5,5],"delta":4}`); resp.StatusCode != 200 {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	c, err := ddc.LoadDynamic(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get([]int{5, 5}); got != 4 {
		t.Fatalf("snapshot cell = %d, want 4 (delta not drained into stream)", got)
	}
}

func TestBufferedServerCrashDurability(t *testing.T) {
	dir := t.TempDir()
	srv, st := newBufferedServer(t, dir)
	_, _ = post(t, srv.URL+"/v1/add", `{"point":[1,1],"delta":5}`)
	_, _ = post(t, srv.URL+"/v1/set", `{"point":[2,2],"value":3}`)
	_, _ = post(t, srv.URL+"/v1/add/range", `{"lo":[0,0],"hi":[1,1],"delta":2}`)
	if st.Buffered().Stats().Drains != 0 {
		t.Fatal("precondition: nothing should have drained")
	}
	srv.Close() // "crash": acked mutations live only in WAL + delta

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Cube().Get([]int{1, 1}); got != 7 {
		t.Fatalf("cell (1,1) = %d, want 7", got)
	}
	if got := st2.Cube().Total(); got != 5+3+8 {
		t.Fatalf("recovered total = %d, want %d", got, 5+3+8)
	}
}

func TestBufferedServerCheckpointKeepsServing(t *testing.T) {
	srv, st := newBufferedServer(t, t.TempDir())
	_, _ = post(t, srv.URL+"/v1/add", `{"point":[1,2],"delta":11}`)
	resp, out := post(t, srv.URL+"/v1/checkpoint", `{}`)
	if resp.StatusCode != 200 || out["checkpointed"] != true {
		t.Fatalf("checkpoint: status %d, body %v", resp.StatusCode, out)
	}
	// Checkpoint drained the front; reads still answer through it.
	if got := getOK(t, srv.URL+"/v1/get?point=1,2")["value"].(float64); got != 11 {
		t.Fatalf("get after checkpoint = %v, want 11", got)
	}
	_, _ = post(t, srv.URL+"/v1/add", `{"point":[1,2],"delta":1}`)
	if got := getOK(t, srv.URL+"/v1/get?point=1,2")["value"].(float64); got != 12 {
		t.Fatalf("get after post-checkpoint add = %v, want 12", got)
	}
	if err := st.Healthy(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(readyBody(t, srv.URL), "ready") {
		t.Fatal("server not ready after checkpoint")
	}
}

func readyBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	return string(buf[:n])
}

// getOK is get asserting a 200.
func getOK(t *testing.T, url string) map[string]interface{} {
	t.Helper()
	resp, out := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %v", url, resp.StatusCode, out)
	}
	return out
}
