package cubeserver

import (
	"net/http"
	"testing"

	"ddc"
)

// TestWorkloadEndpointSchema drives traffic through the HTTP surface
// and validates the GET /v1/workload response shape: the profile block
// (mix, heatmap with dim-0 marginals, shape histograms, heavy hitters),
// the cost-model backend recommendation, and the capture status (not
// attached under plain server construction).
func TestWorkloadEndpointSchema(t *testing.T) {
	resetTelemetry(t)
	srv := newTestServer(t, nil, mustCube(t, []int{64, 64}, ddc.Options{}))

	if resp, _ := post(t, srv.URL+"/v1/add", `{"point":[5,7],"delta":3}`); resp.StatusCode != 200 {
		t.Fatalf("add: %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/sum?range=0,0:31,31"); resp.StatusCode != 200 {
		t.Fatalf("sum: %d", resp.StatusCode)
	}

	resp, out := get(t, srv.URL+"/v1/workload")
	if resp.StatusCode != 200 {
		t.Fatalf("workload: %d %v", resp.StatusCode, out)
	}

	profile, ok := out["profile"].(map[string]interface{})
	if !ok {
		t.Fatalf("missing profile: %v", out)
	}
	if profile["enabled"] != true {
		t.Errorf("profile.enabled = %v", profile["enabled"])
	}
	if profile["reads"].(float64) != 1 || profile["writes"].(float64) != 1 {
		t.Errorf("mix: reads=%v writes=%v", profile["reads"], profile["writes"])
	}
	if rf := profile["read_fraction"].(float64); rf != 0.5 {
		t.Errorf("read_fraction = %v", rf)
	}
	hm, ok := profile["heatmap"].(map[string]interface{})
	if !ok {
		t.Fatalf("missing heatmap: %v", profile)
	}
	grid := int(hm["grid"].(float64))
	if grid != 64 {
		t.Errorf("heatmap.grid = %d", grid)
	}
	for _, plane := range []string{"read", "write"} {
		cells, ok := hm[plane].([]interface{})
		if !ok || len(cells) != grid*grid {
			t.Errorf("heatmap.%s has %d cells, want %d", plane, len(cells), grid*grid)
		}
	}
	for _, marginal := range []string{"read_dim0", "write_dim0"} {
		m, ok := hm[marginal].([]interface{})
		if !ok || len(m) != grid {
			t.Errorf("heatmap.%s has %d entries, want %d", marginal, len(m), grid)
		}
	}
	if ext, ok := profile["extent_log2"].([]interface{}); !ok || len(ext) != 2 {
		t.Errorf("extent_log2: %v", profile["extent_log2"])
	}
	if _, ok := profile["volume_log2"].([]interface{}); !ok {
		t.Errorf("volume_log2: %v", profile["volume_log2"])
	}
	hh, ok := profile["heavy_hitters"].([]interface{})
	if !ok || len(hh) == 0 {
		t.Fatalf("heavy_hitters: %v", profile["heavy_hitters"])
	}
	first := hh[0].(map[string]interface{})
	for _, k := range []string{"lo", "hi", "count", "error"} {
		if _, ok := first[k]; !ok {
			t.Errorf("heavy hitter missing %q: %v", k, first)
		}
	}

	capture, ok := out["capture"].(map[string]interface{})
	if !ok || capture["attached"] != false {
		t.Errorf("capture: %v", out["capture"])
	}

	// Wrong method: the endpoint is read-only.
	if resp, _ := post(t, srv.URL+"/v1/workload", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/workload = %d, want 405", resp.StatusCode)
	}
}
