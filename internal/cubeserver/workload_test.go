package cubeserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ddc"
	"ddc/internal/grid"
	"ddc/internal/obs"
	"ddc/internal/store"
	"ddc/internal/workload"
)

// attachCapture attaches a fresh sample-every-query capture of dims to
// s and returns its path; the capture is closed at cleanup unless the
// test detaches it first.
func attachCapture(t *testing.T, s *Server, dims []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.bin")
	cp, err := workload.NewCapture(workload.CaptureOptions{Path: path, Dims: dims, SampleQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCapture(cp)
	t.Cleanup(func() {
		if cp := s.AttachCapture(nil); cp != nil {
			cp.Close()
		}
	})
	return path
}

// readCapture detaches and closes s's capture and decodes it.
func readCapture(t *testing.T, s *Server, path string) (workload.CaptureInfo, []workload.CaptureRecord) {
	t.Helper()
	if err := s.AttachCapture(nil).Close(); err != nil {
		t.Fatal(err)
	}
	var recs []workload.CaptureRecord
	info, err := workload.ReadCaptureFile(path, func(r workload.CaptureRecord) error {
		r.At = 0
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, recs
}

// TestWorkloadEndpointSchema validates GET /v1/workload: only the
// capture block, detached under plain construction and counting the
// attached capture's records otherwise.
func TestWorkloadEndpointSchema(t *testing.T) {
	resetTelemetry(t)
	s := New(mustCube(t, []int{64, 64}, ddc.Options{}), nil)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	_, out := get(t, srv.URL+"/v1/workload")
	if !reflect.DeepEqual(out, map[string]interface{}{"capture": map[string]interface{}{"attached": false}}) {
		t.Errorf("detached /v1/workload = %v", out)
	}

	attachCapture(t, s, []int{64, 64})
	if resp, _ := post(t, srv.URL+"/v1/add", `{"point":[5,7],"delta":3}`); resp.StatusCode != 200 {
		t.Fatalf("add: %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/sum?range=0,0:31,31"); resp.StatusCode != 200 {
		t.Fatalf("sum: %d", resp.StatusCode)
	}
	resp, out := get(t, srv.URL+"/v1/workload")
	if resp.StatusCode != 200 || len(out) != 1 {
		t.Fatalf("workload: %d %v", resp.StatusCode, out)
	}
	capture := out["capture"].(map[string]interface{})
	stats, ok := capture["stats"].(map[string]interface{})
	if capture["attached"] != true || !ok {
		t.Fatalf("attached capture block: %v", capture)
	}
	if stats["records"] != 2.0 || stats["updates"] != 1.0 || stats["queries"] != 1.0 {
		t.Errorf("capture stats = %v, want 2 records (1 update, 1 query)", stats)
	}

	// Wrong method: the endpoint is read-only.
	if resp, _ := post(t, srv.URL+"/v1/workload", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/workload = %d, want 405", resp.StatusCode)
	}
}

// TestRequestSpan: handlers reach the request's trace through the
// status writer the middleware hands them, and an untraced request (any
// other writer) reports (nil, NoSpan).
func TestRequestSpan(t *testing.T) {
	if sc, id := requestSpan(httptest.NewRecorder()); sc != nil || id != obs.NoSpan {
		t.Fatal("a plain writer must report untraced")
	}
	want := obs.NewSpanContext(2)
	span := want.Start("s", obs.NoSpan)
	got, id := requestSpan(&statusWriter{ResponseWriter: httptest.NewRecorder(), sc: want, span: span})
	if got != want || id != span {
		t.Fatal("status writer lost the trace")
	}
}

// TestCaptureClientCoordinates: a capture holds one record per captured
// operation, in the coordinates the client sent, whatever sits below
// the server — a bare cube, or a store whose buffered front applies
// writes to the tree later, coalesced. Reads the capture does not
// record (GET /v1/get, GET /v1/explain, the value an add echoes) and
// failed requests leave no record; a batch that fails part-way leaves
// its applied prefix.
func TestCaptureClientCoordinates(t *testing.T) {
	resetTelemetry(t)
	dims := []int{64, 64}
	bufStore, err := store.Open(t.TempDir(), store.Options{
		Dims:     dims,
		Buffered: true,
		Buffer:   ddc.BufferedOptions{MaxDelta: 1 << 28, FlushInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bufStore.Close() })
	for name, s := range map[string]*Server{
		"cube":     New(mustCube(t, dims, ddc.Options{}), nil),
		"buffered": NewWithPersistence(bufStore.Cube(), bufStore, Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(s)
			t.Cleanup(srv.Close)
			path := attachCapture(t, s, dims)
			for _, req := range []struct{ method, target, body string }{
				{"POST", "/v1/add", `{"point":[48,10],"delta":5}`},
				{"POST", "/v1/add/range", `{"lo":[40,2],"hi":[60,20],"delta":-2}`},
				{"POST", "/v1/set", `{"point":[48,10],"value":9}`},
				{"POST", "/v1/batch", `{"ops":[{"op":"add","point":[1,2],"value":3},{"op":"set","point":[63,63],"value":4}]}`},
				{"POST", "/v1/batch", `{"ops":[{"op":"add","point":[7,7],"value":1},{"op":"rangeadd","point":[0,0],"value":1}]}`},
				{"POST", "/v1/add", `{"point":[64,0],"delta":1}`},
				{"GET", "/v1/get?point=48,10", ""},
				{"GET", "/v1/explain?point=48,10", ""},
				{"GET", "/v1/sum?range=32,0:63,63", ""},
				{"GET", "/v1/sum?range=0,0:99,99", ""},
				{"POST", "/v1/sum/batch", `{"queries":[{"lo":[0,0],"hi":[31,31]},{"lo":[48,10],"hi":[48,10]}]}`},
				{"POST", "/v1/explain", `{"queries":[{"lo":[40,0],"hi":[63,63]}]}`},
			} {
				var resp *http.Response
				var err error
				if req.method == "GET" {
					resp, err = http.Get(srv.URL + req.target)
				} else {
					resp, err = http.Post(srv.URL+req.target, "application/json", strings.NewReader(req.body))
				}
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			_, recs := readCapture(t, s, path)
			want := []workload.CaptureRecord{
				{Op: workload.OpAdd, Point: grid.Point{48, 10}, Value: 5},
				{Op: workload.OpRangeAdd, Lo: grid.Point{40, 2}, Hi: grid.Point{60, 20}, Value: -2},
				{Op: workload.OpRangeSum, Lo: grid.Point{40, 2}, Hi: grid.Point{60, 20}},
				{Op: workload.OpSet, Point: grid.Point{48, 10}, Value: 9},
				{Op: workload.OpAdd, Point: grid.Point{1, 2}, Value: 3},
				{Op: workload.OpSet, Point: grid.Point{63, 63}, Value: 4},
				{Op: workload.OpAdd, Point: grid.Point{7, 7}, Value: 1},
				{Op: workload.OpRangeSum, Lo: grid.Point{32, 0}, Hi: grid.Point{63, 63}},
				{Op: workload.OpBatch, Batch: []workload.Query{
					{Lo: grid.Point{0, 0}, Hi: grid.Point{31, 31}},
					{Lo: grid.Point{48, 10}, Hi: grid.Point{48, 10}},
				}},
				{Op: workload.OpBatch, Batch: []workload.Query{{Lo: grid.Point{40, 0}, Hi: grid.Point{63, 63}}}},
			}
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("capture records:\n got %+v\nwant %+v", recs, want)
			}
		})
	}
}

// replayAnswers rebuilds the captured state on a fresh cube and returns
// every captured query's answer, a batch contributing one per box.
func replayAnswers(t *testing.T, info workload.CaptureInfo, recs []workload.CaptureRecord) []int64 {
	t.Helper()
	c := mustCube(t, info.Dims, ddc.Options{})
	var answers []int64
	for _, rec := range recs {
		if m, ok := rec.Mutation(); ok {
			if err := m.Apply(c); err != nil {
				t.Fatal(err)
			}
			continue
		}
		boxes := rec.Batch
		if rec.Op == workload.OpRangeSum {
			boxes = []workload.Query{{Lo: rec.Lo, Hi: rec.Hi}}
		}
		for _, q := range boxes {
			v, err := c.RangeSum(q.Lo, q.Hi)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, v)
		}
	}
	return answers
}

// TestCaptureReplaysServedAnswers drives concurrent add, range-add, sum
// and batch clients against a buffered store with a capture attached
// (run it under -race) while a drainer applies the front to the tree at
// random moments. The capture must replay to the server's own answers:
// the multiset of replayed answers equals the multiset of answers the
// clients received. A capture taken where the tree applies writes — at
// the drain, coalesced and after the reads that saw them — fails this.
func TestCaptureReplaysServedAnswers(t *testing.T) {
	resetTelemetry(t)
	const side, writers, readers, iters = 32, 3, 3, 60
	dims := []int{side, side}
	st, err := store.Open(t.TempDir(), store.Options{
		Dims:     dims,
		Buffered: true,
		Buffer:   ddc.BufferedOptions{MaxDelta: 1 << 28, FlushInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := NewWithPersistence(st.Cube(), st, Options{})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	path := attachCapture(t, s, dims)

	var mu sync.Mutex
	var live []int64
	record := func(vs ...int64) {
		mu.Lock()
		live = append(live, vs...)
		mu.Unlock()
	}
	// call sends one request and decodes its JSON answer into out.
	call := func(method, target, body string, out any) error {
		var resp *http.Response
		var err error
		if method == "GET" {
			resp, err = http.Get(srv.URL + target)
		} else {
			resp, err = http.Post(srv.URL+target, "application/json", strings.NewReader(body))
		}
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", method, target, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var clients sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for i := 0; i < iters; i++ {
				p := fmt.Sprintf("[%d,%d]", (w*11+i*7)%side, (w*5+i*3)%side)
				var ack struct{ Value, Sum int64 }
				if err := call("POST", "/v1/add", fmt.Sprintf(`{"point":%s,"delta":%d}`, p, i+w+1), &ack); err != nil {
					errs <- err
					return
				}
				if i%10 == 9 {
					lo, hi := i%side, min(i%side+w+2, side-1)
					body := fmt.Sprintf(`{"lo":[%d,%d],"hi":[%d,%d],"delta":%d}`, lo, w, hi, w+4, w-1)
					if err := call("POST", "/v1/add/range", body, &ack); err != nil {
						errs <- err
						return
					}
					record(ack.Sum)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		clients.Add(1)
		go func(r int) {
			defer clients.Done()
			for i := 0; i < iters; i++ {
				if i%4 == 3 {
					var out struct{ Sums []int64 }
					body := fmt.Sprintf(`{"queries":[{"lo":[0,0],"hi":[%d,%d]},{"lo":[%d,0],"hi":[%d,%d]}]}`,
						i%side, side-1, r, side-1, i%side)
					if err := call("POST", "/v1/sum/batch", body, &out); err != nil {
						errs <- err
						return
					}
					record(out.Sums...)
					continue
				}
				var out struct{ Sum int64 }
				target := fmt.Sprintf("/v1/sum?range=%d,0:%d,%d", r, side-1, (i*5)%side)
				if err := call("GET", target, "", &out); err != nil {
					errs <- err
					return
				}
				record(out.Sum)
			}
		}(r)
	}
	stop, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if err := st.Buffered().Drain(); err != nil {
				errs <- err
				return
			}
		}
	}()
	clients.Wait()
	close(stop)
	<-drained
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	info, recs := readCapture(t, s, path)
	replayed := replayAnswers(t, info, recs)
	slices.Sort(live)
	slices.Sort(replayed)
	if !slices.Equal(replayed, live) {
		t.Fatalf("replayed answers differ from live: %d live, %d replayed\n live %v\n replayed %v",
			len(live), len(replayed), live, replayed)
	}
}
