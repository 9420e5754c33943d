package cubeserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ddc"
	"ddc/internal/cubecli"
)

// Bodies every decoder's fuzz corpus starts from: the documented shapes
// and the inputs the scanner must hand to encoding/json.
var queriesSeeds = []string{
	`{"queries":[{"lo":[27,220],"hi":[45,251]}]}`,
	`{"queries":[{"lo":[0,0],"hi":[7,7]},{"lo":[2,3],"hi":[31,31]}]}`,
	`{"Queries":[{"LO":[1,2],"Hi":[3,4]}]}`,
	" \t\n{ \"queries\" :\r[ { \"lo\" : [ 1 , 2 ] , \"hi\" : [ 3 , 4 ] } ] } \n",
	`{"queries":[{"lo":[1],"lo":[2],"hi":[3]}]}`,
	`{"queries":[],"queries":[{"lo":[1],"hi":[2]}]}`,
	`{"queries":[{"lo":[1],"hi":[2],"mid":[0]}],"limit":3}`,
	`{"queries":null}`,
	`{"queries":[null]}`,
	`{"queries":[{"lo":null,"hi":[1]}]}`,
	`{"queries":[{"lo":[-0],"hi":[1.0]}]}`,
	`{"queries":[{"lo":[01],"hi":[1]}]}`,
	`{"queries":[{"lo":[1e3],"hi":[1]}]}`,
	`{"queries":[{"lo":[123456789012345678],"hi":[-123456789012345678]}]}`,
	`{"queries":[{"lo":[1234567890123456789],"hi":[1]}]}`,
	`{"queries":[{"lo":[99999999999999999999],"hi":[1]}]}`,
	`{"querieſ":[{"lo":[1],"hi":[2]}]}`,
	`{"queries":[{"\u006co":[1],"hi":[2]}]}`,
	`{"queries":[{"lo":[1],"hi":[2]}]}`,
	`{"queries":[{"lo":[1],"hi":[2]}]} trailing`,
	`{"queries":[{"lo":[1],"hi":[2]}]}{"queries":[]}`,
	`{"queries":[]}`,
	`{"queries":[{}]}`,
	`{"queries":[{"lo":[],"hi":[]}]}`,
	`{}`,
	`[]`,
	``,
	`{"queries":[{"lo":[1,],"hi":[2]}]}`,
	`{"queries":[{"lo":[1],"hi":[2]},]}`,
	`{"queries":[{"lo":["1"],"hi":[2]}]}`,
	`{"queries":[{"lo":[-],"hi":[2]}]}`,
	`{"queries":[{"lo":[1 2],"hi":[2]}]}`,
}

var mutationSeeds = []string{
	`{"point":[45,341],"delta":250}`,
	`{"point":[45,341],"value":-250}`,
	`{"lo":[27,220],"hi":[45,251],"delta":250}`,
	`{"Point":[1,2],"DELTA":3,"Value":4}`,
	`{"LO":[1],"Hi":[2],"Delta":-0}`,
	" {\n\"point\" : [ 1 ,2 ] ,\t\"delta\" : 3 }\r\n",
	`{"point":[1],"point":[2],"delta":3}`,
	`{"lo":[1],"hi":[2],"delta":3,"delta":4}`,
	`{"point":[1],"delta":3,"extra":{"a":[1]}}`,
	`{"point":null,"delta":null}`,
	`{"point":[1],"delta":1.0}`,
	`{"point":[01],"delta":1}`,
	`{"point":[1],"delta":1234567890123456789}`,
	`{"point":[1],"delta":9223372036854775808}`,
	`{"point":[1],"delta":-9223372036854775808}`,
	`{"poinţ":[1],"delta":1}`,
	`{"\u006co":[1],"hi":[2],"d\u0065lta":3}`,
	`{"point":[1],"delta":1}`,
	`{"point":[1],"delta":2} garbage`,
	`{"point":[],"delta":2}`,
	`{"lo":[],"hi":[],"delta":2}`,
	`{}`,
	``,
	`{"point":[1],"delta":"2"}`,
	`{"point":[1],"delta":2`,
}

var rangeQuerySeeds = []string{
	"range=27,220:45,251",
	"range=-0,007:3,4",
	"range=1,2:3",
	"range=1,2:3,4:5",
	"range=1,2%3A3,4",
	"range=1+2:3,4",
	"a=1;range=1,2:3,4",
	"range=1,2:3,4&range=5,6:7,8",
	"point=3,4&range=0,0:1,1",
	"point=-3,+4",
	"point=3,,4",
	"point=",
	"range=",
	"range",
	"",
	"&&range=1:2",
	"=5&range=1:2",
	"range=1234567890123456789,0:1,1",
	"range=123456789012345678,0:1,1",
	"range=99999999999999999999:1",
	"range= 1,2:3,4",
	"range=+1,2:3,4",
	"range=%zz&range=1:2",
	"range=-:1",
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestCodecScansDocumentedShapes: the bodies and queries the endpoints
// document (and perfbench sends) are taken by the scanners, not handed
// to encoding/json — without this the fuzz targets below would compare
// encoding/json with itself.
func TestCodecScansDocumentedShapes(t *testing.T) {
	x := getScratch()
	defer putScratch(x)
	for _, body := range queriesSeeds[:4] {
		x.body = []byte(body)
		if !x.scanQueries() {
			t.Errorf("batch body %q was not scanned", body)
		}
	}
	for _, body := range mutationSeeds[:2] {
		x.body = []byte(body)
		if !x.scanMutation() {
			t.Errorf("mutation body %q was not scanned", body)
		}
	}
	x.body = []byte(mutationSeeds[2])
	if !x.scanRangeMutation() {
		t.Errorf("range body %q was not scanned", x.body)
	}
	for _, s := range []string{"1,2", "-0,007,123456789012345678"} {
		if _, ok := x.point(s); !ok {
			t.Errorf("point %q was not scanned", s)
		}
	}
}

// FuzzDecodeQueries: the served batch-body decoder and encoding/json
// agree on every input — accept or reject, the boxes, the error text.
func FuzzDecodeQueries(f *testing.F) {
	for _, s := range queriesSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		x := getScratch()
		defer putScratch(x)
		err := x.decode(bytes.NewReader(body), -1, x.scanQueries, &x.batch)
		got := x.batch.Queries
		var want struct{ Queries []ddc.RangeQuery }
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if errText(err) != errText(werr) {
			t.Fatalf("%q: error %q, encoding/json %q", body, errText(err), errText(werr))
		}
		if werr == nil && !reflect.DeepEqual(got, want.Queries) {
			t.Fatalf("%q: decoded %#v, encoding/json %#v", body, got, want.Queries)
		}
	})
}

// FuzzDecodeMutation: the served point-mutation and box-update decoders
// agree with encoding/json on every input.
func FuzzDecodeMutation(f *testing.F) {
	for _, s := range mutationSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		x := getScratch()
		defer putScratch(x)
		err := x.decode(bytes.NewReader(body), maxPooled, x.scanMutation, &x.mut)
		var want mutation
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if errText(err) != errText(werr) {
			t.Fatalf("%q: point error %q, encoding/json %q", body, errText(err), errText(werr))
		}
		if werr == nil && !reflect.DeepEqual(x.mut, want) {
			t.Fatalf("%q: point body %#v, encoding/json %#v", body, x.mut, want)
		}
		err = x.decode(bytes.NewReader(body), maxPooled, x.scanRangeMutation, &x.rmut)
		var wantRange rangeMutation
		werr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantRange)
		if errText(err) != errText(werr) {
			t.Fatalf("%q: range error %q, encoding/json %q", body, errText(err), errText(werr))
		}
		if werr == nil && !reflect.DeepEqual(x.rmut, wantRange) {
			t.Fatalf("%q: range body %#v, encoding/json %#v", body, x.rmut, wantRange)
		}
	})
}

// FuzzParseRangeQuery: a raw query's range and point parse as
// url.ParseQuery + cubecli.ParseRange/ParsePoint parse them.
func FuzzParseRangeQuery(f *testing.F) {
	for _, s := range rangeQuerySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		x := getScratch()
		defer putScratch(x)
		values, _ := url.ParseQuery(raw)
		lo, hi, err := x.parseRange(queryValue(raw, "range"))
		wlo, whi, werr := cubecli.ParseRange(values.Get("range"))
		if errText(err) != errText(werr) || !reflect.DeepEqual(lo, wlo) || !reflect.DeepEqual(hi, whi) {
			t.Fatalf("range %q: %v %v %q, want %v %v %q", raw, lo, hi, errText(err), wlo, whi, errText(werr))
		}
		p, err := x.parsePoint(queryValue(raw, "point"))
		wp, werr := cubecli.ParsePoint(values.Get("point"))
		if errText(err) != errText(werr) || !reflect.DeepEqual(p, wp) {
			t.Fatalf("point %q: %v %q, want %v %q", raw, p, errText(err), wp, errText(werr))
		}
	})
}

// encode is the reflective response encoding the append encoders stand
// in for.
func encode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestResponseBytes: the append encoders write exactly the bytes
// json.Encoder writes for the handlers' former map literals, over random
// values and the int64 extremes; and each hot endpoint answers with them.
func TestResponseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	for i := 0; i < 200; i++ {
		values = append(values, rng.Int63()-rng.Int63(), rng.Int63n(1000)-500)
	}
	for _, v := range values {
		for _, key := range []string{"sum", "value"} {
			if got, want := string(appendInt(nil, key, v)), encode(t, map[string]int64{key: v}); got != want {
				t.Fatalf("%s %d: %q, want %q", key, v, got, want)
			}
		}
	}
	for i := 0; i < 100; i++ {
		sums := make([]int64, 1+rng.Intn(20))
		for j := range sums {
			sums[j] = values[rng.Intn(len(values))]
		}
		st := ddc.BatchStats{Queries: rng.Intn(4097), CornerTerms: rng.Int(), SkippedCorners: rng.Intn(3),
			DistinctCorners: rng.Intn(1 << 20), CacheHits: 0, CacheMisses: math.MaxInt}
		want := encode(t, map[string]interface{}{
			"sums": sums,
			"batch": map[string]int{
				"queries":          st.Queries,
				"corner_terms":     st.CornerTerms,
				"skipped_corners":  st.SkippedCorners,
				"distinct_corners": st.DistinctCorners,
				"cache_hits":       st.CacheHits,
				"cache_misses":     st.CacheMisses,
			},
		})
		if got := string(appendBatch(nil, sums, st)); got != want {
			t.Fatalf("batch: %q, want %q", got, want)
		}
	}

	resetTelemetry(t)
	c := mustCube(t, []int{16, 16}, ddc.Options{})
	s := New(c, nil)
	serve := func(method, target, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: status %d, content type %q", method, target, rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.String()
	}
	for _, tc := range []struct {
		name, method, target, body string
		want                       func() any
	}{
		{"set", "POST", "/v1/set", `{"point":[1,2],"value":-9223372036854775807}`,
			func() any { return map[string]int64{"value": -math.MaxInt64} }},
		{"add", "POST", "/v1/add", `{"point":[1,2],"delta":-1}`,
			func() any { return map[string]int64{"value": math.MinInt64} }},
		{"get", "GET", "/v1/get?point=1,2", "",
			func() any { return map[string]int64{"value": math.MinInt64} }},
		{"sum", "GET", "/v1/sum?range=0,0:15,15", "",
			func() any { return map[string]int64{"sum": math.MinInt64} }},
		{"sum of nothing", "GET", "/v1/sum?range=3,3:4,4", "",
			func() any { return map[string]int64{"sum": 0} }},
		{"add max", "POST", "/v1/add", `{"point":[9,9],"delta":9223372036854775807}`,
			func() any { return map[string]int64{"value": math.MaxInt64} }},
		{"range add", "POST", "/v1/add/range", `{"lo":[5,5],"hi":[6,6],"delta":3}`,
			func() any { sum, _ := c.RangeSum([]int{5, 5}, []int{6, 6}); return map[string]int64{"sum": sum} }},
	} {
		got := serve(tc.method, tc.target, tc.body)
		if want := encode(t, tc.want()); got != want {
			t.Errorf("%s: body %q, want %q", tc.name, got, want)
		}
	}
	// The batch's statistics depend on the prefix cache's state, so the
	// served values are checked against the cube, then re-encoded.
	qs := []ddc.RangeQuery{{Lo: []int{0, 0}, Hi: []int{15, 15}}, {Lo: []int{3, 3}, Hi: []int{4, 4}}, {Lo: []int{9, 9}, Hi: []int{9, 9}}}
	body, _ := json.Marshal(struct{ Queries []ddc.RangeQuery }{qs})
	got := serve("POST", "/v1/sum/batch", string(body))
	var resp struct {
		Sums  []int64
		Batch map[string]int
	}
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	wantSums, _ := c.RangeSumBatch(qs)
	if !reflect.DeepEqual(resp.Sums, wantSums) || len(resp.Batch) != 6 || resp.Batch["queries"] != len(qs) {
		t.Errorf("batch: sums %v stats %v, want sums %v and six statistics", resp.Sums, resp.Batch, wantSums)
	}
	if want := encode(t, map[string]interface{}{"sums": resp.Sums, "batch": resp.Batch}); got != want {
		t.Errorf("batch: body %q, want %q", got, want)
	}
}

// nopWriter is a ResponseWriter that keeps nothing but its header map.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// resetBody is a request body that can be rewound between runs.
type resetBody struct{ strings.Reader }

func (*resetBody) Close() error { return nil }

// TestServedHandlerAllocs pins the allocations of one served hot request
// with telemetry on and sampling off, the request reused: the codec
// reads, scans and encodes in pooled scratch, so what is left is the
// middleware's trace plumbing and the engine's own.
func TestServedHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	resetTelemetry(t)
	s := New(mustCube(t, []int{256, 256}, ddc.Options{}), nil)
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"lo":[%d,%d],"hi":[%d,%d]}`, i, 2*i, 100+i, 200+i)
	}
	b.WriteString(`]}`)
	for _, c := range []struct {
		method, target, body string
		max                  float64
	}{
		{"GET", "/v1/sum?range=1,2:200,201", "", 4},         // 26 with encoding/json
		{"POST", "/v1/sum/batch", b.String(), 6},            // 120
		{"POST", "/v1/add", `{"point":[3,4],"delta":5}`, 4}, // 30
		{"POST", "/v1/add/range", `{"lo":[3,4],"hi":[9,9],"delta":5}`, 4},
		{"GET", "/v1/get?point=3,4", "", 4},
	} {
		body := &resetBody{}
		req := httptest.NewRequest(c.method, c.target, nil)
		w := &nopWriter{h: http.Header{}}
		n := testing.AllocsPerRun(200, func() {
			body.Reset(c.body)
			req.Body = body
			s.ServeHTTP(w, req)
		})
		t.Logf("%s %s: %.0f allocs per request", c.method, c.target, n)
		if n > c.max {
			t.Errorf("%s %s: %.0f allocs per request, want at most %.0f", c.method, c.target, n, c.max)
		}
	}
}

// TestServedPooledScratchRace runs batch and sum readers, add and
// range-add writers and the /v1/workload and /v1/trace endpoints at once
// (run it under -race). Readers query a region no writer touches, and
// each writer owns its rows, so every answer is known exactly while the
// others run; at quiescence the whole cube must equal a NaiveCube replay
// of every write.
func TestServedPooledScratchRace(t *testing.T) {
	resetTelemetry(t)
	const side, iters = 64, 150
	dims := []int{side, side}
	c := mustCube(t, dims, ddc.Options{})
	rng := rand.New(rand.NewSource(7))
	type op struct {
		box   ddc.RangeQuery
		delta int64
	}
	var preload []op
	for i := 0; i < 400; i++ {
		p := []int{rng.Intn(side), rng.Intn(side)}
		v := rng.Int63n(1000) - 500
		if err := c.Add(p, v); err != nil {
			t.Fatal(err)
		}
		preload = append(preload, op{ddc.RangeQuery{Lo: p, Hi: p}, v})
	}
	// replay returns a NaiveCube holding the preload and then ops; a
	// NaiveCube's reads count operations, so each goroutine has its own.
	replay := func(ops ...[]op) *ddc.NaiveCube {
		n, _ := ddc.NewNaive(dims)
		for _, list := range append([][]op{preload}, ops...) {
			for _, o := range list {
				n.RangeAdd(o.box.Lo, o.box.Hi, o.delta)
			}
		}
		return n
	}
	initial := replay()
	srv := newTestServer(t, nil, c)
	ddc.GlobalTelemetry().SetTraceSampling(1)

	// Rows [0,32) are read-only; writer w owns rows [32+16w, 48+16w).
	randBox := func(rng *rand.Rand, row0, rows int) ddc.RangeQuery {
		r0, r1 := row0+rng.Intn(rows), row0+rng.Intn(rows)
		c0, c1 := rng.Intn(side), rng.Intn(side)
		return ddc.RangeQuery{Lo: []int{min(r0, r1), min(c0, c1)}, Hi: []int{max(r0, r1), max(c0, c1)}}
	}
	boxes := make([]ddc.RangeQuery, 64)
	want := make([]int64, len(boxes))
	for i := range boxes {
		boxes[i] = randBox(rng, 0, 32)
		want[i], _ = initial.RangeSum(boxes[i].Lo, boxes[i].Hi)
	}
	writes := make([][]op, 2)

	call := func(method, target, body string, v any) error {
		req, err := http.NewRequest(method, srv.URL+target, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", method, target, resp.StatusCode, data)
		}
		return json.Unmarshal(data, v)
	}
	rangeArg := func(q ddc.RangeQuery) string {
		return fmt.Sprintf("%d,%d:%d,%d", q.Lo[0], q.Lo[1], q.Hi[0], q.Hi[1])
	}
	batchBody := func(qs []ddc.RangeQuery) string {
		body, _ := json.Marshal(struct{ Queries []ddc.RangeQuery }{qs})
		return string(body)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				errs <- err
			}
		}()
	}
	for g := 0; g < 4; g++ {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		run(func() error {
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					k := rng.Intn(len(boxes))
					var resp struct{ Sum int64 }
					if err := call("GET", "/v1/sum?range="+rangeArg(boxes[k]), "", &resp); err != nil {
						return err
					}
					if resp.Sum != want[k] {
						return fmt.Errorf("sum %v = %d, want %d", boxes[k], resp.Sum, want[k])
					}
					continue
				}
				idx := rng.Perm(len(boxes))[:1+rng.Intn(16)]
				qs := make([]ddc.RangeQuery, len(idx))
				for j, k := range idx {
					qs[j] = boxes[k]
				}
				var resp struct{ Sums []int64 }
				if err := call("POST", "/v1/sum/batch", batchBody(qs), &resp); err != nil {
					return err
				}
				for j, k := range idx {
					if j >= len(resp.Sums) || resp.Sums[j] != want[k] {
						return fmt.Errorf("batch box %v: sums %v, want %d at %d", boxes[k], resp.Sums, want[k], j)
					}
				}
			}
			return nil
		})
	}
	for w := 0; w < 2; w++ {
		w, rng := w, rand.New(rand.NewSource(int64(200+w)))
		mine := replay()
		run(func() error {
			for i := 0; i < iters; i++ {
				delta := rng.Int63n(100) - 50
				if i%3 == 2 {
					q := randBox(rng, 32+16*w, 16)
					writes[w] = append(writes[w], op{q, delta})
					mine.RangeAdd(q.Lo, q.Hi, delta)
					var resp struct{ Sum int64 }
					body := fmt.Sprintf(`{"lo":[%d,%d],"hi":[%d,%d],"delta":%d}`, q.Lo[0], q.Lo[1], q.Hi[0], q.Hi[1], delta)
					if err := call("POST", "/v1/add/range", body, &resp); err != nil {
						return err
					}
					if wantSum, _ := mine.RangeSum(q.Lo, q.Hi); resp.Sum != wantSum {
						return fmt.Errorf("range add %v: sum %d, want %d", q, resp.Sum, wantSum)
					}
					continue
				}
				p := []int{32 + 16*w + rng.Intn(16), rng.Intn(side)}
				writes[w] = append(writes[w], op{ddc.RangeQuery{Lo: p, Hi: p}, delta})
				mine.Add(p, delta)
				var resp struct{ Value int64 }
				if err := call("POST", "/v1/add", fmt.Sprintf(`{"point":[%d,%d],"delta":%d}`, p[0], p[1], delta), &resp); err != nil {
					return err
				}
				if wantValue := mine.Get(p); resp.Value != wantValue {
					return fmt.Errorf("add %v: value %d, want %d", p, resp.Value, wantValue)
				}
			}
			return nil
		})
	}
	for _, target := range []string{"/v1/workload", "/v1/trace"} {
		run(func() error {
			for i := 0; i < iters/5; i++ {
				var resp map[string]any
				if err := call("GET", target, "", &resp); err != nil {
					return err
				}
			}
			return nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	final := replay(writes...)
	qs := make([]ddc.RangeQuery, 32)
	for i := range qs {
		qs[i] = randBox(rng, 0, side)
		wantSum, _ := final.RangeSum(qs[i].Lo, qs[i].Hi)
		var resp struct{ Sum int64 }
		if err := call("GET", "/v1/sum?range="+rangeArg(qs[i]), "", &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Sum != wantSum {
			t.Errorf("at quiescence: sum %v = %d, replay %d", qs[i], resp.Sum, wantSum)
		}
	}
	var resp struct{ Sums []int64 }
	if err := call("POST", "/v1/sum/batch", batchBody(qs), &resp); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if wantSum, _ := final.RangeSum(q.Lo, q.Hi); i >= len(resp.Sums) || resp.Sums[i] != wantSum {
			t.Errorf("at quiescence: batch sums %v, replay %d at %d", resp.Sums, wantSum, i)
		}
	}
}
