package cubeserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ddc"
	"ddc/internal/cubecli"
)

// The served codec: the hot request shapes are scanned without
// reflection and the hot responses are append-encoded, into a pooled
// per-request scratch.
//
// A scanner accepts only the documented shape of its body: ASCII keys
// without escapes matched case-insensitively (as encoding/json matches
// them), each known key at most once, integers of at most 18 digits,
// JSON whitespace, nothing after the closing brace. On anything else it
// gives up and hands the same bytes to encoding/json, which decides:
// every body gets exactly the outcome, values and error text the
// reflective decoder gives it. Query strings work the same way against
// url.ParseQuery and cubecli.ParseRange/ParsePoint.

// maxPooled caps what one pooled buffer may hold: a scratch that grew
// past it (one large batch) is dropped rather than kept by the pool.
const maxPooled = 64 << 10

// scratch is one request's reusable state: the body, every coordinate
// the request carries, the decoded boxes, the batch's sums and the
// encoded response. Nothing the handlers pass to the cube retains these
// slices past the call.
type scratch struct {
	body    []byte
	ints    []int
	queries []ddc.RangeQuery
	sums    []int64
	out     []byte

	// The decode targets: a scan fills one only when the whole body is
	// in shape, so it is still zero when encoding/json decodes into it.
	batch        struct{ Queries []ddc.RangeQuery }
	mut          mutation
	rmut         rangeMutation
	delta, value int64
}

var scratchPool = sync.Pool{New: func() any {
	// Non-nil backing arrays, so a scanned "[]" is an empty slice and
	// not nil, as encoding/json decodes it.
	return &scratch{
		body:    make([]byte, 0, 512),
		ints:    make([]int, 0, 64),
		queries: make([]ddc.RangeQuery, 0, 16),
	}
}}

func getScratch() *scratch {
	x := scratchPool.Get().(*scratch)
	x.ints = x.ints[:0]
	return x
}

func putScratch(x *scratch) {
	// An int or int64 takes 8 bytes, a RangeQuery 48 (two slices).
	if cap(x.body) > maxPooled || cap(x.out) > maxPooled || 8*cap(x.ints) > maxPooled ||
		8*cap(x.sums) > maxPooled || 48*cap(x.queries) > maxPooled {
		return
	}
	x.batch.Queries, x.mut, x.rmut = nil, mutation{}, rangeMutation{}
	scratchPool.Put(x)
}

// errReader replays a body's read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readBody reads r into x.body, stopping once limit bytes are in
// (limit < 0: no limit). A body that ends within the limit returns a
// nil reader: x.body is all of it. Otherwise the returned reader is the
// stream a decoder reading r itself would have seen — the bytes read so
// far, then the rest of r or its read error — except that an
// *http.MaxBytesError is returned as the error, before any decoding.
func (x *scratch) readBody(r io.Reader, limit int) (io.Reader, error) {
	b := x.body[:0]
	defer func() { x.body = b }()
	for {
		if len(b) == cap(b) {
			if limit >= 0 && len(b) >= limit {
				return io.MultiReader(bytes.NewReader(b), r), nil
			}
			b = slices.Grow(b, max(cap(b), 512))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == nil {
			continue
		}
		if err == io.EOF {
			return nil, nil
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, err
		}
		return io.MultiReader(bytes.NewReader(b), errReader{err}), nil
	}
}

// span returns the coordinates appended to x.ints since index n, capped
// so an append by the callee cannot reach the next box's.
func (x *scratch) span(n int) []int { return x.ints[n:len(x.ints):len(x.ints)] }

// scanInts scans an integer array onto x.ints and returns it.
func (x *scratch) scanInts(s *scanner) []int {
	n := len(x.ints)
	x.ints = s.ints(x.ints)
	return x.span(n)
}

// decode reads body (at most limit bytes of it into x.body; see
// readBody) and decodes it into v, the decode target scan fills: by
// scan when the whole body was read and is in shape, else by
// encoding/json from the same bytes, which then decides. The bodies:
//
//	x.batch  {"queries":[{"lo":[…],"hi":[…]},…]} (RangeQuery's field names)
//	x.mut    {"point":[…],"delta":n,"value":n}
//	x.rmut   {"lo":[…],"hi":[…],"delta":n}
func (x *scratch) decode(body io.Reader, limit int, scan func() bool, v any) error {
	src, err := x.readBody(body, limit)
	if err != nil {
		return err
	}
	if src == nil {
		if scan() {
			return nil
		}
		src = bytes.NewReader(x.body)
	}
	return json.NewDecoder(src).Decode(v)
}

func (x *scratch) scanQueries() bool {
	s := scanner{b: x.body}
	var qs []ddc.RangeQuery
	var seen bool
	s.object(func(k []byte) bool {
		if seen || !keyIs(k, "queries") {
			return false
		}
		seen, qs = true, x.queries[:0]
		s.expect('[')
		if s.bad || s.accept(']') {
			return true
		}
		for !s.bad {
			var q ddc.RangeQuery
			var lo, hi bool
			s.object(func(k []byte) bool {
				switch {
				case !lo && keyIs(k, "lo"):
					lo, q.Lo = true, x.scanInts(&s)
				case !hi && keyIs(k, "hi"):
					hi, q.Hi = true, x.scanInts(&s)
				default:
					return false
				}
				return true
			})
			qs = append(qs, q)
			if !s.accept(',') {
				s.expect(']')
				break
			}
		}
		x.queries = qs
		return true
	})
	if !s.end() {
		return false
	}
	x.batch.Queries = qs
	return true
}

func (x *scratch) scanMutation() bool {
	s := scanner{b: x.body}
	var m mutation
	var point bool
	s.object(func(k []byte) bool {
		switch {
		case !point && keyIs(k, "point"):
			point, m.Point = true, x.scanInts(&s)
		case m.Delta == nil && keyIs(k, "delta"):
			x.delta, m.Delta = s.int(), &x.delta
		case m.Value == nil && keyIs(k, "value"):
			x.value, m.Value = s.int(), &x.value
		default:
			return false
		}
		return true
	})
	if !s.end() {
		return false
	}
	x.mut = m
	return true
}

func (x *scratch) scanRangeMutation() bool {
	s := scanner{b: x.body}
	var m rangeMutation
	var lo, hi bool
	s.object(func(k []byte) bool {
		switch {
		case !lo && keyIs(k, "lo"):
			lo, m.Lo = true, x.scanInts(&s)
		case !hi && keyIs(k, "hi"):
			hi, m.Hi = true, x.scanInts(&s)
		case m.Delta == nil && keyIs(k, "delta"):
			x.delta, m.Delta = s.int(), &x.delta
		default:
			return false
		}
		return true
	})
	if !s.end() {
		return false
	}
	x.rmut = m
	return true
}

// scanner walks one JSON body of a documented shape; bad records that
// the body left the shape, and every step after that is a no-op.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// accept consumes c if it is the next byte past whitespace.
func (s *scanner) accept(c byte) bool {
	if !s.bad && s.peek() == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) expect(c byte) {
	if !s.accept(c) {
		s.bad = true
	}
}

// end reports whether the whole body was in shape: no misstep and
// nothing but whitespace after the value.
func (s *scanner) end() bool {
	s.peek()
	return !s.bad && s.i == len(s.b)
}

// object scans an object, handing each key to field, which scans its
// value and reports whether the shape has that key (at that point).
func (s *scanner) object(field func(key []byte) bool) {
	s.expect('{')
	if s.bad || s.accept('}') {
		return
	}
	for !s.bad {
		if k := s.key(); s.bad || !field(k) {
			s.bad = true
		}
		if !s.accept(',') {
			s.expect('}')
			return
		}
	}
}

// key scans an object key and its colon. A key with an escape, a
// control or a non-ASCII byte is outside the shape.
func (s *scanner) key() []byte {
	s.expect('"')
	for j := s.i; !s.bad && j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			k := s.b[s.i:j]
			s.i = j + 1
			s.expect(':')
			return k
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.bad = true
		}
	}
	s.bad = true
	return nil
}

// keyIs matches an ASCII key to a lower-case field name the way
// encoding/json does: case-insensitively.
func keyIs(k []byte, name string) bool {
	if len(k) != len(name) {
		return false
	}
	for i, c := range k {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// int scans an integer of 1 to 18 digits — no fraction, exponent or
// leading zero — which encoding/json decodes to the same value.
func (s *scanner) int() int64 {
	if s.bad {
		return 0
	}
	s.peek()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	n := s.i - start
	switch {
	case n == 0 || n > 18 || n > 1 && s.b[start] == '0':
		s.bad = true
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		s.bad = true
	}
	if neg {
		v = -v
	}
	return v
}

// ints scans an array of integers onto dst.
func (s *scanner) ints(dst []int) []int {
	s.expect('[')
	if s.bad || s.accept(']') {
		return dst
	}
	for !s.bad {
		dst = append(dst, int(s.int()))
		if !s.accept(',') {
			s.expect(']')
			break
		}
	}
	return dst
}

// queryValue is url.ParseQuery(raw).Get(key) without building the map:
// a raw query with no escape ('%', '+') and no ';' (which ParseQuery
// refuses) is split here the same way.
func queryValue(raw, key string) string {
	if strings.ContainsAny(raw, "%+;") {
		v, _ := url.ParseQuery(raw)
		return v.Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// parsePoint is cubecli.ParsePoint with the coordinates on x.ints.
func (x *scratch) parsePoint(s string) ([]int, error) {
	if p, ok := x.point(s); ok {
		return p, nil
	}
	return cubecli.ParsePoint(s)
}

// parseRange is cubecli.ParseRange with both corners on x.ints.
func (x *scratch) parseRange(s string) (lo, hi []int, err error) {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		lo, okLo := x.point(s[:i])
		hi, okHi := x.point(s[i+1:])
		if okLo && okHi && len(lo) == len(hi) {
			return lo, hi, nil
		}
	}
	return cubecli.ParseRange(s)
}

// point parses "a,b,…" of optionally negative decimal coordinates of 1
// to 18 digits onto x.ints; anything else reports false and is left to
// cubecli, whose strconv.Atoi gives these the same values.
func (x *scratch) point(s string) ([]int, bool) {
	n := len(x.ints)
	for {
		neg := s != "" && s[0] == '-'
		if neg {
			s = s[1:]
		}
		j, v := 0, 0
		for ; j < len(s) && s[j]-'0' <= 9; j++ {
			v = v*10 + int(s[j]-'0')
		}
		if j == 0 || j > 18 {
			return nil, false
		}
		if neg {
			v = -v
		}
		x.ints = append(x.ints, v)
		if s = s[j:]; s == "" {
			return x.span(n), true
		}
		if s[0] != ',' {
			return nil, false
		}
		s = s[1:]
	}
}

// sumsFor returns a pooled sums slice of length n.
func (x *scratch) sumsFor(n int) []int64 {
	if cap(x.sums) < n {
		x.sums = make([]int64, n)
	}
	return x.sums[:n]
}

// send writes b, a response built on x.out, as a 200 JSON body, and
// keeps its buffer for the next request.
func (x *scratch) send(w http.ResponseWriter, b []byte) {
	x.out = b[:0]
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// appendInt encodes {"<key>":v} as json.Encoder encodes a one-entry
// map[string]int64, trailing newline included.
func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, `{"`...)
	b = append(b, key...)
	b = append(b, `":`...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, "}\n"...)
}

// appendBatch encodes the POST /v1/sum/batch response as json.Encoder
// encodes its map: keys sorted, trailing newline included. sums is
// never nil there (an empty batch is refused).
func appendBatch(b []byte, sums []int64, st ddc.BatchStats) []byte {
	for _, f := range [...]struct {
		key string
		v   int
	}{
		{`{"batch":{"cache_hits":`, st.CacheHits},
		{`,"cache_misses":`, st.CacheMisses},
		{`,"corner_terms":`, st.CornerTerms},
		{`,"distinct_corners":`, st.DistinctCorners},
		{`,"queries":`, st.Queries},
		{`,"skipped_corners":`, st.SkippedCorners},
	} {
		b = append(b, f.key...)
		b = strconv.AppendInt(b, int64(f.v), 10)
	}
	b = append(b, `},"sums":[`...)
	for i, v := range sums {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, "]}\n"...)
}
