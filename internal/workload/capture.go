// Workload capture: a compact binary log of the operations a live
// server applied and answered (internal/cubeserver records them) —
// updates always, queries sampled 1-in-N — so captured production
// shapes replay as benchmarks (ddcbench -replay) and regression
// workloads. The format, DDCWKLD2 (docs/FORMATS.md):
//
//	header:  magic "DDCWKLD2" | uint32 d | uint32 sampleN |
//	         int64 base unix-nanos | d × int64 domain extents
//	record:  one framed record (internal/logrec) whose payload is
//	         op byte | uvarint Δt-nanos since the previous record |
//	         op body (zigzag-varint coordinates and values)
//
// DDCWKLD2 adds the range-update opcode (OpRangeAdd: lo, hi, delta) so
// box updates replay state-exactly; writers always emit v2, and the
// reader still accepts DDCWKLD1 streams, where op 6 is corruption. The
// update opcodes and the version that introduced each come from the
// mutation kind table, and records recover by the framed records'
// torn-tail rule, exactly like the WAL's. Fixed-width header fields are
// little-endian.
package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ddc/internal/grid"
	"ddc/internal/logrec"
)

// CaptureMagic is the DDCWKLD2 file signature written by Capture.
const CaptureMagic = "DDCWKLD2"

// CaptureMagicV1 is the previous generation's signature; ReadCapture
// still accepts it (v1 streams never contain OpRangeAdd).
const CaptureMagicV1 = "DDCWKLD1"

// Capture record op kinds: the update ops are the mutation kinds'
// capture opcodes.
var (
	OpAdd      = logrec.Add.CaptureOp()      // point delta: coords, value
	OpSet      = logrec.Set.CaptureOp()      // point assignment: coords, value
	OpRangeAdd = logrec.RangeAdd.CaptureOp() // box update: lo, hi, delta (DDCWKLD2 only)
)

// Capture record query kinds.
const (
	OpRangeSum = byte(3) // one query box: lo, hi
	OpPrefix   = byte(4) // one prefix-sum point: coords
	OpBatch    = byte(5) // batched range sums: count, then count boxes
)

// ErrBadCapture marks a capture stream rejected for corruption (bad
// magic, impossible lengths, checksum mismatch). Torn tails are not
// errors; see CaptureInfo.Torn.
var ErrBadCapture = errors.New("workload: bad capture stream")

// maxCapturePayload bounds a single record; anything larger is
// corruption, not data (a batch of 4096 boxes at d=16 is ~1.3 MB).
const maxCapturePayload = 16 << 20

// CaptureOptions configures NewCapture.
type CaptureOptions struct {
	// Path of the capture file (created or truncated).
	Path string
	// Dims are the cube's domain extents, recorded in the header so
	// replay can rebuild a matching cube; required.
	Dims []int
	// SampleQueries keeps 1 in N query records (<= 1 keeps all).
	// Updates are never sampled: replay must reproduce cube state.
	SampleQueries int
	// MaxBytes rotates the file when it grows past this size: the
	// current file moves to Path+".1" (replacing any previous rotation)
	// and a fresh file starts at Path. 0 disables rotation.
	MaxBytes int64
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// CaptureStats is a point-in-time view of a capture's progress,
// surfaced at /v1/workload.
type CaptureStats struct {
	Path       string `json:"path"`
	Records    uint64 `json:"records"`
	Updates    uint64 `json:"updates"`
	Queries    uint64 `json:"queries"`
	SampledOut uint64 `json:"sampled_out"`
	Bytes      int64  `json:"bytes"`
	Rotations  uint64 `json:"rotations"`
	SampleN    int    `json:"sample_queries"`
	Err        string `json:"error,omitempty"`
}

// Capture writes a DDCWKLD2 stream. All methods are safe for
// concurrent use (one mutex guards the encoder and file), and the
// recording methods (Update, Add, Set, RangeAdd, RangeSum, Prefix,
// Batch) are no-ops on a nil *Capture, so a caller with no capture
// attached records unconditionally. The first write error latches:
// subsequent records are dropped and the error surfaces in Stats and
// from Close.
type Capture struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	fw   *logrec.Writer // frames records onto w
	path string
	dims []int
	n    int // query sampling rate, >= 1
	max  int64
	now  func() time.Time

	bytes int64
	last  int64 // unix-nanos of the previous record
	qseq  uint64

	records, updates, queries, sampledOut, rotations uint64
	err                                              error

	buf []byte // the record being staged: frame header, then payload
}

// NewCapture opens (truncating) the capture file and writes its header.
func NewCapture(opts CaptureOptions) (*Capture, error) {
	if opts.Path == "" {
		return nil, errors.New("workload: capture needs a path")
	}
	if len(opts.Dims) == 0 {
		return nil, errors.New("workload: capture needs the cube dims")
	}
	n := opts.SampleQueries
	if n < 1 {
		n = 1
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Capture{
		path: opts.Path,
		dims: append([]int(nil), opts.Dims...),
		n:    n,
		max:  opts.MaxBytes,
		now:  now,
	}
	if err := c.open(); err != nil {
		return nil, err
	}
	return c, nil
}

// open creates a fresh file at c.path and writes the header; the
// caller holds the lock (or is the constructor).
func (c *Capture) open() error {
	f, err := os.Create(c.path)
	if err != nil {
		return fmt.Errorf("workload: creating capture: %w", err)
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	c.fw = logrec.NewWriter(c.w)
	base := c.now().UnixNano()
	c.last = base
	hdr := make([]byte, 0, 8+4+4+8+8*len(c.dims))
	hdr = append(hdr, CaptureMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(c.dims)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(c.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(base))
	for _, n := range c.dims {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
	}
	if _, err := c.w.Write(hdr); err != nil {
		c.err = err
		return err
	}
	c.bytes = int64(len(hdr))
	return nil
}

// appendPoint zigzag-encodes p into buf.
func appendPoint(buf []byte, p []int) []byte {
	for _, v := range p {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// emit writes the record staged in c.buf (op and Δt already included);
// the caller holds the lock.
func (c *Capture) emit() {
	n, err := c.fw.End(c.buf)
	if err != nil {
		c.err = err
		return
	}
	c.bytes += int64(n)
	c.records++
	if c.max > 0 && c.bytes >= c.max {
		c.rotate()
	}
}

// rotate closes the current file, moves it to path+".1" and starts a
// fresh file (new header, new time base); the caller holds the lock.
func (c *Capture) rotate() {
	if err := c.w.Flush(); err != nil {
		c.err = err
		return
	}
	if err := c.f.Close(); err != nil {
		c.err = err
		return
	}
	if err := os.Rename(c.path, c.path+".1"); err != nil {
		c.err = err
		return
	}
	if err := c.open(); err != nil {
		c.err = err
		return
	}
	c.rotations++
}

// begin stages the record prelude (op, Δt) into c.buf; the caller
// holds the lock.
func (c *Capture) begin(op byte) {
	t := c.now().UnixNano()
	dt := t - c.last
	if dt < 0 {
		dt = 0
	}
	c.last = t
	c.buf = append(c.fw.Begin(), op)
	c.buf = binary.AppendUvarint(c.buf, uint64(dt))
}

// Update captures one mutation: its op, the cell (or both box corners),
// then the delta. Updates are always captured.
func (c *Capture) Update(m logrec.Mutation) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.begin(m.Kind.CaptureOp())
	c.buf = appendPoint(c.buf, m.Lo)
	if m.Kind.Box() {
		c.buf = appendPoint(c.buf, m.Hi)
	}
	c.buf = binary.AppendVarint(c.buf, m.Delta)
	c.updates++
	c.emit()
}

// Add captures one point-delta update.
func (c *Capture) Add(p []int, delta int64) {
	c.Update(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: delta})
}

// Set captures one point-assignment update.
func (c *Capture) Set(p []int, value int64) {
	c.Update(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: value})
}

// RangeAdd captures one box update.
func (c *Capture) RangeAdd(lo, hi []int, delta int64) {
	c.Update(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: delta})
}

// sampleQuery admits 1 in n query events; the caller holds the lock.
func (c *Capture) sampleQuery() bool {
	c.qseq++
	if c.n <= 1 {
		return true
	}
	if c.qseq%uint64(c.n) != 0 {
		c.sampledOut++
		return false
	}
	return true
}

// RangeSum captures one query box, subject to sampling.
func (c *Capture) RangeSum(lo, hi []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || !c.sampleQuery() {
		return
	}
	c.begin(OpRangeSum)
	c.buf = appendPoint(c.buf, lo)
	c.buf = appendPoint(c.buf, hi)
	c.queries++
	c.emit()
}

// Prefix captures one prefix-sum point, subject to sampling.
func (c *Capture) Prefix(p []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || !c.sampleQuery() {
		return
	}
	c.begin(OpPrefix)
	c.buf = appendPoint(c.buf, p)
	c.queries++
	c.emit()
}

// Batch captures one batched range-sum call as a single record (and a
// single query event for sampling).
func (c *Capture) Batch(qs []Query) {
	if c == nil || len(qs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || !c.sampleQuery() {
		return
	}
	c.begin(OpBatch)
	c.buf = binary.AppendUvarint(c.buf, uint64(len(qs)))
	for _, q := range qs {
		c.buf = appendPoint(c.buf, q.Lo)
		c.buf = appendPoint(c.buf, q.Hi)
	}
	c.queries++
	c.emit()
}

// Stats returns the capture's progress counters.
func (c *Capture) Stats() CaptureStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CaptureStats{
		Path:       c.path,
		Records:    c.records,
		Updates:    c.updates,
		Queries:    c.queries,
		SampledOut: c.sampledOut,
		Bytes:      c.bytes,
		Rotations:  c.rotations,
		SampleN:    c.n,
	}
	if c.err != nil {
		s.Err = c.err.Error()
	}
	return s
}

// Flush pushes buffered records to the OS.
func (c *Capture) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.w.Flush(); err != nil {
		c.err = err
	}
	return c.err
}

// Close flushes, syncs and closes the capture file (the graceful-
// shutdown path). Further records are dropped.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.err
	}
	ferr := c.w.Flush()
	serr := c.f.Sync()
	cerr := c.f.Close()
	c.f = nil
	if c.err == nil {
		for _, err := range []error{ferr, serr, cerr} {
			if err != nil {
				c.err = err
				break
			}
		}
	}
	if c.err != nil {
		return c.err
	}
	// Latch a sentinel so post-Close records are dropped, but report
	// success to the closer.
	c.err = errors.New("workload: capture closed")
	return nil
}

// ---------------------------------------------------------------------
// Reading

// CaptureRecord is one decoded capture record. Point is set for
// add/set/prefix (Value for add/set), Lo/Hi for rangesum and rangeadd
// (Value carries the rangeadd delta), Batch for batched calls. At is
// the reconstructed absolute unix-nano timestamp.
type CaptureRecord struct {
	Op    byte
	At    int64
	Point grid.Point
	Value int64
	Lo    grid.Point
	Hi    grid.Point
	Batch []Query
}

// Mutation returns the update an add, set or rangeadd record carries;
// ok is false for query records.
func (r CaptureRecord) Mutation() (m logrec.Mutation, ok bool) {
	k, ok := logrec.CaptureKind(r.Op, 2)
	switch {
	case !ok:
		return m, false
	case k.Box():
		return logrec.Mutation{Kind: k, Lo: r.Lo, Hi: r.Hi, Delta: r.Value}, true
	}
	return logrec.Mutation{Kind: k, Lo: r.Point, Delta: r.Value}, true
}

// CaptureInfo summarises a decoded stream.
type CaptureInfo struct {
	Dims    []int
	Version int // capture format generation: 1 (DDCWKLD1) or 2
	SampleN int
	Base    int64 // header unix-nanos
	Records int
	Updates int
	Queries int // query records (a batch counts once)
	Torn    bool
}

// ReadCapture decodes a DDCWKLD2 (or legacy DDCWKLD1) stream, invoking
// fn for every record in order; a non-nil error from fn aborts the
// read. A truncated final record sets Torn and stops cleanly;
// corruption (bad magic, impossible length, checksum mismatch,
// malformed payload, an op the stream's version cannot carry) returns
// ErrBadCapture, and any other read failure is returned as-is.
func ReadCapture(r io.Reader, fn func(rec CaptureRecord) error) (CaptureInfo, error) {
	br := bufio.NewReader(r)
	var info CaptureInfo
	hdr := make([]byte, 8+4+4+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return info, fmt.Errorf("%w: short header", ErrBadCapture)
	}
	switch string(hdr[:8]) {
	case CaptureMagic:
		info.Version = 2
	case CaptureMagicV1:
		info.Version = 1
	default:
		return info, fmt.Errorf("%w: magic %q", ErrBadCapture, hdr[:8])
	}
	d := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if d < 1 || d > 1<<16 {
		return info, fmt.Errorf("%w: dimensionality %d", ErrBadCapture, d)
	}
	info.SampleN = int(binary.LittleEndian.Uint32(hdr[12:16]))
	info.Base = int64(binary.LittleEndian.Uint64(hdr[16:24]))
	dims := make([]byte, 8*d)
	if _, err := io.ReadFull(br, dims); err != nil {
		return info, fmt.Errorf("%w: short dims", ErrBadCapture)
	}
	info.Dims = make([]int, d)
	for i := range info.Dims {
		info.Dims[i] = int(binary.LittleEndian.Uint64(dims[8*i:]))
	}

	last := info.Base
	fr := logrec.NewReader(br, func(n uint32) bool { return n >= 1 && n <= maxCapturePayload })
	for {
		payload, err := fr.Next()
		switch {
		case err == io.EOF:
			return info, nil
		case err == logrec.ErrTorn:
			info.Torn = true
			return info, nil
		case errors.Is(err, logrec.ErrCorrupt):
			return info, fmt.Errorf("%w: record %d: %v", ErrBadCapture, info.Records, err)
		case err != nil:
			return info, err
		}
		rec, err := decodeRecord(payload, d, info.Version, &last)
		if err != nil {
			return info, err
		}
		info.Records++
		if _, ok := rec.Mutation(); ok {
			info.Updates++
		} else {
			info.Queries++
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return info, err
			}
		}
	}
}

// ReadCaptureFile decodes the capture at path; see ReadCapture.
func ReadCaptureFile(path string, fn func(rec CaptureRecord) error) (CaptureInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return CaptureInfo{}, err
	}
	defer f.Close()
	return ReadCapture(f, fn)
}

type payloadReader struct {
	buf []byte
	off int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrBadCapture)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrBadCapture)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) point(d int) (grid.Point, error) {
	pt := make(grid.Point, d)
	for i := 0; i < d; i++ {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		pt[i] = int(v)
	}
	return pt, nil
}

func decodeRecord(payload []byte, d, version int, last *int64) (CaptureRecord, error) {
	var rec CaptureRecord
	p := &payloadReader{buf: payload}
	rec.Op = payload[0]
	p.off = 1
	dt, err := p.uvarint()
	if err != nil {
		return rec, err
	}
	*last += int64(dt)
	rec.At = *last
	if k, ok := logrec.CaptureKind(rec.Op, version); ok {
		if k.Box() {
			rec.Lo, err = p.point(d)
			if err == nil {
				rec.Hi, err = p.point(d)
			}
		} else {
			rec.Point, err = p.point(d)
		}
		if err == nil {
			rec.Value, err = p.varint()
		}
		if err != nil {
			return rec, err
		}
		return rec, p.end()
	}
	switch rec.Op {
	case OpPrefix:
		if rec.Point, err = p.point(d); err != nil {
			return rec, err
		}
	case OpRangeSum:
		if rec.Lo, err = p.point(d); err != nil {
			return rec, err
		}
		if rec.Hi, err = p.point(d); err != nil {
			return rec, err
		}
	case OpBatch:
		n, err := p.uvarint()
		if err != nil {
			return rec, err
		}
		// Every box takes at least 2d payload bytes (one varint byte per
		// coordinate), so a count the rest of the payload cannot hold is
		// corruption, rejected before it sizes the allocation below.
		if n == 0 || n > 1<<20 || n > uint64(len(p.buf)-p.off)/uint64(2*d) {
			return rec, fmt.Errorf("%w: batch of %d boxes", ErrBadCapture, n)
		}
		rec.Batch = make([]Query, n)
		for i := range rec.Batch {
			if rec.Batch[i].Lo, err = p.point(d); err != nil {
				return rec, err
			}
			if rec.Batch[i].Hi, err = p.point(d); err != nil {
				return rec, err
			}
		}
	default:
		return rec, fmt.Errorf("%w: op %d in a version-%d stream", ErrBadCapture, rec.Op, version)
	}
	return rec, p.end()
}

// end rejects payload bytes left over after the record body.
func (p *payloadReader) end() error {
	if p.off != len(p.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadCapture, len(p.buf)-p.off)
	}
	return nil
}
