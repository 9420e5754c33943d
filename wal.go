package ddc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"ddc/internal/logrec"
	"ddc/internal/obs"
)

// The write-ahead log makes the paper's dynamic-update story durable: a
// stream of point mutations is appended to a log as it is applied, and
// can be replayed into a fresh (or snapshotted) cube after a restart.
// Combine with Save/LoadDynamic for the usual checkpoint + tail-replay
// recovery scheme, or use internal/store for the full data-directory
// engine (segment rotation, checkpoints, crash recovery).

// walMagic opens a version-1 log stream (unframed records, no
// checksums). Replay still reads it; new logs are written as version 2.
var walMagic = [8]byte{'D', 'D', 'C', 'W', 'A', 'L', '0', '1'}

// walMagic2 opens a version-2 log stream: every record is a framed
// record (internal/logrec: length prefix and CRC32C of the payload), so
// torn tails are distinguishable from corruption.
var walMagic2 = [8]byte{'D', 'D', 'C', 'W', 'A', 'L', '0', '2'}

// walHeaderSize is the stream header: 8-byte magic + uint32 dims.
const walHeaderSize = 12

// ErrBadWAL is returned for malformed log streams.
var ErrBadWAL = errors.New("ddc: bad write-ahead log")

// walSyncer is the optional commit-point durability hook: if the writer
// handed to NewWAL implements it (*os.File does), Flush calls Sync after
// flushing so acknowledged mutations survive power loss, not just
// process death.
type walSyncer interface{ Sync() error }

// WAL appends cube mutations to an io.Writer as they are applied to an
// underlying Cube, in the version-2 checksummed format. It is not safe
// for concurrent use; wrap the WAL (not the inner cube) in Synchronized
// if needed.
//
// Mutations are validated by applying them to the inner cube first and
// appended to the log only on success, so a rejected (e.g.
// out-of-bounds) mutation can never poison the log: every record in a
// WAL stream replays cleanly into an equivalent cube. If the log write
// itself fails after the cube accepted the mutation, the error is
// returned, the WAL poisons itself (every later mutation fails fast),
// and the in-memory cube is ahead of the log — the caller must treat
// the store as failed and recover from disk.
type WAL struct {
	c     Cube
	w     *bufio.Writer
	fw    *logrec.Writer // frames records onto w
	sync  walSyncer      // optional fsync hook, detected from the writer
	d     int
	n     uint64 // records written
	bytes uint64 // bytes appended, including the stream header
	err   error  // first write/sync error; subsequent mutations fail fast

	// tsc/tparent attach a request's span trace to the log: while set,
	// every append and flush records a child span. Mutations through a
	// WAL are serialized (documented above), so plain fields suffice.
	tsc     *obs.SpanContext
	tparent obs.SpanID
}

// NewWAL wraps c so every accepted Add/Set is logged to w (version-2
// format). It writes the stream header immediately. If w implements
// `Sync() error` (as *os.File does), Flush becomes a true commit point:
// buffered records are flushed and fsynced.
func NewWAL(c Cube, w io.Writer) (*WAL, error) {
	l := &WAL{c: c, w: bufio.NewWriter(w), d: len(c.Dims())}
	l.fw = logrec.NewWriter(l.w)
	if s, ok := w.(walSyncer); ok {
		l.sync = s
	}
	if _, err := l.w.Write(walMagic2[:]); err != nil {
		return nil, err
	}
	if err := binary.Write(l.w, binary.LittleEndian, uint32(l.d)); err != nil {
		return nil, err
	}
	l.bytes = walHeaderSize
	return l, nil
}

// Err returns the error that poisoned the log (nil while healthy).
// Once non-nil every later mutation fails fast with it; the caller must
// treat the store as failed and recover from disk. Readiness probes
// (the server's /readyz) surface it.
func (l *WAL) Err() error { return l.err }

// TraceSpans attaches a span trace: while sc is non-nil, every append
// and flush records a child span ("wal.append" / "wal.flush") under
// parent. Pass nil to detach. Mutations through a WAL are serialized,
// so call this under the same exclusion as Add/Set/Flush.
func (l *WAL) TraceSpans(sc *obs.SpanContext, parent obs.SpanID) {
	l.tsc, l.tparent = sc, parent
}

// Records returns the number of mutation records written.
func (l *WAL) Records() uint64 { return l.n }

// Bytes returns the number of log bytes appended so far (stream header
// included), counting buffered bytes not yet flushed.
func (l *WAL) Bytes() uint64 { return l.bytes }

// Flush flushes buffered log records to the underlying writer and, if
// the writer has a Sync hook, fsyncs them. Call it at commit points;
// mutations are not durable until Flush returns nil.
func (l *WAL) Flush() error {
	if l.err != nil {
		return l.err
	}
	defer l.tsc.End(l.tsc.Start("wal.flush", l.tparent))
	tel := globalTelemetry
	if !tel.on() {
		return l.flush()
	}
	start := time.Now()
	err := l.flush()
	tel.recordWALFlush(time.Since(start))
	return err
}

func (l *WAL) flush() error {
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if l.sync != nil {
		if err := l.sync.Sync(); err != nil {
			// A failed fsync leaves the kernel's view of the file
			// unknowable; poison the log rather than retry.
			l.err = err
			return err
		}
	}
	return nil
}

// Add implements Cube: apply (validating bounds), then log.
func (l *WAL) Add(p []int, delta int64) error {
	return l.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: delta})
}

// RangeAdd implements Cube: apply (validating the box), then log one
// range record — the log grows by one record regardless of the box
// volume, matching the lazy path's cost profile.
func (l *WAL) RangeAdd(lo, hi []int, delta int64) error {
	return l.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: delta})
}

// Set implements Cube: apply (validating bounds), then log.
func (l *WAL) Set(p []int, value int64) error {
	return l.apply(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: value})
}

// apply applies m to the inner cube and, once the cube accepted it,
// appends its record.
func (l *WAL) apply(m logrec.Mutation) error {
	if l.err != nil {
		return l.err
	}
	if len(m.Lo) != l.d || (m.Kind.Box() && len(m.Hi) != l.d) {
		// Unloggable, and a dimensionality error like every cube's.
		return fmt.Errorf("%w: %w: %v does not have the log's %d dims", ErrBadWAL, ErrDims, m, l.d)
	}
	if err := m.Apply(l.c); err != nil {
		return err
	}
	return l.append(m)
}

// append writes m's record as one frame. The payload is the opcode,
// the 8-byte coordinates of Lo (and of Hi for a box), then the 8-byte
// delta: 1+8d+8 or 1+16d+8 bytes, so replay can pair the opcode with the
// frame length. A write failure poisons the log.
func (l *WAL) append(m logrec.Mutation) error {
	defer l.tsc.End(l.tsc.Start("wal.append", l.tparent))
	tel := globalTelemetry
	if tel.on() {
		start := time.Now()
		defer func() { tel.recordWALAppend(time.Since(start)) }()
	}
	b := append(l.fw.Begin(), m.Kind.WALOp())
	b = appendWALCoords(b, m.Lo)
	if m.Kind.Box() {
		b = appendWALCoords(b, m.Hi)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Delta))
	n, err := l.fw.End(b)
	if err != nil {
		l.err = err
		return err
	}
	l.n++
	l.bytes += uint64(n)
	return nil
}

func appendWALCoords(b []byte, p []int) []byte {
	for _, x := range p {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
	}
	return b
}

// decodeWALRecord decodes a record payload (opcode first) of m.Kind into
// m, whose Lo (and Hi) hold d coordinates.
func decodeWALRecord(p []byte, d int, m *logrec.Mutation) {
	off := 1
	for j := range m.Lo {
		m.Lo[j] = int(int64(binary.LittleEndian.Uint64(p[off+8*j:])))
	}
	off += 8 * d
	if m.Kind.Box() {
		for j := range m.Hi {
			m.Hi[j] = int(int64(binary.LittleEndian.Uint64(p[off+8*j:])))
		}
		off += 8 * d
	}
	m.Delta = int64(binary.LittleEndian.Uint64(p[off:]))
}

// Read-only methods delegate to the inner cube.

// Dims implements Cube.
func (l *WAL) Dims() []int { return l.c.Dims() }

// Get implements Cube.
func (l *WAL) Get(p []int) int64 { return l.c.Get(p) }

// Prefix implements Cube.
func (l *WAL) Prefix(p []int) int64 { return l.c.Prefix(p) }

// RangeSum implements Cube.
func (l *WAL) RangeSum(lo, hi []int) (int64, error) { return l.c.RangeSum(lo, hi) }

// RangeSumBatch implements Cube, delegating to the inner cube's batched
// engine (reads are never logged).
func (l *WAL) RangeSumBatch(queries []RangeQuery) ([]int64, error) {
	return l.c.RangeSumBatch(queries)
}

// Total implements Cube.
func (l *WAL) Total() int64 { return l.c.Total() }

// Ops implements Cube.
func (l *WAL) Ops() OpCounts { return l.c.Ops() }

// ResetOps implements Cube.
func (l *WAL) ResetOps() { l.c.ResetOps() }

// Unwrap returns the inner cube.
func (l *WAL) Unwrap() Cube { return l.c }

// WALReplayStats reports what a replay consumed.
type WALReplayStats struct {
	// Applied is the number of records applied to the cube.
	Applied uint64
	// Version is the stream's format version (1 or 2).
	Version int
	// Torn reports that the stream ended inside a record — the clean
	// truncation signature of a crash mid-append. The complete prefix
	// was applied; the partial record was dropped.
	Torn bool
}

// ReplayWAL applies every record in a log stream (either format
// version) to c and returns the number of records applied. A cleanly
// truncated tail (mid-record EOF, as after a crash) stops the replay
// without error; corrupt headers, opcodes, checksum mismatches, or
// records the cube rejects return ErrBadWAL, and underlying reader
// failures are returned as-is — a disk I/O error is never mistaken for
// a successful recovery.
func ReplayWAL(r io.Reader, c Cube) (applied uint64, err error) {
	st, err := ReplayWALStats(r, c)
	return st.Applied, err
}

// ReplayWALStats is ReplayWAL with a full report: format version and
// whether the stream ended in a torn record (so callers like
// internal/store can reject torn tails anywhere but the final segment).
func ReplayWALStats(r io.Reader, c Cube) (WALReplayStats, error) {
	var st WALReplayStats
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return st, fmt.Errorf("%w: missing header: %v", ErrBadWAL, err)
	}
	var d32 uint32
	if err := binary.Read(br, binary.LittleEndian, &d32); err != nil {
		return st, fmt.Errorf("%w: truncated header", ErrBadWAL)
	}
	d := int(d32)
	if d != len(c.Dims()) {
		return st, fmt.Errorf("%w: log is %d-dimensional, cube is %d", ErrBadWAL, d, len(c.Dims()))
	}
	switch magic {
	case walMagic:
		st.Version = 1
		err := replayV1(br, c, d, &st)
		return st, err
	case walMagic2:
		st.Version = 2
		err := replayV2(br, c, d, &st)
		return st, err
	}
	return st, fmt.Errorf("%w: bad magic", ErrBadWAL)
}

// torn marks the replay as ending in a partial record and counts the
// drop.
func (st *WALReplayStats) torn() {
	st.Torn = true
	if tel := globalTelemetry; tel.on() {
		tel.recordWALTornDrop()
	}
}

// apply applies one decoded record; cube rejections are format errors
// (the writer never logs a rejected mutation).
func (st *WALReplayStats) apply(c Cube, m logrec.Mutation) error {
	if err := m.Apply(c); err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrBadWAL, st.Applied, err)
	}
	st.Applied++
	return nil
}

// replayV1 reads the version-1 unframed record stream: opcode, point,
// value. Only a clean end-of-stream (EOF at a record boundary or
// mid-record, the torn-tail crash signature) stops without error; any
// other reader failure is returned to the caller.
func replayV1(br *bufio.Reader, c Cube, d int, st *WALReplayStats) error {
	rec := make([]byte, 1+8*d+8)
	m := logrec.Mutation{Lo: make([]int, d)}
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		k, ok := logrec.WALKind(op, 1)
		if !ok {
			return fmt.Errorf("%w: unknown opcode %d at record %d", ErrBadWAL, op, st.Applied)
		}
		if _, err := io.ReadFull(br, rec[1:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				st.torn()
				return nil
			}
			return err
		}
		m.Kind = k
		decodeWALRecord(rec, d, &m)
		if err := st.apply(c, m); err != nil {
			return err
		}
	}
}

// replayV2 reads the version-2 framed record stream under the framed
// records' torn-tail rule. Two payload layouts exist — point records
// (1+8d+8 bytes) and range records (1+16d+8 bytes) — so the length rule
// admits exactly those two, and the decoded opcode must agree with the
// length.
func replayV2(br *bufio.Reader, c Cube, d int, st *WALReplayStats) error {
	pointLen, rangeLen := uint32(1+8*d+8), uint32(1+16*d+8)
	fr := logrec.NewReader(br, func(n uint32) bool { return n == pointLen || n == rangeLen })
	m := logrec.Mutation{Lo: make([]int, d), Hi: make([]int, d)}
	for {
		payload, err := fr.Next()
		switch {
		case err == io.EOF:
			return nil
		case err == logrec.ErrTorn:
			st.torn()
			return nil
		case errors.Is(err, logrec.ErrCorrupt):
			if tel := globalTelemetry; tel.on() && errors.Is(err, logrec.ErrChecksum) {
				tel.recordWALChecksumReject()
			}
			return fmt.Errorf("%w: record %d: %v", ErrBadWAL, st.Applied, err)
		case err != nil:
			return err
		}
		k, ok := logrec.WALKind(payload[0], 2)
		if !ok {
			return fmt.Errorf("%w: unknown opcode %d at record %d", ErrBadWAL, payload[0], st.Applied)
		}
		if k.Box() != (uint32(len(payload)) == rangeLen) {
			return fmt.Errorf("%w: record %d: opcode %d with a %d-byte payload", ErrBadWAL, st.Applied, payload[0], len(payload))
		}
		m.Kind = k
		decodeWALRecord(payload, d, &m)
		if err := st.apply(c, m); err != nil {
			return err
		}
	}
}
