// Package logrec is the one vocabulary of the cube's update streams:
// the Mutation record with its kind table, and the framed-record codec
// with its torn-tail rule. The write-ahead log (DDCWAL02), the workload
// capture (DDCWKLD2), the store, Scenario's undo log, telemetry and the
// HTTP mutation handlers all speak it, so adding a mutation kind touches
// one table and every framed stream recovers by one rule
// (docs/FORMATS.md, "Framed records").
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Kind names a mutation.
type Kind uint8

// Mutation kinds.
const (
	Add      Kind = iota // add Delta to the cell Lo
	Set                  // set the cell Lo to Delta
	RangeAdd             // add Delta to every cell of the box [Lo, Hi]
	numKinds
)

// kinds is the kind table: the name (telemetry op label, /v1/batch op),
// the opcode in the WAL and in the capture stream, the first version of
// those formats allowed to carry the kind, and whether the record is a
// box (Lo and Hi) rather than a cell (Lo only).
var kinds = [numKinds]struct {
	name      string
	walOp     byte
	captureOp byte
	since     int
	box       bool
}{
	Add:      {"add", 1, 1, 1, false},
	Set:      {"set", 2, 2, 1, false},
	RangeAdd: {"rangeadd", 3, 6, 2, true},
}

// String returns the kind's name.
func (k Kind) String() string {
	if k < numKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// WALOp is the kind's write-ahead-log opcode.
func (k Kind) WALOp() byte { return kinds[k].walOp }

// CaptureOp is the kind's workload-capture opcode.
func (k Kind) CaptureOp() byte { return kinds[k].captureOp }

// Box reports whether the kind's record is a box (Lo and Hi).
func (k Kind) Box() bool { return kinds[k].box }

// ParseKind returns the kind named name.
func ParseKind(name string) (Kind, bool) {
	return find(func(k Kind) bool { return kinds[k].name == name })
}

// WALKind returns the kind a version-v log encodes as op.
func WALKind(op byte, v int) (Kind, bool) {
	return find(func(k Kind) bool { return kinds[k].walOp == op && kinds[k].since <= v })
}

// CaptureKind returns the kind a version-v capture encodes as op; query
// opcodes are not mutations.
func CaptureKind(op byte, v int) (Kind, bool) {
	return find(func(k Kind) bool { return kinds[k].captureOp == op && kinds[k].since <= v })
}

func find(match func(Kind) bool) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if match(k) {
			return k, true
		}
	}
	return 0, false
}

// Mutation is one update to a cube.
type Mutation struct {
	Kind  Kind
	Lo    []int // the cell, or the box's low corner
	Hi    []int // the box's high corner (box kinds only)
	Delta int64 // the delta (Add, RangeAdd) or the new value (Set)
}

// Target is anything a Mutation applies to: every cube, wrapper and
// persistence layer.
type Target interface {
	Add(p []int, delta int64) error
	Set(p []int, value int64) error
	RangeAdd(lo, hi []int, delta int64) error
}

// Apply dispatches m to t.
func (m Mutation) Apply(t Target) error {
	switch m.Kind {
	case Add:
		return t.Add(m.Lo, m.Delta)
	case Set:
		return t.Set(m.Lo, m.Delta)
	case RangeAdd:
		return t.RangeAdd(m.Lo, m.Hi, m.Delta)
	}
	return fmt.Errorf("logrec: unknown mutation kind %d", uint8(m.Kind))
}

// String formats m as "add [1 2] 5" or "rangeadd [0 0]..[3 3] 5".
func (m Mutation) String() string {
	if m.Kind.Box() {
		return fmt.Sprintf("%v %v..%v %d", m.Kind, m.Lo, m.Hi, m.Delta)
	}
	return fmt.Sprintf("%v %v %d", m.Kind, m.Lo, m.Delta)
}

// ---------------------------------------------------------------------
// Framed records: uint32 payload length | uint32 CRC-32C(payload) |
// payload, integers little-endian.

// HeaderSize is a frame's length-and-checksum prefix.
const HeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C (Castagnoli) of b.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// NewHash returns a streaming CRC-32C, for checksummed containers that
// are not framed record streams (the DDCCKPT1 checkpoint).
func NewHash() hash.Hash32 { return crc32.New(castagnoli) }

// Writer frames records onto an io.Writer. Append each payload to the
// slice Begin returns, then hand it to End.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Begin starts a frame: the returned slice holds the reserved header
// and the payload is appended after it.
func (fw *Writer) Begin() []byte {
	return append(fw.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
}

// End fills in the header of frame (from Begin, payload appended) and
// writes it in one call, returning the framed size.
func (fw *Writer) End(frame []byte) (int, error) {
	fw.buf = frame[:0]
	p := frame[HeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], checksum(p))
	return fw.w.Write(frame)
}

// ErrTorn reports a stream that ends inside a frame: the crash
// signature of a record cut mid-append, whose complete predecessors are
// good.
var ErrTorn = errors.New("logrec: torn frame")

// ErrCorrupt reports a frame whose length the stream's rule rejects or
// whose checksum does not match.
var ErrCorrupt = errors.New("logrec: corrupt frame")

// ErrChecksum is the checksum-mismatch flavour of ErrCorrupt.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

// Reader reads the frames Writer writes, under one torn-tail rule:
//
//   - io.EOF at a frame boundary is a clean end (Next returns io.EOF);
//   - EOF inside a frame is a torn tail (ErrTorn);
//   - any other error from the underlying reader is returned unchanged;
//   - a length the stream's rule rejects, or a checksum mismatch, is
//     corruption (ErrCorrupt). The length is checked before the payload
//     is read, so a flipped length is never mistaken for a torn tail.
type Reader struct {
	r     io.Reader
	valid func(n uint32) bool
	hdr   [HeaderSize]byte
	buf   []byte
}

// NewReader returns a Reader over r; valid is the stream's length rule.
func NewReader(r io.Reader, valid func(n uint32) bool) *Reader {
	return &Reader{r: r, valid: valid}
}

// Next returns the next frame's payload, valid until the following
// call.
func (fr *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrTorn
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if !fr.valid(n) {
		return nil, fmt.Errorf("%w: length %d", ErrCorrupt, n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	p := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrTorn
		}
		return nil, err
	}
	if got, want := checksum(p), binary.LittleEndian.Uint32(fr.hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w (got %08x, want %08x)", ErrChecksum, got, want)
	}
	return p, nil
}
