package ddc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"

	"ddc/internal/logrec"
)

// This file is the WAL fault-injection harness: failing and
// short-writing sinks, torn tails, and the crash/corruption matrix
// (truncate at every offset, flip every byte) that proves recovery is
// always either a clean prefix or a typed error — never silent wrong
// data.

// The record opcodes and the frame checksum the hand-built streams
// below are written with: the opcodes from the mutation kind table, the
// checksum recomputed independently of the codec.
var (
	walOpAdd      = logrec.Add.WALOp()
	walOpSet      = logrec.Set.WALOp()
	walOpRangeAdd = logrec.RangeAdd.WALOp()
	castagnoli    = crc32.MakeTable(crc32.Castagnoli)
)

type walRec struct {
	op uint8
	p  []int
	hi []int // range records only (op == walOpRangeAdd)
	v  int64
}

// buildV1Log hand-writes a version-1 (unframed, checksum-free) stream,
// which NewWAL no longer produces, to pin backward-compatible replay.
func buildV1Log(d int, recs []walRec) []byte {
	var b bytes.Buffer
	b.Write(walMagic[:])
	_ = binary.Write(&b, binary.LittleEndian, uint32(d))
	for _, r := range recs {
		b.WriteByte(r.op)
		for _, x := range r.p {
			_ = binary.Write(&b, binary.LittleEndian, int64(x))
		}
		_ = binary.Write(&b, binary.LittleEndian, r.v)
	}
	return b.Bytes()
}

// buildV2Log writes a stream through the real writer.
func buildV2Log(t *testing.T, dims []int, recs []walRec) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := NewWAL(mustNewDynamic(t, dims), &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.op {
		case walOpAdd:
			err = w.Add(r.p, r.v)
		case walOpRangeAdd:
			err = w.RangeAdd(r.p, r.hi, r.v)
		default:
			err = w.Set(r.p, r.v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// testRecs is a deterministic mutation stream for the matrix tests.
func testRecs(n int) []walRec {
	recs := make([]walRec, n)
	for i := range recs {
		op := walOpAdd
		if i%3 == 2 {
			op = walOpSet
		}
		recs[i] = walRec{op: op, p: []int{i % 8, (i * 3) % 8}, v: int64(i + 1)}
	}
	return recs
}

// prefixCube applies the first k records to a fresh cube.
func prefixCube(t *testing.T, dims []int, recs []walRec, k int) *DynamicCube {
	t.Helper()
	c := mustNewDynamic(t, dims)
	for _, r := range recs[:k] {
		var err error
		switch r.op {
		case walOpAdd:
			err = c.Add(r.p, r.v)
		case walOpRangeAdd:
			err = c.RangeAdd(r.p, r.hi, r.v)
		default:
			err = c.Set(r.p, r.v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func cubesEqual(a, b *DynamicCube, dims []int) bool {
	if a.Total() != b.Total() {
		return false
	}
	p := make([]int, 2)
	for x := 0; x < dims[0]; x++ {
		for y := 0; y < dims[1]; y++ {
			p[0], p[1] = x, y
			if a.Get(p) != b.Get(p) {
				return false
			}
		}
	}
	return true
}

func TestReplayWALV1Compatible(t *testing.T) {
	dims := []int{8, 8}
	recs := testRecs(9)
	stream := buildV1Log(2, recs)
	c := mustNewDynamic(t, dims)
	st, err := ReplayWALStats(bytes.NewReader(stream), c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.Applied != 9 || st.Torn {
		t.Fatalf("stats = %+v, want version 1, 9 applied, no torn tail", st)
	}
	if !cubesEqual(c, prefixCube(t, dims, recs, 9), dims) {
		t.Fatal("v1 replay diverged from direct application")
	}
	// Torn v1 tail still stops cleanly.
	c2 := mustNewDynamic(t, dims)
	st, err = ReplayWALStats(bytes.NewReader(stream[:len(stream)-5]), c2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 8 || !st.Torn {
		t.Fatalf("torn v1 stats = %+v, want 8 applied, torn", st)
	}
}

// faultReader yields its data and then a (non-EOF) error, the signature
// of a failing disk mid-replay.
type faultReader struct {
	data []byte
	err  error
	off  int
}

func (r *faultReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestReplayWALPropagatesIOError is the regression test for the bug
// where any mid-record read failure was misreported as a clean torn
// tail: a real I/O error must surface, for both format versions.
func TestReplayWALPropagatesIOError(t *testing.T) {
	dims := []int{8, 8}
	recs := testRecs(6)
	errDisk := errors.New("simulated disk failure")
	streams := map[string][]byte{
		"v1": buildV1Log(2, recs),
		"v2": buildV2Log(t, dims, recs),
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			// Fail inside the final record's payload.
			r := &faultReader{data: stream[:len(stream)-5], err: errDisk}
			_, err := ReplayWAL(r, mustNewDynamic(t, dims))
			if !errors.Is(err, errDisk) {
				t.Fatalf("error = %v, want the injected disk error", err)
			}
			// Fail at a record boundary: also an I/O error, not EOF.
			r = &faultReader{data: stream, err: errDisk}
			_, err = ReplayWAL(r, mustNewDynamic(t, dims))
			if !errors.Is(err, errDisk) {
				t.Fatalf("boundary error = %v, want the injected disk error", err)
			}
		})
	}
}

// TestWALRejectsMutationBeforeLogging is the regression test for the
// poisoned-log bug: an out-of-bounds mutation must be rejected before
// anything is appended, so the log always replays cleanly.
func TestWALRejectsMutationBeforeLogging(t *testing.T) {
	dims := []int{8, 8}
	var log bytes.Buffer
	w, err := NewWAL(mustNewDynamic(t, dims), &log)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]int{2, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]int{50, 50}, 1); err == nil {
		t.Fatal("out-of-bounds Add accepted")
	}
	if err := w.Set([]int{-1, 0}, 1); err == nil {
		t.Fatal("out-of-bounds Set accepted")
	}
	if w.Records() != 1 {
		t.Fatalf("Records = %d after rejected mutations, want 1", w.Records())
	}
	// The log is not poisoned: later mutations append and the whole
	// stream replays without ErrBadWAL.
	if err := w.Add([]int{3, 3}, 7); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := mustNewDynamic(t, dims)
	applied, err := ReplayWAL(bytes.NewReader(log.Bytes()), fresh)
	if err != nil {
		t.Fatalf("replay of log that saw rejected mutations: %v", err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if fresh.Get([]int{2, 2}) != 5 || fresh.Get([]int{3, 3}) != 7 {
		t.Fatal("replayed state diverged")
	}
}

// failAfterWriter accepts n bytes, then fails every write.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, w.err
}

// shortWriter reports fewer bytes written than asked, with no error —
// bufio must turn that into io.ErrShortWrite rather than lose data.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) {
	if len(p) > 1 {
		return len(p) - 1, nil
	}
	return len(p), nil
}

func TestWALFailingWriterPoisonsLog(t *testing.T) {
	errDisk := errors.New("simulated full disk")
	w, err := NewWAL(mustNewDynamic(t, []int{8, 8}), &failAfterWriter{n: 20, err: errDisk})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]int{1, 1}, 1); err != nil {
		t.Fatal(err) // buffered; not yet on "disk"
	}
	if err := w.Flush(); !errors.Is(err, errDisk) {
		t.Fatalf("Flush error = %v, want disk error", err)
	}
	// Poisoned: every later mutation and flush fails fast.
	if err := w.Add([]int{1, 1}, 1); !errors.Is(err, errDisk) {
		t.Fatalf("Add after failure = %v, want disk error", err)
	}
	if err := w.Flush(); !errors.Is(err, errDisk) {
		t.Fatalf("second Flush = %v, want disk error", err)
	}
}

func TestWALShortWriter(t *testing.T) {
	w, err := NewWAL(mustNewDynamic(t, []int{8, 8}), shortWriter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]int{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush error = %v, want io.ErrShortWrite", err)
	}
}

// syncBuffer is an in-memory writer with a Sync hook, standing in for
// *os.File in commit-point tests.
type syncBuffer struct {
	bytes.Buffer
	syncs   int
	syncErr error
}

func (s *syncBuffer) Sync() error {
	if s.syncErr != nil {
		return s.syncErr
	}
	s.syncs++
	return nil
}

func TestWALFlushInvokesSync(t *testing.T) {
	var sink syncBuffer
	w, err := NewWAL(mustNewDynamic(t, []int{8, 8}), &sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]int{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 0 {
		t.Fatalf("synced %d times before Flush", sink.syncs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 1 {
		t.Fatalf("syncs = %d after Flush, want 1", sink.syncs)
	}
	if err := w.Flush(); err != nil || sink.syncs != 2 {
		t.Fatalf("second Flush: err=%v syncs=%d, want nil/2", err, sink.syncs)
	}
}

func TestWALSyncFailurePoisonsLog(t *testing.T) {
	errSync := errors.New("simulated fsync failure")
	sink := &syncBuffer{syncErr: errSync}
	w, err := NewWAL(mustNewDynamic(t, []int{8, 8}), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]int{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); !errors.Is(err, errSync) {
		t.Fatalf("Flush error = %v, want sync error", err)
	}
	if err := w.Add([]int{1, 1}, 1); !errors.Is(err, errSync) {
		t.Fatalf("Add after failed fsync = %v, want sync error", err)
	}
}

// TestWALUnknownOpcodeWithValidChecksum crafts a correctly-framed
// record carrying a bogus opcode: the checksum passes, the opcode check
// must still reject it.
func TestWALUnknownOpcodeWithValidChecksum(t *testing.T) {
	var b bytes.Buffer
	b.Write(walMagic2[:])
	_ = binary.Write(&b, binary.LittleEndian, uint32(2))
	payload := make([]byte, 1+16+8)
	payload[0] = 99
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	b.Write(frame[:])
	b.Write(payload)
	if _, err := ReplayWAL(bytes.NewReader(b.Bytes()), mustNewDynamic(t, []int{8, 8})); !errors.Is(err, ErrBadWAL) {
		t.Fatalf("error = %v, want ErrBadWAL", err)
	}
}

// TestConcurrentWALCrashCorruptionMatrix truncates a valid stream at
// every byte offset and flips every byte, asserting the recovery
// invariant: the outcome is a clean prefix of the acknowledged
// mutations or a typed ErrBadWAL — never silently divergent data. The
// offsets are sharded over goroutines so the -race concurrent tier
// exercises the replay path in parallel.
func TestConcurrentWALCrashCorruptionMatrix(t *testing.T) {
	dims := []int{8, 8}
	nrec := 10
	recs := testRecs(nrec)
	stream := buildV2Log(t, dims, recs)
	recSize := 8 + 1 + 16 + 8 // frame + op + point + value
	if want := walHeaderSize + nrec*recSize; len(stream) != want {
		t.Fatalf("stream is %d bytes, want %d", len(stream), want)
	}
	prefixes := make([]*DynamicCube, nrec+1)
	for k := 0; k <= nrec; k++ {
		prefixes[k] = prefixCube(t, dims, recs, k)
	}

	workers := runtime.GOMAXPROCS(0)
	run := func(t *testing.T, n int, check func(i int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					if err := check(i); err != nil {
						select {
						case errc <- err:
						default:
						}
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		run(t, len(stream), func(i int) error {
			c, err := NewDynamic(dims)
			if err != nil {
				return err
			}
			st, err := ReplayWALStats(bytes.NewReader(stream[:i]), c)
			if i < walHeaderSize {
				if !errors.Is(err, ErrBadWAL) {
					return fmt.Errorf("truncate %d: err = %v, want ErrBadWAL", i, err)
				}
				return nil
			}
			if err != nil {
				return fmt.Errorf("truncate %d: unexpected error %v", i, err)
			}
			k := (i - walHeaderSize) / recSize
			if st.Applied != uint64(k) {
				return fmt.Errorf("truncate %d: applied %d, want %d", i, st.Applied, k)
			}
			wantTorn := (i-walHeaderSize)%recSize != 0
			if st.Torn != wantTorn {
				return fmt.Errorf("truncate %d: torn = %v, want %v", i, st.Torn, wantTorn)
			}
			if !cubesEqual(c, prefixes[k], dims) {
				return fmt.Errorf("truncate %d: recovered cube is not the %d-record prefix", i, k)
			}
			return nil
		})
	})

	t.Run("byteflip", func(t *testing.T) {
		run(t, len(stream), func(i int) error {
			bad := append([]byte(nil), stream...)
			bad[i] ^= 0xA5
			c, err := NewDynamic(dims)
			if err != nil {
				return err
			}
			st, rerr := ReplayWALStats(bytes.NewReader(bad), c)
			if rerr != nil {
				if !errors.Is(rerr, ErrBadWAL) {
					return fmt.Errorf("flip %d: err = %v, want ErrBadWAL", i, rerr)
				}
				return nil
			}
			// A flip the replay accepted must have been applied exactly
			// as written — with CRC framing this cannot happen, but the
			// invariant we defend is "never wrong data".
			if !cubesEqual(c, prefixes[nrec], dims) || st.Applied != uint64(nrec) {
				return fmt.Errorf("flip %d: corruption silently applied (applied=%d)", i, st.Applied)
			}
			return nil
		})
	})
}

// mixedRecs is a deterministic stream interleaving point and range
// records, exercising both record lengths in one log.
func mixedRecs() []walRec {
	return []walRec{
		{op: walOpAdd, p: []int{1, 1}, v: 5},
		{op: walOpRangeAdd, p: []int{0, 0}, hi: []int{3, 3}, v: 2},
		{op: walOpSet, p: []int{2, 6}, v: 9},
		{op: walOpRangeAdd, p: []int{5, 5}, hi: []int{7, 7}, v: -1},
		{op: walOpAdd, p: []int{7, 0}, v: 4},
		{op: walOpRangeAdd, p: []int{0, 0}, hi: []int{7, 7}, v: 3},
	}
}

// recBytes is the on-stream size of one framed v2 record.
func recBytes(r walRec) int {
	if r.op == walOpRangeAdd {
		return 8 + 1 + 16*len(r.p) + 8 // frame + op + two corners + delta
	}
	return 8 + 1 + 8*len(r.p) + 8 // frame + op + point + value
}

// TestWALRangeAddRoundTrip pins the range-record format: one O(1)
// record per box regardless of volume, and replay that reproduces the
// directly-applied cube.
func TestWALRangeAddRoundTrip(t *testing.T) {
	dims := []int{8, 8}
	recs := mixedRecs()
	stream := buildV2Log(t, dims, recs)
	wantLen := walHeaderSize
	for _, r := range recs {
		wantLen += recBytes(r)
	}
	if len(stream) != wantLen {
		t.Fatalf("stream is %d bytes, want %d (range record must be 1+16d+8 framed)", len(stream), wantLen)
	}
	c := mustNewDynamic(t, dims)
	st, err := ReplayWALStats(bytes.NewReader(stream), c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Applied != uint64(len(recs)) || st.Torn {
		t.Fatalf("stats = %+v, want version 2, %d applied", st, len(recs))
	}
	if !cubesEqual(c, prefixCube(t, dims, recs, len(recs)), dims) {
		t.Fatal("replayed cube diverged from direct application")
	}
}

// TestWALRangeAddRejectsBeforeLogging: invalid boxes must be rejected
// before anything is appended, keeping the log replayable.
func TestWALRangeAddRejectsBeforeLogging(t *testing.T) {
	var log bytes.Buffer
	w, err := NewWAL(mustNewDynamic(t, []int{8, 8}), &log)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RangeAdd([]int{1, 1}, []int{2, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.RangeAdd([]int{0, 0}, []int{9, 9}, 1); err == nil {
		t.Fatal("out-of-bounds box accepted")
	}
	if err := w.RangeAdd([]int{5, 5}, []int{1, 1}, 1); err == nil {
		t.Fatal("inverted box accepted")
	}
	if err := w.RangeAdd([]int{1}, []int{2}, 1); err == nil {
		t.Fatal("wrong-dimensional box accepted")
	}
	if w.Records() != 1 {
		t.Fatalf("Records = %d after rejected boxes, want 1", w.Records())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := mustNewDynamic(t, []int{8, 8})
	if _, err := ReplayWAL(bytes.NewReader(log.Bytes()), fresh); err != nil {
		t.Fatalf("replay after rejected boxes: %v", err)
	}
	if fresh.Total() != 4*3 {
		t.Fatalf("Total = %d, want 12", fresh.Total())
	}
}

// TestWALOpcodeLengthMismatch crafts correctly-checksummed records whose
// opcode disagrees with their length — a point opcode in a range-sized
// record and vice versa. Both must be rejected as ErrBadWAL, not
// misdecoded.
func TestWALOpcodeLengthMismatch(t *testing.T) {
	frame := func(payload []byte) []byte {
		var b bytes.Buffer
		b.Write(walMagic2[:])
		_ = binary.Write(&b, binary.LittleEndian, uint32(2))
		var f [8]byte
		binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, castagnoli))
		b.Write(f[:])
		b.Write(payload)
		return b.Bytes()
	}
	cases := map[string][]byte{
		// walOpAdd inside a range-length payload.
		"point-op-range-len": func() []byte {
			p := make([]byte, 1+16*2+8)
			p[0] = walOpAdd
			return frame(p)
		}(),
		// walOpRangeAdd inside a point-length payload.
		"range-op-point-len": func() []byte {
			p := make([]byte, 1+8*2+8)
			p[0] = walOpRangeAdd
			return frame(p)
		}(),
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReplayWAL(bytes.NewReader(stream), mustNewDynamic(t, []int{8, 8})); !errors.Is(err, ErrBadWAL) {
				t.Fatalf("error = %v, want ErrBadWAL", err)
			}
		})
	}
}

// TestReplayV1RejectsRangeOpcode: the version-1 format predates range
// records; opcode 3 in a v1 stream is corruption, not a feature.
func TestReplayV1RejectsRangeOpcode(t *testing.T) {
	stream := buildV1Log(2, []walRec{{op: walOpRangeAdd, p: []int{1, 1}, v: 2}})
	if _, err := ReplayWAL(bytes.NewReader(stream), mustNewDynamic(t, []int{8, 8})); !errors.Is(err, ErrBadWAL) {
		t.Fatalf("error = %v, want ErrBadWAL", err)
	}
}

// TestWALRangeCrashCorruptionMatrix runs the truncate-everywhere /
// flip-every-byte matrix over a mixed point+range stream, where records
// have two different sizes: recovery must still be a clean prefix of
// the acknowledged mutations or a typed ErrBadWAL.
func TestWALRangeCrashCorruptionMatrix(t *testing.T) {
	dims := []int{8, 8}
	recs := mixedRecs()
	stream := buildV2Log(t, dims, recs)
	// boundary[k] is the stream offset where record k starts.
	boundary := make([]int, len(recs)+1)
	boundary[0] = walHeaderSize
	for i, r := range recs {
		boundary[i+1] = boundary[i] + recBytes(r)
	}
	if boundary[len(recs)] != len(stream) {
		t.Fatalf("stream is %d bytes, boundaries end at %d", len(stream), boundary[len(recs)])
	}
	prefixes := make([]*DynamicCube, len(recs)+1)
	for k := range prefixes {
		prefixes[k] = prefixCube(t, dims, recs, k)
	}
	// prefixAt maps a truncation offset to (records applied, torn?).
	prefixAt := func(i int) (int, bool) {
		k := 0
		for k < len(recs) && boundary[k+1] <= i {
			k++
		}
		return k, i != boundary[k]
	}

	t.Run("truncate", func(t *testing.T) {
		for i := 0; i <= len(stream); i++ {
			c := mustNewDynamic(t, dims)
			st, err := ReplayWALStats(bytes.NewReader(stream[:i]), c)
			if i < walHeaderSize {
				if !errors.Is(err, ErrBadWAL) {
					t.Fatalf("truncate %d: err = %v, want ErrBadWAL", i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("truncate %d: unexpected error %v", i, err)
			}
			k, wantTorn := prefixAt(i)
			if st.Applied != uint64(k) || st.Torn != wantTorn {
				t.Fatalf("truncate %d: applied=%d torn=%v, want %d/%v", i, st.Applied, st.Torn, k, wantTorn)
			}
			if !cubesEqual(c, prefixes[k], dims) {
				t.Fatalf("truncate %d: recovered cube is not the %d-record prefix", i, k)
			}
		}
	})

	t.Run("byteflip", func(t *testing.T) {
		for i := 0; i < len(stream); i++ {
			bad := append([]byte(nil), stream...)
			bad[i] ^= 0xA5
			c := mustNewDynamic(t, dims)
			st, err := ReplayWALStats(bytes.NewReader(bad), c)
			if err != nil {
				if !errors.Is(err, ErrBadWAL) {
					t.Fatalf("flip %d: err = %v, want ErrBadWAL", i, err)
				}
				continue
			}
			// Accepted flips must not diverge (CRC framing makes payload
			// flips impossible to accept; a length-field flip may read as
			// a clean torn tail with fewer records applied).
			if st.Applied == uint64(len(recs)) && !cubesEqual(c, prefixes[len(recs)], dims) {
				t.Fatalf("flip %d: corruption silently applied", i)
			}
			if st.Applied < uint64(len(recs)) && !cubesEqual(c, prefixes[st.Applied], dims) {
				t.Fatalf("flip %d: partial replay (%d recs) is not a clean prefix", i, st.Applied)
			}
		}
	})
}
