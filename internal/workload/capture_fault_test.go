package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ddc/internal/logrec"
)

// faultStream writes a capture of every record kind and returns the
// file bytes, the offset where each record starts (the last entry is
// the stream's end) and the decoded records.
func faultStream(t *testing.T) ([]byte, []int, []CaptureRecord) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wk.bin")
	c, err := NewCapture(CaptureOptions{Path: path, Dims: []int{16, 16}, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	c.Add([]int{1, 2}, 300)
	c.RangeSum([]int{0, 0}, []int{9, 9})
	c.Set([]int{15, 15}, -2)
	c.RangeAdd([]int{2, 2}, []int{5, 7}, 1<<40)
	c.Batch([]Query{{Lo: []int{0, 0}, Hi: []int{1, 1}}, {Lo: []int{3, 3}, Hi: []int{4, 4}}})
	c.Prefix([]int{8, 8})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []CaptureRecord
	if _, err := ReadCapture(bytes.NewReader(data), func(r CaptureRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	start := []int{8 + 4 + 4 + 8 + 8*2}
	for off := start[0]; off < len(data); {
		n := int(data[off]) | int(data[off+1])<<8 | int(data[off+2])<<16 | int(data[off+3])<<24
		off += logrec.HeaderSize + n
		start = append(start, off)
	}
	if len(start) != len(recs)+1 || start[len(recs)] != len(data) {
		t.Fatalf("record offsets %v do not tile the %d-byte stream", start, len(data))
	}
	return data, start, recs
}

// readFault decodes data through r, collecting the records.
func readFault(r interface{ Read([]byte) (int, error) }) ([]CaptureRecord, CaptureInfo, error) {
	var got []CaptureRecord
	info, err := ReadCapture(r, func(rec CaptureRecord) error {
		got = append(got, rec)
		return nil
	})
	return got, info, err
}

// faultReader yields its data and then a (non-EOF) error, the signature
// of a failing disk mid-read.
type faultReader struct {
	data []byte
	err  error
}

func (r *faultReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadCapturePropagatesIOError is the regression test for a read
// failure misreported as a torn tail: a real I/O error must surface,
// both inside a record and at a record boundary.
func TestReadCapturePropagatesIOError(t *testing.T) {
	data, start, _ := faultStream(t)
	errDisk := errors.New("simulated disk failure")
	for name, cut := range map[string]int{
		"mid-record": len(data) - 5,
		"boundary":   len(data),
		"header":     start[0] - 3,
	} {
		t.Run(name, func(t *testing.T) {
			_, info, err := readFault(&faultReader{data: data[:cut], err: errDisk})
			if name == "header" {
				if !errors.Is(err, ErrBadCapture) {
					t.Fatalf("err = %v, want ErrBadCapture", err)
				}
				return
			}
			if !errors.Is(err, errDisk) || info.Torn {
				t.Fatalf("err = %v, torn = %v; want the injected disk error", err, info.Torn)
			}
		})
	}
}

// TestCaptureV1RejectsRangeAdd: DDCWKLD1 predates range updates, so op 6
// in a v1 stream is corruption, as opcode 3 is in a DDCWAL01 log.
func TestCaptureV1RejectsRangeAdd(t *testing.T) {
	data, _, _ := faultStream(t)
	if _, _, err := readFault(bytes.NewReader(data)); err != nil {
		t.Fatalf("v2 stream: %v", err)
	}
	copy(data, CaptureMagicV1)
	got, _, err := readFault(bytes.NewReader(data))
	if !errors.Is(err, ErrBadCapture) {
		t.Fatalf("err = %v, want ErrBadCapture", err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d records before the range update, want 3", len(got))
	}
}

// TestCaptureRecordCorruptionMatrix cuts the record region at every offset
// and flips every byte of it: the reader must yield an unaltered prefix
// of the records and then a clean end, a torn tail or ErrBadCapture,
// as the framed records' rule says. (The DDCWKLD2 header carries no
// checksum, so header flips are out of its reach.)
func TestCaptureRecordCorruptionMatrix(t *testing.T) {
	data, start, recs := faultStream(t)
	prefix := func(i int) int {
		k := 0
		for k < len(recs) && start[k+1] <= i {
			k++
		}
		return k
	}
	check := func(got []CaptureRecord, k int) error {
		if len(got) != k {
			return fmt.Errorf("decoded %d records, want %d", len(got), k)
		}
		if k > 0 && !reflect.DeepEqual(got, recs[:k]) {
			return fmt.Errorf("decoded records differ from the written ones")
		}
		return nil
	}
	t.Run("truncate", func(t *testing.T) {
		for i := start[0]; i <= len(data); i++ {
			got, info, err := readFault(bytes.NewReader(data[:i]))
			k := prefix(i)
			if err != nil {
				t.Fatalf("cut %d: %v", i, err)
			}
			if cerr := check(got, k); cerr != nil {
				t.Fatalf("cut %d: %v", i, cerr)
			}
			if info.Torn != (i != start[k]) {
				t.Fatalf("cut %d: torn = %v", i, info.Torn)
			}
		}
	})
	t.Run("byteflip", func(t *testing.T) {
		for i := start[0]; i < len(data); i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0xA5
			got, info, err := readFault(bytes.NewReader(bad))
			k := prefix(i) // the flipped record
			if cerr := check(got, k); cerr != nil {
				t.Fatalf("flip %d: %v", i, cerr)
			}
			// A flipped length still inside 1..16 MiB can run the final
			// frames past the end of the stream: a torn tail. Anything
			// else is corruption.
			lengthFlip := i-start[k] < 4
			if !errors.Is(err, ErrBadCapture) && !(err == nil && info.Torn && lengthFlip) {
				t.Fatalf("flip %d: err = %v, torn = %v", i, err, info.Torn)
			}
		}
	})
}

// oversizedBatch returns a 53-byte DDCWKLD2 stream over a 16×16 cube:
// the header and one CRC-valid batch frame whose 5-byte payload claims
// 1<<20 boxes.
func oversizedBatch() []byte {
	data := []byte(CaptureMagic)
	data = binary.LittleEndian.AppendUint32(data, 2) // d
	data = binary.LittleEndian.AppendUint32(data, 1) // sample 1-in-N
	data = binary.LittleEndian.AppendUint64(data, 0) // base timestamp
	data = binary.LittleEndian.AppendUint64(data, 16)
	data = binary.LittleEndian.AppendUint64(data, 16)
	var buf bytes.Buffer
	fw := logrec.NewWriter(&buf)
	frame := append(fw.Begin(), OpBatch, 0)
	frame = binary.AppendUvarint(frame, 1<<20)
	if _, err := fw.End(frame); err != nil {
		panic(err)
	}
	return append(data, buf.Bytes()...)
}

// TestReadCaptureRejectsOversizedBatchCount: a batch count the payload
// cannot hold is corruption, rejected before it sizes an allocation
// (each box needs at least 2d bytes, so this frame holds none).
func TestReadCaptureRejectsOversizedBatchCount(t *testing.T) {
	data := oversizedBatch()
	if len(data) != 53 {
		t.Fatalf("stream is %d bytes, want 53", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCapture(bytes.NewReader(data), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadCapture) {
		t.Fatalf("err = %v, want ErrBadCapture", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("rejecting a 53-byte capture allocated %d bytes", alloc)
	}
}

// FuzzReadCapture: arbitrary bytes must never panic the reader, and a
// stream it accepts counts every record as an update or a query, each
// delivered once to the callback.
func FuzzReadCapture(f *testing.F) {
	for _, name := range []string{"golden-wkld1.bin", "golden-wkld2.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(oversizedBatch())
	f.Fuzz(func(t *testing.T, data []byte) {
		seen := 0
		info, err := ReadCapture(bytes.NewReader(data), func(CaptureRecord) error {
			seen++
			return nil
		})
		if err != nil {
			return
		}
		if info.Records != info.Updates+info.Queries || seen != info.Records {
			t.Fatalf("records %d, updates %d + queries %d, callbacks %d",
				info.Records, info.Updates, info.Queries, seen)
		}
	})
}
