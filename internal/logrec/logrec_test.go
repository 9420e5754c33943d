package logrec

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
)

// TestKindTable pins the table every stream format is driven by: the
// on-disk opcodes and labels may never change, and the version-1 formats
// predate range records.
func TestKindTable(t *testing.T) {
	for _, tc := range []struct {
		k            Kind
		name         string
		walOp, capOp byte
		since        int
		box          bool
	}{
		{Add, "add", 1, 1, 1, false},
		{Set, "set", 2, 2, 1, false},
		{RangeAdd, "rangeadd", 3, 6, 2, true},
	} {
		if tc.k.String() != tc.name || tc.k.WALOp() != tc.walOp || tc.k.CaptureOp() != tc.capOp || tc.k.Box() != tc.box {
			t.Errorf("%v: got (%q, %d, %d, %v)", tc.name, tc.k.String(), tc.k.WALOp(), tc.k.CaptureOp(), tc.k.Box())
		}
		if k, ok := ParseKind(tc.name); !ok || k != tc.k {
			t.Errorf("ParseKind(%q) = %v, %v", tc.name, k, ok)
		}
		for v := 1; v <= 2; v++ {
			want := v >= tc.since
			if k, ok := WALKind(tc.walOp, v); ok != want || (ok && k != tc.k) {
				t.Errorf("WALKind(%d, %d) = %v, %v", tc.walOp, v, k, ok)
			}
			if k, ok := CaptureKind(tc.capOp, v); ok != want || (ok && k != tc.k) {
				t.Errorf("CaptureKind(%d, %d) = %v, %v", tc.capOp, v, k, ok)
			}
		}
	}
	for _, op := range []byte{0, 3, 4, 5, 7} {
		if k, ok := CaptureKind(op, 2); ok {
			t.Errorf("capture op %d decoded as %v", op, k)
		}
	}
	if k, ok := WALKind(4, 2); ok {
		t.Errorf("WAL op 4 decoded as %v", k)
	}
	if _, ok := ParseKind("batch"); ok {
		t.Error(`ParseKind("batch") accepted a non-mutation`)
	}
}

// recorder is a Target that logs what it was asked to do.
type recorder struct{ calls []string }

func (r *recorder) Add(p []int, d int64) error {
	r.calls = append(r.calls, fmt.Sprint("add", p, d))
	return nil
}

func (r *recorder) Set(p []int, v int64) error {
	r.calls = append(r.calls, fmt.Sprint("set", p, v))
	return nil
}

func (r *recorder) RangeAdd(lo, hi []int, d int64) error {
	r.calls = append(r.calls, fmt.Sprint("rangeadd", lo, hi, d))
	return nil
}

func TestMutationApply(t *testing.T) {
	var r recorder
	for _, m := range []Mutation{
		{Kind: Add, Lo: []int{1, 2}, Delta: 5},
		{Kind: Set, Lo: []int{3}, Delta: -1},
		{Kind: RangeAdd, Lo: []int{0, 0}, Hi: []int{2, 3}, Delta: 7},
	} {
		if err := m.Apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"add[1 2] 5", "set[3] -1", "rangeadd[0 0] [2 3] 7"}
	if fmt.Sprint(r.calls) != fmt.Sprint(want) {
		t.Fatalf("calls = %q, want %q", r.calls, want)
	}
	if err := (Mutation{Kind: numKinds}).Apply(&r); err == nil {
		t.Fatal("unknown kind applied")
	}
	if s := (Mutation{Kind: RangeAdd, Lo: []int{0}, Hi: []int{3}, Delta: 2}).String(); s != "rangeadd [0]..[3] 2" {
		t.Fatalf("String = %q", s)
	}
}

// frameStream frames payloads of the given sizes (distinct contents)
// and returns the stream and each frame's payload.
func frameStream(t *testing.T, sizes []int) ([]byte, [][]byte) {
	t.Helper()
	var b bytes.Buffer
	fw := NewWriter(&b)
	var payloads [][]byte
	for i, n := range sizes {
		f := fw.Begin()
		for j := 0; j < n; j++ {
			f = append(f, byte(31*i+7*j+1))
		}
		payloads = append(payloads, append([]byte(nil), f[HeaderSize:]...))
		if got, err := fw.End(f); err != nil || got != HeaderSize+n {
			t.Fatalf("End = %d, %v", got, err)
		}
	}
	return b.Bytes(), payloads
}

// readAll drains a Reader, returning the payloads it yielded and the
// error that stopped it.
func readAll(r io.Reader, valid func(uint32) bool) ([][]byte, error) {
	fr := NewReader(r, valid)
	var got [][]byte
	for {
		p, err := fr.Next()
		if err != nil {
			return got, err
		}
		got = append(got, append([]byte(nil), p...))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	stream, want := frameStream(t, []int{1, 17, 0, 300})
	// The wire layout is the documented one: length, then CRC-32C
	// (Castagnoli) of the payload.
	if n := uint32(stream[0]) | uint32(stream[1])<<8; n != 1 || stream[2] != 0 || stream[3] != 0 {
		t.Fatalf("first length = %d", n)
	}
	crc := crc32.Checksum(want[0], crc32.MakeTable(crc32.Castagnoli))
	if got := uint32(stream[4]) | uint32(stream[5])<<8 | uint32(stream[6])<<16 | uint32(stream[7])<<24; got != crc {
		t.Fatalf("first checksum = %08x, want %08x", got, crc)
	}
	got, err := readAll(bytes.NewReader(stream), func(uint32) bool { return true })
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("payloads = %v, want %v", got, want)
	}
}

// faultReader yields data and then a non-EOF error.
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

// TestFrameMatrix is the one truncate/flip/fault matrix over the codec:
// for every cut, every single-byte flip and every failing-reader offset
// of a multi-frame stream, under an exact length rule (the WAL's) and a
// range rule (the capture's), the reader yields an unaltered prefix of
// the frames and then exactly the outcome the torn-tail rule names.
func TestFrameMatrix(t *testing.T) {
	sizes := []int{9, 25, 9, 9, 25}
	stream, payloads := frameStream(t, sizes)
	// start[k] is the offset of frame k; start[len(sizes)] the end.
	start := []int{0}
	for _, n := range sizes {
		start = append(start, start[len(start)-1]+HeaderSize+n)
	}
	// framesBefore counts the frames complete before offset i.
	framesBefore := func(i int) int {
		k := 0
		for k < len(sizes) && start[k+1] <= i {
			k++
		}
		return k
	}
	rules := map[string]func(uint32) bool{
		"exact": func(n uint32) bool { return n == 9 || n == 25 },
		"range": func(n uint32) bool { return n >= 1 && n <= 1<<20 },
	}
	prefixOK := func(got [][]byte, k int) error {
		if len(got) != k {
			return fmt.Errorf("yielded %d frames, want %d", len(got), k)
		}
		for j := range got {
			if !bytes.Equal(got[j], payloads[j]) {
				return fmt.Errorf("frame %d yielded with altered bytes", j)
			}
		}
		return nil
	}
	for name, valid := range rules {
		t.Run(name+"/truncate", func(t *testing.T) {
			for i := 0; i <= len(stream); i++ {
				got, err := readAll(bytes.NewReader(stream[:i]), valid)
				k := framesBefore(i)
				if perr := prefixOK(got, k); perr != nil {
					t.Fatalf("cut %d: %v", i, perr)
				}
				want := ErrTorn
				if i == start[k] {
					want = io.EOF
				}
				if err != want {
					t.Fatalf("cut %d: err = %v, want %v", i, err, want)
				}
			}
		})
		t.Run(name+"/byteflip", func(t *testing.T) {
			for i := range stream {
				bad := append([]byte(nil), stream...)
				bad[i] ^= 0xA5
				got, err := readAll(bytes.NewReader(bad), valid)
				k := framesBefore(i) // the flipped frame
				if perr := prefixOK(got, k); perr != nil {
					t.Fatalf("flip %d: %v", i, perr)
				}
				// A flipped length the rule still admits can run the
				// frame past the end of a stream: a torn tail. Every
				// other flip is corruption.
				lengthFlip := i-start[k] < 4
				switch {
				case errors.Is(err, ErrCorrupt):
				case err == ErrTorn && lengthFlip && name == "range":
				default:
					t.Fatalf("flip %d: err = %v", i, err)
				}
			}
		})
		t.Run(name+"/ioerror", func(t *testing.T) {
			errDisk := errors.New("simulated disk failure")
			for i := 0; i <= len(stream); i++ {
				got, err := readAll(&faultReader{data: stream[:i], err: errDisk}, valid)
				k := framesBefore(i)
				if perr := prefixOK(got, k); perr != nil {
					t.Fatalf("fault at %d: %v", i, perr)
				}
				if err != errDisk {
					t.Fatalf("fault at %d: err = %v, want the reader's error unchanged", i, err)
				}
			}
		})
	}
}
