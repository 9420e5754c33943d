package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ddc"
)

// The buffered-mode contract under test: the delta front changes when
// tree work happens (drains are asynchronous) but never what is
// durable — a crash at any delta/WAL/checkpoint interleaving recovers
// exactly the acknowledged state, because every acked record is in the
// log regardless of whether its drain ran.

// bufOpts builds buffered-mode options with the given delta tuning.
func bufOpts(b ddc.BufferedOptions) Options {
	return Options{Buffered: true, Buffer: b}
}

// manualBuf keeps every delta undrained until the store itself drains
// (checkpoint, close): the widest possible WAL-appended-but-not-drained
// window.
var manualBuf = ddc.BufferedOptions{MaxDelta: 1 << 28, FlushInterval: -1}

// eagerBuf drains constantly, racing drains against everything else.
var eagerBuf = ddc.BufferedOptions{MaxDelta: 2, FlushInterval: 50 * time.Microsecond}

// TestStoreBufferedCrashBeforeDrain is the core interleaving: records
// are appended to the WAL and acknowledged (Flush returned nil) but the
// delta was never drained into the tree. A crash here must recover
// every acked record from the log alone.
func TestStoreBufferedCrashBeforeDrain(t *testing.T) {
	ms := testMuts(10)
	dir := t.TempDir()
	s := open(t, dir, bufOpts(manualBuf))
	for _, m := range ms {
		apply(t, s, m)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Buffered().Stats(); st.Drains != 0 || st.Points == 0 {
		t.Fatalf("precondition: delta should be undrained, stats %+v", st)
	}
	// Crash: no Close, no drain. The tree never saw these records.
	s2 := open(t, dir, Options{})
	defer s2.Close()
	assertEqual(t, s2.Cube(), expected(t, 10, ms), "crash before drain")
	if ri := s2.Recovery(); ri.Records != 10 {
		t.Fatalf("recovery replayed %d records, want 10", ri.Records)
	}
	s.Buffered().Close()
}

// TestStoreBufferedCrashAfterDrain: records drained into the tree, then
// crash. The records are in segments the last checkpoint does not
// cover, so recovery replays them into a freshly loaded tree — applied
// exactly once, never doubled by the earlier drain.
func TestStoreBufferedCrashAfterDrain(t *testing.T) {
	ms := testMuts(10)
	dir := t.TempDir()
	s := open(t, dir, bufOpts(manualBuf))
	for _, m := range ms {
		apply(t, s, m)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Buffered().Drain(); err != nil {
		t.Fatal(err)
	}
	if st := s.Buffered().Stats(); st.Drains == 0 || st.Points != 0 {
		t.Fatalf("precondition: delta should be drained, stats %+v", st)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	assertEqual(t, s2.Cube(), expected(t, 10, ms), "crash after drain")
	s.Buffered().Close()
}

// TestStoreBufferedCrashPartialDrain: some records drained, some still
// buffered, crash. Both halves are acked in the log; recovery must see
// exactly all of them, once each.
func TestStoreBufferedCrashPartialDrain(t *testing.T) {
	ms := testMuts(12)
	for split := 0; split <= 12; split += 3 {
		dir := t.TempDir()
		s := open(t, dir, bufOpts(manualBuf))
		for _, m := range ms[:split] {
			apply(t, s, m)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Buffered().Drain(); err != nil {
			t.Fatal(err)
		}
		for _, m := range ms[split:] {
			apply(t, s, m)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s2 := open(t, dir, Options{})
		assertEqual(t, s2.Cube(), expected(t, 12, ms),
			fmt.Sprintf("crash with %d drained, %d buffered", split, 12-split))
		s2.Close()
		s.Buffered().Close()
	}
}

// TestStoreBufferedCrashAtEveryCommitPoint is the full commit-point
// matrix under an aggressive background merger: drains race every
// append, and a crash after k acked records must recover exactly k.
func TestStoreBufferedCrashAtEveryCommitPoint(t *testing.T) {
	const n = 12
	ms := testMuts(n)
	for k := 0; k <= n; k++ {
		dir := t.TempDir()
		s := open(t, dir, bufOpts(eagerBuf))
		for _, m := range ms[:k] {
			apply(t, s, m)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		s2 := open(t, dir, Options{})
		assertEqual(t, s2.Cube(), expected(t, k, ms), fmt.Sprintf("buffered crash after %d commits", k))
		if ri := s2.Recovery(); ri.Records != uint64(k) {
			t.Fatalf("k=%d: recovery replayed %d records", k, ri.Records)
		}
		s2.Close()
		s.Buffered().Close()
	}
}

// TestStoreBufferedCheckpointCoverage pins the freeze invariant: a
// buffered checkpoint's snapshot covers exactly the acked records at
// rotation, and records landing after it replay from the new segment —
// across crash (no Close) and clean-close reopens.
func TestStoreBufferedCheckpointCoverage(t *testing.T) {
	ms := testMuts(16)
	dir := t.TempDir()
	s := open(t, dir, bufOpts(manualBuf))
	for _, m := range ms[:8] {
		apply(t, s, m)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms[8:] {
		apply(t, s, m)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash reopen: snapshot (first 8) + tail segment (last 8).
	s2 := open(t, dir, Options{})
	assertEqual(t, s2.Cube(), expected(t, 16, ms), "checkpoint + tail crash")
	if ri := s2.Recovery(); ri.Records != 8 {
		t.Fatalf("recovery replayed %d records, want 8 (post-checkpoint tail)", ri.Records)
	}
	s2.Close()
	s.Buffered().Close()
}

// TestStoreBufferedResurrectedSegment replays the mid-checkpoint crash
// signature in buffered mode: a covered segment that gc never removed
// must be ignored, its records already inside the streamed snapshot.
func TestStoreBufferedResurrectedSegment(t *testing.T) {
	ms := testMuts(10)
	dir := t.TempDir()
	s := open(t, dir, bufOpts(manualBuf))
	for _, m := range ms {
		apply(t, s, m)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, s.segName(s.Stats().Segment))
	stale, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	assertEqual(t, s2.Cube(), expected(t, 10, ms), "resurrected covered segment")
	if ri := s2.Recovery(); ri.Records != 0 {
		t.Fatalf("stale segment replayed in buffered mode: %+v", ri)
	}
}

// TestStoreBufferedReadYourWrites pins the serving contract: queries
// through Buffered() see every acked mutation immediately, drained or
// not, and checkpoints do not disturb composed answers.
func TestStoreBufferedReadYourWrites(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, bufOpts(manualBuf))
	defer s.Close()
	b := s.Buffered()
	if err := s.Add([]int{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if got := b.Get([]int{1, 2}); got != 5 {
		t.Fatalf("Get = %d, want 5 (undrained)", got)
	}
	if err := s.RangeAdd([]int{0, 0}, []int{7, 7}, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.Total(); got != 5+64 {
		t.Fatalf("Total = %d, want %d", got, 5+64)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := b.Total(); got != 5+64 {
		t.Fatalf("Total after checkpoint = %d, want %d", got, 5+64)
	}
	if err := s.Set([]int{1, 2}, 9); err != nil {
		t.Fatal(err)
	}
	if got := b.Get([]int{1, 2}); got != 9 {
		t.Fatalf("Get after Set = %d, want 9", got)
	}
}

// TestStoreBufferedConcurrentCheckpoint races writers, readers and
// explicit checkpoints; writers must never be lost (every acked record
// durable and queryable) and the final reopened state must be exact.
func TestStoreBufferedConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, bufOpts(ddc.BufferedOptions{MaxDelta: 8, FlushInterval: 100 * time.Microsecond}))
	const writers = 3
	const perWriter = 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if err := s.Add([]int{w, k % 8}, 1); err != nil {
					t.Error(err)
					return
				}
				if k%17 == 0 {
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := s.Buffered()
		for i := 0; i < 50; i++ {
			b.Total()
			b.Prefix([]int{7, 7})
		}
	}()
	for i := 0; i < 5; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := int64(writers * perWriter)
	if got := s.Buffered().Total(); got != want {
		t.Fatalf("live Total = %d, want %d", got, want)
	}
	if err := s.Healthy(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	if got := s2.Cube().Total(); got != want {
		t.Fatalf("recovered Total = %d, want %d", got, want)
	}
}

// TestStoreBufferedAutoCheckpointAsync pins the Flush-triggered
// background checkpoint: it fires without blocking the flusher, settles
// to a healthy steady state, and loses nothing.
func TestStoreBufferedAutoCheckpointAsync(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{
		Buffered:          true,
		Buffer:            eagerBuf,
		CheckpointRecords: 8,
	})
	base := s.Stats().Checkpoints
	total := int64(0)
	for i := 0; i < 64; i++ {
		if err := s.Add([]int{i % 8, (i / 8) % 8}, 1); err != nil {
			t.Fatal(err)
		}
		total++
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Checkpoints == base {
		if time.Now().After(deadline) {
			t.Fatal("async auto-checkpoint never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Healthy(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	defer s2.Close()
	if got := s2.Cube().Total(); got != total {
		t.Fatalf("recovered Total = %d, want %d", got, total)
	}
}
