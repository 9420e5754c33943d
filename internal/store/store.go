// Package store is the durable persistence engine for a dynamic data
// cube: a data directory holding one checksummed checkpoint snapshot
// plus a tail of rotated write-ahead-log segments.
//
// Layout of a data directory:
//
//	snap-00000007.ckpt   checkpoint covering segments 1..7 (DDCCKPT1)
//	wal-00000008.log     active segment (DDCWAL02), mutations since
//
// Invariants:
//
//   - A checkpoint named snap-S contains every mutation from segments
//     with sequence <= S, so recovery loads the highest checkpoint and
//     replays only segments with sequence > S. Stale files left behind
//     by a crash mid-checkpoint (an old segment, a *.tmp snapshot) are
//     therefore ignored or garbage-collected, never double-applied.
//   - Every acknowledged mutation — one whose Flush returned nil —
//     survives any crash: Flush fsyncs the active segment, checkpoints
//     write to a temp file, fsync, atomically rename, then fsync the
//     directory before old segments are truncated away.
//   - Corruption is a typed error (ddc.ErrBadWAL / ddc.ErrBadSnapshot),
//     never silently applied: WAL records are framed records with CRC32C
//     checksums (internal/logrec), and checkpoints wrap the snapshot in a
//     length+CRC32C container hashed by the same package. A
//     torn record is tolerated only at the tail of the final segment
//     (the crash signature); anywhere else it is corruption.
//
// Store is safe for concurrent mutation/checkpoint calls (an internal
// mutex serializes them), but reads of the underlying cube must not
// run concurrently with mutations — callers such as
// internal/cubeserver provide that read/write locking.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ddc"
	"ddc/internal/logrec"
	"ddc/internal/obs"
)

// ckptMagic identifies the checkpoint container: an 8-byte magic, a
// uint64 payload length, a uint32 CRC32C of the payload, then the
// payload (a complete DDCSNAP2 snapshot stream).
var ckptMagic = [8]byte{'D', 'D', 'C', 'C', 'K', 'P', 'T', '1'}

// ckptHeaderSize is magic(8) + length(8) + crc(4).
const ckptHeaderSize = 20

// Default auto-checkpoint triggers: rotate the active segment once it
// holds this many records or bytes, whichever comes first.
const (
	DefaultCheckpointRecords = 1 << 16
	DefaultCheckpointBytes   = 16 << 20
)

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNoGeometry is returned by Open for an empty data directory when
// Options.Dims is not set — there is nothing to recover and no shape
// for a fresh cube.
var ErrNoGeometry = errors.New("store: empty data directory and no dims configured")

// Options configures Open.
type Options struct {
	// Dims is the shape of a fresh cube when the directory is empty.
	// Ignored when a checkpoint exists (the checkpoint's geometry wins).
	Dims []int
	// Cube holds cube construction options (tile, fanout, autogrow,
	// prefix-sum backend) for a fresh cube; a checkpoint overrides the
	// geometry options (like Dims) but the backend always applies —
	// checkpoints store raw cells, so any checkpoint rebuilds under any
	// backend.
	Cube ddc.Options
	// CheckpointRecords rotates the active segment after this many
	// records; 0 means DefaultCheckpointRecords.
	CheckpointRecords uint64
	// CheckpointBytes rotates the active segment after this many bytes;
	// 0 means DefaultCheckpointBytes.
	CheckpointBytes uint64
	// DisableAutoCheckpoint leaves rotation entirely to explicit
	// Checkpoint calls.
	DisableAutoCheckpoint bool
	// NoSync skips every fsync (file and directory). Only for tests and
	// benchmarks: acknowledged mutations then survive process crashes
	// but not power loss.
	NoSync bool
	// Buffered puts the delta-buffer write front (ddc.Buffered) between
	// the WAL and the tree: mutations are validated, buffered in memory
	// and logged, and a background merger drains them into the tree in
	// batches. Checkpoints then run asynchronously off a frozen tree —
	// writers keep landing in a fresh delta + rotated segment while the
	// snapshot streams, so checkpoint duration leaves the write tail.
	// Route queries through Buffered() (not Cube()) in this mode.
	Buffered bool
	// Buffer tunes the delta front when Buffered is set (zero value =
	// defaults).
	Buffer ddc.BufferedOptions
}

// RecoveryInfo describes what Open found and replayed.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence of the checkpoint that was loaded (0
	// when the directory was empty).
	SnapshotSeq uint64
	// Segments is the number of WAL segments replayed on top of it.
	Segments int
	// Records is the number of log records replayed.
	Records uint64
	// TornTail reports that the final segment ended in a partial
	// record, which was dropped (the crash-during-append signature).
	TornTail bool
}

// Stats is a point-in-time view of the active segment.
type Stats struct {
	// Segment is the active segment's sequence number.
	Segment uint64
	// Records and Bytes measure the active segment (bytes include the
	// stream header).
	Records uint64
	Bytes   uint64
	// Checkpoints counts checkpoints written by this Store instance,
	// including the one Open performs after recovery.
	Checkpoints uint64
}

// Store is a dynamic cube bound to a data directory: mutations are
// applied to the in-memory cube and appended to the active WAL segment,
// Flush is the commit point, and Checkpoint (manual or size-triggered)
// persists a snapshot and truncates the log.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	cube *ddc.DynamicCube
	buf  *ddc.Buffered // non-nil in Options.Buffered mode
	wal  *ddc.WAL
	f    *os.File // active segment
	seg  uint64   // active segment sequence

	// ckptMu serializes buffered-mode checkpoints end to end (drain,
	// rotate, stream, gc) without holding s.mu across the stream, so
	// writers proceed while the snapshot is written. Lock order:
	// ckptMu before s.mu.
	ckptMu   sync.Mutex
	ckptBusy bool  // an async auto-checkpoint is in flight
	ckptErr  error // latched failure from an async checkpoint

	recovery    RecoveryInfo
	checkpoints uint64
	closed      bool

	// tsc/tparent attach a request's span trace (see TraceSpans); they
	// survive segment rotation, which swaps in a fresh WAL.
	tsc     *obs.SpanContext
	tparent obs.SpanID
}

// Open recovers a store from dir (creating it if needed): load the
// highest checkpoint, replay the contiguous run of newer WAL segments
// (tolerating a torn record only at the very tail), then write a fresh
// checkpoint so the recovered state is durable before any new mutation
// is accepted — records can never be stranded in rotated-away logs.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	if s.opts.CheckpointRecords == 0 {
		s.opts.CheckpointRecords = DefaultCheckpointRecords
	}
	if s.opts.CheckpointBytes == 0 {
		s.opts.CheckpointBytes = DefaultCheckpointBytes
	}
	snaps, segs, err := s.scan()
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		if len(segs) > 0 {
			return nil, fmt.Errorf("%w: %d wal segment(s) but no checkpoint in %s", ddc.ErrBadWAL, len(segs), dir)
		}
		if len(opts.Dims) == 0 {
			return nil, ErrNoGeometry
		}
		cube, err := ddc.NewDynamicWithOptions(opts.Dims, opts.Cube)
		if err != nil {
			return nil, err
		}
		s.cube = cube
		s.seg = 0
	} else {
		S := snaps[len(snaps)-1]
		cube, err := s.loadCheckpoint(S)
		if err != nil {
			return nil, err
		}
		s.cube = cube
		s.seg = S
		s.recovery.SnapshotSeq = S
		var tail []uint64
		for _, q := range segs {
			if q > S {
				tail = append(tail, q)
			}
		}
		for i, q := range tail {
			if q != S+uint64(i)+1 {
				return nil, fmt.Errorf("%w: missing wal segment %d (found %d)", ddc.ErrBadWAL, S+uint64(i)+1, q)
			}
			st, err := s.replaySegment(q, cube)
			if err != nil {
				return nil, err
			}
			if st.Torn && i != len(tail)-1 {
				return nil, fmt.Errorf("%w: torn record inside non-final segment %s", ddc.ErrBadWAL, s.segName(q))
			}
			s.recovery.Records += st.Applied
			s.recovery.TornTail = s.recovery.TornTail || st.Torn
			s.seg = q
		}
		s.recovery.Segments = len(tail)
	}
	// The delta front goes in before the first segment opens, so the
	// recovered WAL wraps it and every later mutation is buffered.
	// Recovery itself replayed straight into the tree above.
	if opts.Buffered {
		s.buf = ddc.NewBuffered(s.cube, opts.Buffer)
	}
	// One checkpoint makes the recovered state durable, opens a fresh
	// active segment, and garbage-collects every older file (including
	// stale segments a mid-checkpoint crash left behind).
	if err := s.checkpointLocked(); err != nil {
		if s.buf != nil {
			s.buf.Close()
		}
		return nil, err
	}
	ddc.GlobalTelemetry().RecordStoreRecovery(time.Since(start))
	return s, nil
}

// Cube exposes the recovered cube for queries. Reads must not run
// concurrently with Add/Set/Checkpoint — the caller provides locking.
// In Options.Buffered mode, read through Buffered() instead: the raw
// cube misses undrained deltas and races with the merger.
func (s *Store) Cube() *ddc.DynamicCube { return s.cube }

// Buffered exposes the delta front in Options.Buffered mode (nil
// otherwise). Its queries compose tree + undrained delta and are safe
// concurrently with mutations, drains and checkpoints.
func (s *Store) Buffered() *ddc.Buffered { return s.buf }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Recovery reports what Open found and replayed.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Healthy reports whether the store can accept mutations: nil while
// open with an unpoisoned log, otherwise the terminal error (closed, or
// the write/sync failure that poisoned the WAL). Readiness probes (the
// server's /readyz) gate on it.
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.ckptErr != nil {
		return s.ckptErr
	}
	if s.buf != nil {
		if err := s.buf.Err(); err != nil {
			return err
		}
	}
	if s.wal != nil {
		return s.wal.Err()
	}
	return nil
}

// TraceSpans attaches a span trace to the persistence pipeline: while
// sc is non-nil, WAL appends/flushes and checkpoints record child spans
// under parent. Pass nil to detach. The attachment survives segment
// rotation (checkpoints swap in a fresh WAL).
func (s *Store) TraceSpans(sc *obs.SpanContext, parent obs.SpanID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tsc, s.tparent = sc, parent
	if s.wal != nil {
		s.wal.TraceSpans(sc, parent)
	}
}

// Stats returns the active segment's position.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Segment: s.seg, Checkpoints: s.checkpoints}
	if s.wal != nil {
		st.Records = s.wal.Records()
		st.Bytes = s.wal.Bytes()
	}
	return st
}

// apply applies a mutation and appends its record to the active
// segment — one record whatever the box volume of a RangeAdd. It is not
// durable until Flush returns nil.
func (s *Store) apply(m logrec.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return m.Apply(s.wal)
}

// Add applies a point delta; see apply.
func (s *Store) Add(p []int, delta int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Add, Lo: p, Delta: delta})
}

// RangeAdd applies a box delta; see apply.
func (s *Store) RangeAdd(lo, hi []int, delta int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.RangeAdd, Lo: lo, Hi: hi, Delta: delta})
}

// Set assigns a cell value; see apply.
func (s *Store) Set(p []int, value int64) error {
	return s.apply(logrec.Mutation{Kind: logrec.Set, Lo: p, Delta: value})
}

// Flush is the commit point: buffered records are flushed and fsynced;
// when it returns nil every prior mutation survives a crash. If the
// active segment has outgrown the checkpoint triggers, the segment is
// rotated through a checkpoint.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.wal.Flush(); err != nil {
		return err
	}
	if !s.opts.DisableAutoCheckpoint &&
		(s.wal.Records() >= s.opts.CheckpointRecords || s.wal.Bytes() >= s.opts.CheckpointBytes) {
		if s.buf != nil {
			// Buffered mode: the checkpoint streams in the background so
			// this Flush (and the writer behind it) returns immediately;
			// a failure is latched into Healthy.
			s.asyncCheckpointLocked()
			return nil
		}
		return s.checkpointLocked()
	}
	return nil
}

// asyncCheckpointLocked kicks off a background checkpoint unless one is
// already in flight. Callers hold s.mu.
func (s *Store) asyncCheckpointLocked() {
	if s.ckptBusy {
		return
	}
	s.ckptBusy = true
	go func() {
		err := s.Checkpoint()
		s.mu.Lock()
		s.ckptBusy = false
		if err != nil && !errors.Is(err, ErrClosed) && s.ckptErr == nil {
			s.ckptErr = err
		}
		s.mu.Unlock()
	}()
}

// Checkpoint persists a snapshot of the current state, rotates to a
// fresh WAL segment, and truncates the old ones. In Options.Buffered
// mode the snapshot streams off a frozen tree while writers keep
// landing in a fresh delta and the rotated segment — only the brief
// drain-and-rotate prologue excludes them.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.buf == nil {
		defer s.mu.Unlock()
		return s.checkpointLocked()
	}
	s.mu.Unlock()
	return s.checkpointBuffered()
}

// checkpointBuffered is the async-checkpoint sequence. The invariant
// "snap-S covers every mutation in segments <= S" holds because the
// delta is drained into the tree and the WAL flushed while s.mu still
// excludes writers, and the tree is frozen (drains and growth blocked,
// writers and readers not) before s.mu is released — so the streamed
// snapshot is exactly segment-S state no matter what lands meanwhile.
func (s *Store) checkpointBuffered() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	defer s.tsc.End(s.tsc.Start("store.checkpoint", s.tparent))
	if err := s.buf.Drain(); err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.wal.Flush(); err != nil {
		s.mu.Unlock()
		return err
	}
	S := s.seg
	release := s.buf.Freeze()
	if err := s.openSegment(S + 1); err != nil {
		release()
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	// Stream without s.mu: writers land in the fresh delta + segment
	// S+1, readers compose tree + delta, the frozen tree holds still.
	err := s.writeCheckpoint(S)
	release()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.gc(S)
	s.checkpoints++
	s.mu.Unlock()
	ddc.GlobalTelemetry().RecordStoreCheckpoint(time.Since(start))
	return nil
}

// Close flushes and fsyncs the active segment and releases it. In
// buffered mode it first waits out any in-flight checkpoint, stops the
// merger and drains the delta (those records are already in the log, so
// the final drain only settles the in-memory tree). The store cannot be
// used afterwards; reopen the directory instead.
func (s *Store) Close() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	buf := s.buf
	s.mu.Unlock()
	var err error
	if buf != nil {
		err = buf.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.wal.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkpointLocked writes snap-S for the current state (S = active
// segment sequence, so the snapshot covers every segment up to and
// including it), rotates to segment S+1, then garbage-collects older
// snapshots and covered segments. Callers hold s.mu.
func (s *Store) checkpointLocked() error {
	start := time.Now()
	defer s.tsc.End(s.tsc.Start("store.checkpoint", s.tparent))
	if s.buf != nil {
		// Synchronous path (Open's initial checkpoint): the delta must
		// be in the tree before the snapshot streams.
		if err := s.buf.Drain(); err != nil {
			return err
		}
	}
	if s.wal != nil {
		if err := s.wal.Flush(); err != nil {
			return err
		}
	}
	S := s.seg
	if err := s.writeCheckpoint(S); err != nil {
		return err
	}
	if err := s.openSegment(S + 1); err != nil {
		return err
	}
	s.gc(S)
	s.checkpoints++
	ddc.GlobalTelemetry().RecordStoreCheckpoint(time.Since(start))
	return nil
}

// writeCheckpoint streams the snapshot into snap-S.ckpt.tmp (computing
// the container CRC on the way), fsyncs it, atomically renames it into
// place, and fsyncs the directory.
func (s *Store) writeCheckpoint(S uint64) error {
	final := filepath.Join(s.dir, s.snapName(S))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = func() error {
		// Placeholder header; length and CRC are patched in once the
		// payload is on disk.
		var hdr [ckptHeaderSize]byte
		copy(hdr[:8], ckptMagic[:])
		if _, err := f.Write(hdr[:]); err != nil {
			return err
		}
		crc := logrec.NewHash()
		if err := s.cube.SaveCompact(io.MultiWriter(f, crc)); err != nil {
			return err
		}
		end, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(end-ckptHeaderSize))
		binary.LittleEndian.PutUint32(hdr[16:20], crc.Sum32())
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return err
		}
		if !s.opts.NoSync {
			return f.Sync()
		}
		return nil
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return s.syncDir()
}

// loadCheckpoint opens snap-S and reconstructs the cube, verifying the
// container length and CRC32C so a flipped or truncated byte is a
// typed error, never a silently divergent cube.
func (s *Store) loadCheckpoint(S uint64) (*ddc.DynamicCube, error) {
	name := s.snapName(S)
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [ckptHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %s: truncated header", ddc.ErrBadSnapshot, name)
	}
	if [8]byte(hdr[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: %s: bad checkpoint magic", ddc.ErrBadSnapshot, name)
	}
	plen := binary.LittleEndian.Uint64(hdr[8:16])
	want := binary.LittleEndian.Uint32(hdr[16:20])
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if uint64(fi.Size()) != ckptHeaderSize+plen {
		return nil, fmt.Errorf("%w: %s: %d payload bytes on disk, header says %d",
			ddc.ErrBadSnapshot, name, fi.Size()-ckptHeaderSize, plen)
	}
	crc := logrec.NewHash()
	cr := io.TeeReader(io.LimitReader(f, int64(plen)), crc)
	// Checkpoints are backend-agnostic (raw cells); the configured
	// backend shapes only the rebuilt in-memory structure.
	cube, lerr := ddc.LoadDynamicBackend(cr, s.opts.Cube.Backend)
	// Drain whatever the snapshot reader did not consume so the CRC
	// covers the whole payload, then verify before trusting the cube.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, err
	}
	if got := crc.Sum32(); got != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (got %08x, want %08x)",
			ddc.ErrBadSnapshot, name, got, want)
	}
	if lerr != nil {
		return nil, fmt.Errorf("%s: %w", name, lerr)
	}
	return cube, nil
}

// openSegment creates the next active segment, writes and fsyncs its
// stream header (so a well-formed empty segment is on disk before any
// record is acknowledged), and swaps it in.
func (s *Store) openSegment(q uint64) error {
	path := filepath.Join(s.dir, s.segName(q))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if s.opts.NoSync {
		w = noSyncWriter{f}
	}
	// In buffered mode the WAL applies through the delta front, so
	// validate-then-buffer-then-log ordering is preserved per record.
	var target ddc.Cube = s.cube
	if s.buf != nil {
		target = s.buf
	}
	wal, err := ddc.NewWAL(target, w)
	if err == nil {
		err = wal.Flush()
	}
	if err == nil {
		err = s.syncDir()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f = f
	s.wal = wal
	s.seg = q
	wal.TraceSpans(s.tsc, s.tparent)
	return nil
}

// gc removes snapshots older than S and segments covered by snap-S.
// Failures are ignored — leftovers are redundant by construction and
// will be collected by the next checkpoint or recovery.
func (s *Store) gc(S uint64) {
	snaps, segs, err := s.scan()
	if err != nil {
		return
	}
	for _, q := range snaps {
		if q < S {
			os.Remove(filepath.Join(s.dir, s.snapName(q)))
		}
	}
	for _, q := range segs {
		if q <= S {
			os.Remove(filepath.Join(s.dir, s.segName(q)))
		}
	}
	s.syncDir()
}

// scan lists checkpoint and segment sequences (each sorted ascending),
// removing stale *.tmp leftovers from interrupted checkpoints.
func (s *Store) scan() (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		var q uint64
		if n, err := fmt.Sscanf(name, "snap-%d.ckpt", &q); err == nil && n == 1 {
			snaps = append(snaps, q)
		} else if n, err := fmt.Sscanf(name, "wal-%d.log", &q); err == nil && n == 1 {
			segs = append(segs, q)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

func (s *Store) snapName(q uint64) string { return fmt.Sprintf("snap-%08d.ckpt", q) }
func (s *Store) segName(q uint64) string  { return fmt.Sprintf("wal-%08d.log", q) }

// walStreamHeaderSize is the magic + dimensionality prefix of a WAL
// stream (docs/FORMATS.md). A segment shorter than this never held an
// acknowledged record — openSegment fsyncs the header before the first
// append — so it is a create-crash signature, not corruption.
const walStreamHeaderSize = 12

// replaySegment applies one segment's records to the cube. A segment
// shorter than its header is reported as a torn, empty segment; Open
// tolerates that only in the final position, like any torn tail.
func (s *Store) replaySegment(q uint64, cube *ddc.DynamicCube) (ddc.WALReplayStats, error) {
	f, err := os.Open(filepath.Join(s.dir, s.segName(q)))
	if err != nil {
		return ddc.WALReplayStats{}, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Size() < walStreamHeaderSize {
		return ddc.WALReplayStats{Torn: true}, nil
	}
	st, err := ddc.ReplayWALStats(f, cube)
	if err != nil {
		return st, fmt.Errorf("%s: %w", s.segName(q), err)
	}
	return st, nil
}

// syncDir fsyncs the data directory so renames and unlinks are durable.
func (s *Store) syncDir() error {
	if s.opts.NoSync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// noSyncWriter hides an *os.File's Sync method from the WAL's
// commit-point hook (Options.NoSync).
type noSyncWriter struct{ io.Writer }
