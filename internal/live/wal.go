package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Durability for live views (§4.2 applied to the serving layer): a
// converged fixpoint under streaming mutations is exactly the "logged
// loop state" the paper's recovery discussion wants — so the serving
// layer logs it. Three pieces cooperate:
//
//   - a per-view write-ahead log: every Mutate call appends its batch as
//     one CRC32 frame (record.AppendFrame) and fsyncs *before* the call
//     returns, so an acknowledged mutation survives a crash;
//   - periodic streaming snapshots: every SnapshotEveryFlushes flushes
//     (or SnapshotEveryBytes of log growth) the graph and the resident
//     solution set are written through the iterative.CheckpointWriter,
//     partition by partition via runtime.SolutionSet.EachPartition — a
//     snapshot never materializes the full solution in memory;
//   - recovery on OpenView: the latest valid snapshot is loaded (falling
//     back to the previous one if the newest is unreadable), the WAL tail
//     beyond it is replayed through the ordinary maintenance path, torn
//     tails are truncated at the last valid frame, and the log is rotated
//     behind a fresh snapshot.
//
// On disk, a durable view owns DataDir/<name>/:
//
//	wal.log                  header (magic, version, baseSeq) + frames
//	snapshot-<seq>.snap      checkpoint-format file covering WAL frames 1..seq
//
// Frame seq numbers are absolute and monotone across rotations: the log
// header's baseSeq is the seq of the frame *preceding* the first frame in
// the file, so a rotated log (baseSeq = snapshot seq, no frames) and its
// snapshot tile the history exactly.

const (
	walFileName   = "wal.log"
	walMagic      = uint32(0x4c415753) // "SWAL"
	walVersion    = uint32(1)
	walHeaderSize = 16

	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".snap"
	// snapshotKindPrefix tags snapshot files with the maintainer that
	// wrote them, so recovery with the wrong algorithm fails loudly.
	snapshotKindPrefix = "live:"
	// Sharded views split a snapshot across files: the base file (kind
	// live-sharded:) carries the graph, the coordinator-hosted partitions,
	// and the host count; each worker's hosted partitions land in a
	// .shard<h> sibling (kind live-shard:). The base file is written last,
	// so a seq that lists is a seq whose shards are all on disk.
	snapshotShardedKindPrefix = "live-sharded:"
	snapshotShardKindPrefix   = "live-shard:"
)

var errWALClosed = errors.New("live: wal is closed")

// --- mutation codec ------------------------------------------------------

// mutationsToRecords packs a mutation batch into the record model the WAL
// frames carry: A=Src, B=Dst, X=Weight, Tag=Op.
func mutationsToRecords(muts []Mutation) record.Batch {
	out := make(record.Batch, len(muts))
	for i, m := range muts {
		out[i] = record.Record{A: m.Src, B: m.Dst, X: m.Weight, Tag: uint8(m.Op)}
	}
	return out
}

// recordsToMutations unpacks a WAL frame, rejecting unknown ops (a frame
// with a valid checksum but an impossible tag is corruption, not input).
func recordsToMutations(b record.Batch) ([]Mutation, error) {
	out := make([]Mutation, len(b))
	for i, r := range b {
		op := Op(r.Tag)
		if op < OpInsertEdge || op > OpDeleteVertex {
			return nil, fmt.Errorf("live: wal frame carries unknown op %d", r.Tag)
		}
		out[i] = Mutation{Op: op, Src: r.A, Dst: r.B, Weight: r.X}
	}
	return out, nil
}

// --- write-ahead log -----------------------------------------------------

// wal is one view's append-only mutation log. All methods are safe for
// concurrent use; appends additionally serialize with the view's pending
// lock (the caller), so frame order matches micro-batch order exactly.
type wal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	base uint64 // seq of the frame preceding the first frame in the file
	seq  uint64 // seq of the last appended/validated frame
	size int64  // current file size
	buf  []byte // reusable frame-encode buffer
	err  error  // sticky failure: a log that failed a write stops accepting
}

func walHeader(base uint64) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], base)
	return hdr[:]
}

// createWAL durably creates a fresh log whose frames will start at
// base+1.
func createWAL(path string, base uint64) (*wal, error) {
	if err := iterative.WriteFileDurable(path, func(w io.Writer) error {
		_, err := w.Write(walHeader(base))
		return err
	}); err != nil {
		return nil, fmt.Errorf("live: creating wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{path: path, f: f, base: base, seq: base, size: walHeaderSize}, nil
}

// scanWAL validates an existing log: every intact frame invokes replay
// (in seq order); the first torn or corrupt frame truncates the file at
// the end of the valid prefix. A replay error aborts the scan.
func scanWAL(path string, replay func(seq uint64, b record.Batch) error) (base, seq uint64, size int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("live: wal header truncated: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != walMagic {
		return 0, 0, 0, fmt.Errorf("live: not a wal (magic %#x)", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != walVersion {
		return 0, 0, 0, fmt.Errorf("live: unsupported wal version %d", v)
	}
	base = binary.LittleEndian.Uint64(hdr[8:16])
	seq = base
	fr := record.NewFrameReader(f)
	torn := false
	for {
		b, ferr := fr.Next()
		if ferr == io.EOF {
			break
		}
		if errors.Is(ferr, record.ErrCorruptFrame) {
			torn = true
			break
		}
		if ferr != nil {
			return 0, 0, 0, ferr
		}
		seq++
		if replay != nil {
			if err := replay(seq, b); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	size = walHeaderSize + fr.ValidOffset()
	if torn {
		if err := f.Truncate(size); err != nil {
			return 0, 0, 0, fmt.Errorf("live: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, 0, 0, err
		}
	}
	return base, seq, size, nil
}

// openWAL scans an existing log (replaying valid frames, truncating any
// torn tail) and reopens it for appends.
func openWAL(path string, replay func(seq uint64, b record.Batch) error) (*wal, error) {
	base, seq, size, err := scanWAL(path, replay)
	if err != nil {
		return nil, err
	}
	return openScannedWAL(path, base, seq, size)
}

// openScannedWAL opens a log for appends using the bookkeeping an
// earlier scanWAL already produced, skipping a second validation pass.
func openScannedWAL(path string, base, seq uint64, size int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{path: path, f: f, base: base, seq: seq, size: size}, nil
}

// Append durably logs one mutation batch: the frame is written and
// fsynced before the new seq is returned. After a write or sync failure
// the log is poisoned — the file may hold a partial frame, so accepting
// further appends would bury valid frames behind garbage.
func (w *wal) Append(b record.Batch) (seq uint64, n int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, 0, w.err
	}
	w.buf = record.AppendFrame(w.buf[:0], b)
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = err
		return 0, 0, err
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return 0, 0, err
	}
	w.seq++
	w.size += int64(len(w.buf))
	return w.seq, len(w.buf), nil
}

// Seq returns the seq of the last durably appended frame.
func (w *wal) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// SizeBytes returns the log's current size.
func (w *wal) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Rotate starts a fresh log once every appended frame is covered by the
// snapshot at upTo. If frames beyond upTo exist (mutations acknowledged
// while the snapshot was being written), rotation is skipped — the next
// snapshot will catch up. The fresh header is written durably through
// the same helper checkpoint saves use.
func (w *wal) Rotate(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.seq != upTo {
		return nil
	}
	if w.base == upTo && w.size == walHeaderSize {
		return nil // already fresh
	}
	// The fresh header is renamed over the path while the old descriptor
	// is still open: a failure here leaves the old log intact and
	// appendable — rotation failing transiently (ENOSPC on the temp
	// file, say) must not poison a healthy log.
	if err := iterative.WriteFileDurable(w.path, func(wr io.Writer) error {
		_, err := wr.Write(walHeader(upTo))
		return err
	}); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The path now names the fresh log but it cannot be opened; the
		// old descriptor points at the unlinked file, so appends would be
		// silently lost — poison.
		w.err = err
		w.f.Close()
		return err
	}
	w.f.Close()
	w.f = f
	w.base = upTo
	w.size = walHeaderSize
	return nil
}

// Close stops the log; later appends fail.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	w.err = errWALClosed
	return err
}

// --- snapshots -----------------------------------------------------------

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapshotPrefix, seq, snapshotSuffix)
}

// shardSnapshotName names host h's partition file of the sharded snapshot
// at seq. listSnapshots skips these (the embedded ".shard<h>" fails the
// seq parse), so only complete base files name recovery points.
func shardSnapshotName(seq uint64, host int) string {
	return fmt.Sprintf("%s%020d.shard%d%s", snapshotPrefix, seq, host, snapshotSuffix)
}

// listSnapshots returns the seqs of the directory's snapshot files in
// descending order (newest first).
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs, nil
}

// pruneSnapshots deletes all snapshots older than the newest two: the one
// just written plus its predecessor, kept as the fallback recovery reads
// when the newest proves unreadable. Shard files are pruned with their
// base file by seq.
func pruneSnapshots(dir string) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return
	}
	keep := make(map[uint64]bool, 2)
	for _, s := range seqs[:min(2, len(seqs))] {
		keep[s] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		body := strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix)
		seqStr, _, _ := strings.Cut(body, ".")
		s, perr := strconv.ParseUint(seqStr, 10, 64)
		if perr != nil || keep[s] {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// writeSnapshotTo streams the view's durable base state — graph
// vertices, graph edges, and this process's resident solution records —
// in checkpoint format. The solution section is streamed through
// session.EachSolution: peak memory is one frame plus the
// writer's buffer, never a second copy of the solution (spilled
// partitions stream from disk to disk). For a sharded view (workerShards
// > 0) the kind switches to live-sharded:, the solution section holds
// only the coordinator-hosted partitions, and a trailing meta section
// records the host count so recovery knows which shard files to demand.
func (v *LiveView) writeSnapshotTo(w io.Writer, seq uint64, workerShards int) error {
	kind := snapshotKindPrefix + v.m.Name()
	if workerShards > 0 {
		kind = snapshotShardedKindPrefix + v.m.Name()
	}
	cw, err := iterative.NewCheckpointWriter(w, kind, seq)
	if err != nil {
		return err
	}
	if err := v.gs.writeGraph(cw.Append, cw.EndSection); err != nil {
		return err
	}
	if err := v.sess.EachSolution(cw.Append); err != nil {
		return err
	}
	if err := cw.EndSection(); err != nil {
		return err
	}
	if workerShards > 0 {
		if err := cw.Append(record.Record{A: int64(1 + workerShards)}); err != nil {
			return err
		}
		if err := cw.EndSection(); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// writeShardTo writes one worker host's hosted partitions as a
// single-section checkpoint file.
func writeShardTo(w io.Writer, kind string, seq uint64, recs []record.Record) error {
	cw, err := iterative.NewCheckpointWriter(w, kind, seq)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := cw.Append(r); err != nil {
			return err
		}
	}
	if err := cw.EndSection(); err != nil {
		return err
	}
	return cw.Flush()
}

// snapshotLocked persists a snapshot covering WAL frames 1..flushedSeq,
// prunes obsolete snapshots, and rotates the log when possible. Caller
// holds the maintenance lock, so the solution set is converged. A
// sharded view's snapshot is a file family: each worker's hosted
// partitions are pulled over the session and written as shard files
// *before* the base file — the base names the recovery point, so a crash
// mid-snapshot never leaves a listed seq with a missing shard.
func (v *LiveView) snapshotLocked() error {
	snapStart := time.Now()
	d := v.dur
	seq := d.flushedSeq
	shards, err := v.sess.Shards()
	if err != nil {
		return fmt.Errorf("live: view %q shard collect: %w", v.name, err)
	}
	for i, frames := range shards {
		h := i + 1
		recs, err := record.DecodeFrames(frames)
		if err != nil {
			return fmt.Errorf("live: view %q shard %d payload: %w", v.name, h, err)
		}
		path := filepath.Join(d.dir, shardSnapshotName(seq, h))
		if err := iterative.WriteFileDurable(path, func(w io.Writer) error {
			return writeShardTo(w, snapshotShardKindPrefix+v.m.Name(), seq, recs)
		}); err != nil {
			return fmt.Errorf("live: view %q shard %d snapshot: %w", v.name, h, err)
		}
	}
	path := filepath.Join(d.dir, snapshotName(seq))
	if err := iterative.WriteFileDurable(path, func(w io.Writer) error {
		return v.writeSnapshotTo(w, seq, len(shards))
	}); err != nil {
		return fmt.Errorf("live: view %q snapshot: %w", v.name, err)
	}
	d.snapSeq = seq
	d.flushesSinceSnap = 0
	d.snapshots++
	d.hasSnapshot = true
	if m := v.cfg.Metrics; m != nil {
		m.SnapshotsWritten.Add(1)
	}
	pruneSnapshots(d.dir)
	if err := d.wal.Rotate(seq); err != nil {
		return err
	}
	d.walBytesAtSnap = d.wal.SizeBytes()
	if v.ring != nil {
		v.snapHist.ObserveSince(snapStart)
		v.span(obs.PhaseSnapshot, snapStart)
	}
	return nil
}

// openSnapshot opens snapshot seq of either format — plain (live:) or
// sharded (live-sharded: base plus its .shard<h> siblings) — and reads
// its graph sections into a fresh GraphState. The returned fill streams
// the solution records into a solution set frame by frame, the base
// section and then every shard file, mirroring the writer: the full
// solution is never materialized outside the set, and the records
// re-partition under whatever session the recovering view opens, so
// worker counts may change across restarts. Any missing or mismatched
// shard file fails fill, and the caller falls back to an older snapshot.
// The caller closes f once fill has run.
func openSnapshot(dir string, seq uint64, m Maintainer) (gs *GraphState, fill func(*runtime.SolutionSet) error, f *os.File, err error) {
	f, err = os.Open(filepath.Join(dir, snapshotName(seq)))
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	cr, err := iterative.NewCheckpointReader(f)
	if err != nil {
		return nil, nil, nil, err
	}
	var sharded bool
	switch cr.Kind() {
	case snapshotKindPrefix + m.Name():
	case snapshotShardedKindPrefix + m.Name():
		sharded = true
	default:
		return nil, nil, nil, fmt.Errorf("live: snapshot kind %q, view wants %q", cr.Kind(), m.Name())
	}
	if cr.Iteration() != seq {
		return nil, nil, nil, fmt.Errorf("live: snapshot file for seq %d covers seq %d", seq, cr.Iteration())
	}
	if gs, err = readGraph(cr.ReadSection); err != nil {
		return nil, nil, nil, fmt.Errorf("live: snapshot: %w", err)
	}
	fill = func(sol *runtime.SolutionSet) error {
		load := func(b record.Batch) error {
			sol.Init(b)
			return nil
		}
		if err := cr.ReadSection(load); err != nil {
			return fmt.Errorf("live: snapshot solution: %w", err)
		}
		hosts := 1
		if sharded {
			var meta []record.Record
			if err := cr.ReadSection(func(b record.Batch) error {
				meta = append(meta, b...)
				return nil
			}); err != nil {
				return fmt.Errorf("live: snapshot shard meta: %w", err)
			}
			if len(meta) != 1 || meta[0].A < 1 {
				return fmt.Errorf("live: malformed snapshot shard meta")
			}
			hosts = int(meta[0].A)
		}
		if err := cr.ReadSection(func(record.Batch) error { return nil }); err != io.EOF {
			return fmt.Errorf("live: trailing data after snapshot")
		}
		for h := 1; h < hosts; h++ {
			path := filepath.Join(dir, shardSnapshotName(seq, h))
			if err := readShardFile(path, snapshotShardKindPrefix+m.Name(), seq, load); err != nil {
				return fmt.Errorf("live: snapshot shard %d: %w", h, err)
			}
		}
		return nil
	}
	return gs, fill, f, nil
}

// readShardFile streams one worker host's hosted partitions back out of
// its shard file, validating the kind and covered seq.
func readShardFile(path, wantKind string, seq uint64, load func(record.Batch) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr, err := iterative.NewCheckpointReader(f)
	if err != nil {
		return err
	}
	if cr.Kind() != wantKind {
		return fmt.Errorf("live: shard kind %q, want %q", cr.Kind(), wantKind)
	}
	if cr.Iteration() != seq {
		return fmt.Errorf("live: shard covers seq %d, base snapshot %d", cr.Iteration(), seq)
	}
	if err := cr.ReadSection(load); err != nil {
		return err
	}
	if err := cr.ReadSection(func(record.Batch) error { return nil }); err != io.EOF {
		return fmt.Errorf("live: trailing data after shard records")
	}
	return nil
}

// --- open / create / recover --------------------------------------------

// validateViewName restricts durable view names to filesystem-safe
// tokens, since each names a directory under DataDir.
func validateViewName(name string) error {
	if name == "" {
		return fmt.Errorf("live: view name must not be empty")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("live: durable view name %q may only contain [A-Za-z0-9._-]", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("live: durable view name %q is reserved", name)
	}
	return nil
}

// OpenView builds or recovers a view. Without ViewConfig.Durable it is
// NewView. With durability, the view owns DataDir/<name>: when that
// directory already holds a log or snapshot, the view is *recovered* —
// the latest valid snapshot is loaded, the WAL tail beyond it is
// replayed through the ordinary maintenance path, torn tails are
// truncated at the last valid frame, and the log is rotated behind a
// fresh snapshot; `initial` is ignored (the durable history wins).
// Otherwise the view is created fresh: the initial mutations become the
// log's first frame, the cold fixpoint runs, and a base snapshot is
// written, so a crash at any later point recovers every acknowledged
// mutation.
func OpenView(name string, m Maintainer, initial []Mutation, cfg ViewConfig) (*LiveView, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized().withObsDefaults(name)
	if !cfg.Durable {
		return newViewCore(name, m, initial, cfg)
	}
	if err := validateViewName(name); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.DataDir, name)
	walPath := filepath.Join(dir, walFileName)
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	if _, statErr := os.Stat(walPath); statErr == nil || len(snaps) > 0 {
		return recoverView(name, m, cfg, dir)
	}
	return createDurable(name, m, initial, cfg, dir)
}

// createDurable builds a fresh durable view. Durability before
// acknowledgment: the WAL (with the initial mutations as frame 1) is on
// disk before the cold fixpoint runs, so a crash mid-build recovers the
// accepted graph; the base snapshot then bounds that replay.
func createDurable(name string, m Maintainer, initial []Mutation, cfg ViewConfig, dir string) (*LiveView, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fail := func(err error) (*LiveView, error) {
		os.RemoveAll(dir) // nothing was acknowledged; leave no half-view behind
		return nil, err
	}
	w, err := createWAL(filepath.Join(dir, walFileName), 0)
	if err != nil {
		return nil, err
	}
	var walBytes int64
	if len(initial) > 0 {
		_, n, err := w.Append(mutationsToRecords(initial))
		if err != nil {
			w.Close()
			return fail(err)
		}
		walBytes = int64(n)
	}
	v, err := newViewCore(name, m, initial, cfg)
	if err != nil {
		w.Close()
		return fail(err)
	}
	v.dur = &durableState{dir: dir, wal: w, flushedSeq: w.Seq()}
	if m := cfg.Metrics; m != nil && len(initial) > 0 {
		m.WALAppends.Add(1)
		m.WALBytes.Add(walBytes)
	}
	if err := v.snapshotLocked(); err != nil {
		v.Kill()
		return fail(err)
	}
	return v, nil
}

// recoverView rebuilds a durable view from its on-disk state.
func recoverView(name string, m Maintainer, cfg ViewConfig, dir string) (*LiveView, error) {
	cfg = cfg.withAutoDefaults()
	walPath := filepath.Join(dir, walFileName)
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}

	var (
		v       *LiveView
		snapSeq uint64
		loaded  bool
	)
	for _, s := range snaps {
		gs, fill, f, lerr := openSnapshot(dir, s, m)
		if lerr != nil {
			// An unreadable snapshot falls back to its predecessor; the
			// WAL base check below catches the case where the log no
			// longer reaches back that far.
			continue
		}
		var fillErr error
		cand := assembleView(name, m, cfg, gs)
		sess, serr := openSession(cand, func(sol *runtime.SolutionSet) error {
			fillErr = fill(sol)
			return fillErr
		})
		f.Close()
		if fillErr != nil {
			continue
		}
		if serr != nil {
			// Session open failure (e.g. a worker is unreachable) is an
			// environment error, not snapshot corruption: fail now rather
			// than silently recovering older state.
			return nil, fmt.Errorf("live: recovering view %q: %w", name, serr)
		}
		cand.sess = sess
		v, snapSeq, loaded = cand, s, true
		break
	}

	var rebuildSeq uint64
	var rebuildSize int64
	if !loaded {
		// No usable snapshot: the log must carry the full history.
		gs := NewGraphState()
		base, seq, size, err := scanWAL(walPath, func(_ uint64, b record.Batch) error {
			muts, err := recordsToMutations(b)
			if err != nil {
				return err
			}
			for _, mu := range muts {
				gs.Apply(mu)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("live: recovering view %q: %w", name, err)
		}
		if base != 0 {
			return nil, fmt.Errorf("live: view %q has no readable snapshot but its wal starts at frame %d", name, base+1)
		}
		rebuildSeq, rebuildSize = seq, size
		v = assembleView(name, m, cfg, gs)
		sess, err := openSession(v, nil)
		if err != nil {
			return nil, err
		}
		v.sess = sess
	}

	var (
		w        *wal
		replayed int64
	)
	if loaded {
		w, err = openWAL(walPath, func(seq uint64, b record.Batch) error {
			if seq <= snapSeq {
				return nil // already folded into the snapshot
			}
			muts, err := recordsToMutations(b)
			if err != nil {
				return err
			}
			if err := v.applyLocked(muts); err != nil {
				return fmt.Errorf("replaying wal frame %d: %w", seq, err)
			}
			replayed++
			return nil
		})
		if os.IsNotExist(err) {
			// Snapshot without a log (lost or never created): start a
			// fresh one at the snapshot's seq.
			w, err = createWAL(walPath, snapSeq)
		}
		if err != nil {
			v.sess.Kill()
			return nil, fmt.Errorf("live: recovering view %q: %w", name, err)
		}
		if w.base > snapSeq {
			w.Close()
			v.sess.Kill()
			return nil, fmt.Errorf("live: view %q wal starts at frame %d but the best snapshot covers only %d",
				name, w.base+1, snapSeq)
		}
	} else {
		// The graph was rebuilt from the full log; reopen it for appends
		// with the rebuild scan's bookkeeping (that scan already
		// validated every frame and truncated any torn tail).
		w, err = openScannedWAL(walPath, 0, rebuildSeq, rebuildSize)
		if err != nil {
			v.sess.Kill()
			return nil, err
		}
	}

	v.dur = &durableState{
		dir:        dir,
		wal:        w,
		flushedSeq: w.Seq(),
		snapSeq:    snapSeq,
		replayed:   replayed,
	}
	if !loaded {
		// The cold rebuild folded every frame; only a fresh snapshot
		// records that.
		v.dur.snapSeq = 0
	}
	if mt := cfg.Metrics; mt != nil {
		mt.RecoveryReplays.Add(replayed)
	}
	// Fold the recovered state into a fresh snapshot so the next recovery
	// starts here, and so the (possibly truncated) log can rotate.
	if v.dur.flushedSeq != v.dur.snapSeq || !loaded {
		if err := v.snapshotLocked(); err != nil {
			v.Kill()
			return nil, err
		}
	} else {
		// Nothing replayed: the loaded snapshot already covers
		// flushedSeq, so a clean Close need not write another.
		v.dur.hasSnapshot = true
		v.dur.walBytesAtSnap = w.SizeBytes()
	}
	return v, nil
}
