package iterative

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/record"
)

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	cp := &Checkpoint{
		Kind:      "incremental",
		Iteration: 17,
		Solution:  []record.Record{{A: 1, B: 2, X: 3.5, Tag: 4}, {A: -1}},
		Workset:   []record.Record{{A: 9}},
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != cp.Kind || back.Iteration != cp.Iteration {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Solution) != 2 || !back.Solution[0].Equal(cp.Solution[0]) {
		t.Errorf("solution mismatch: %v", back.Solution)
	}
	if len(back.Workset) != 1 || back.Workset[0].A != 9 {
		t.Errorf("workset mismatch: %v", back.Workset)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("not a checkpoint")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte{0x57, 0x4c, 0x46, 0x53})); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestCheckpointRejectsOversizeKind(t *testing.T) {
	// A corrupt kind-length must be rejected before any allocation
	// depends on it.
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, checkpointMagic)
	buf = binary.LittleEndian.AppendUint32(buf, checkpointVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<30)
	if _, err := ReadCheckpoint(bytes.NewReader(buf)); err == nil ||
		!strings.Contains(err.Error(), "kind length") {
		t.Fatalf("oversize kind length: %v", err)
	}
}

func TestCheckpointTruncatedSection(t *testing.T) {
	cp := &Checkpoint{Kind: "incremental", Iteration: 1,
		Solution: manyRecords(3 * checkpointChunk / 2), Workset: []record.Record{{A: 1}}}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	back, err := ReadCheckpoint(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Solution) != len(cp.Solution) || len(back.Workset) != 1 {
		t.Fatalf("round trip lost records: %d/%d", len(back.Solution), len(back.Workset))
	}
	// Every proper prefix must error (torn checkpoint), never panic or
	// silently return partial state.
	for _, cut := range []int{len(full) - 1, len(full) / 2, 30, 21} {
		if _, err := ReadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
	}
}

// TestCheckpointStreamingWrite checks the chunked encoding: a checkpoint
// larger than one frame must produce multiple bounded frames, and the
// writer must never hold more than ~one frame of encoded bytes.
func TestCheckpointStreamingWrite(t *testing.T) {
	n := 3*checkpointChunk + 17
	cp := &Checkpoint{Kind: "bulk", Iteration: 2, Solution: manyRecords(n)}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Solution) != n {
		t.Fatalf("solution: %d records, want %d", len(back.Solution), n)
	}
	for i, r := range back.Solution {
		if !r.Equal(cp.Solution[i]) {
			t.Fatalf("record %d: %v != %v", i, r, cp.Solution[i])
		}
	}
}

func manyRecords(n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{A: int64(i), B: int64(i % 97), X: float64(i) / 3, Tag: uint8(i)}
	}
	return out
}

// FuzzCheckpointRead feeds arbitrary bytes through the checkpoint
// decoder: it must never panic, and anything it accepts must round-trip.
func FuzzCheckpointRead(f *testing.F) {
	seed := func(cp *Checkpoint) []byte {
		var buf bytes.Buffer
		cp.WriteTo(&buf)
		return buf.Bytes()
	}
	f.Add(seed(&Checkpoint{Kind: "bulk", Iteration: 1, Solution: manyRecords(5)}))
	f.Add(seed(&Checkpoint{Kind: "incremental", Solution: manyRecords(2), Workset: manyRecords(3)})[:40])
	f.Add([]byte{0x57, 0x4c, 0x46, 0x53, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := cp.WriteTo(&buf); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		back, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if len(back.Solution) != len(cp.Solution) || len(back.Workset) != len(cp.Workset) {
			t.Fatal("round trip changed record counts")
		}
	})
}

func TestWriteFileDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileDurable(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// A failing writer must leave neither the target nor the temp file.
	bad := filepath.Join(dir, "bad.bin")
	if err := WriteFileDurable(bad, func(io.Writer) error {
		return io.ErrClosedPipe
	}); err == nil {
		t.Fatal("writer error swallowed")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed write left target: %v", err)
	}
	if _, err := os.Stat(bad + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left temp: %v", err)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.bin")
	cp := &Checkpoint{Kind: "bulk", Iteration: 3, Solution: []record.Record{{A: 42}}}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Iteration != 3 || back.Solution[0].A != 42 {
		t.Fatalf("file round trip lost data: %+v", back)
	}
}

func TestBulkCheckpointAndResume(t *testing.T) {
	// A 10-pass doubler checkpointed every 3 passes, resumed after a
	// simulated failure, must equal an uninterrupted run.
	build := func() (BulkSpec, []record.Record) {
		spec, init := doubler()
		spec.FixedIterations = 10
		return spec, init
	}

	spec, init := build()
	uninterrupted, err := RunBulk(spec, init, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	var last *Checkpoint
	spec2, init2 := build()
	spec2.FixedIterations = 6 // "failure" after pass 6
	spec2.CheckpointEvery = 3
	spec2.OnCheckpoint = func(cp *Checkpoint) error { last = cp; return nil }
	if _, err := RunBulk(spec2, init2, Config{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Iteration != 6 {
		t.Fatalf("checkpoint not taken: %+v", last)
	}

	spec3, _ := build()
	resumed, err := ResumeBulk(spec3, last, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Iterations != 10 {
		t.Errorf("resumed total iterations = %d, want 10", resumed.Iterations)
	}
	sum := func(rs []record.Record) int64 {
		var s int64
		for _, r := range rs {
			s += r.A
		}
		return s
	}
	if sum(resumed.Solution) != sum(uninterrupted.Solution) {
		t.Errorf("resumed %d != uninterrupted %d", sum(resumed.Solution), sum(uninterrupted.Solution))
	}
}

func TestIncrementalCheckpointAndResumeAfterFailure(t *testing.T) {
	// Ring propagation with a UDF that fails exactly once mid-run; the
	// checkpoint taken before the failure lets the job finish and reach
	// the same fixpoint.
	const n = 24
	var failAt atomic.Int64
	failAt.Store(8) // supersteps before the injected crash

	build := func() (IncrementalSpec, []record.Record, []record.Record) {
		spec, s0, w0 := incrSpec(n)
		// Wrap the solution join with a failure injector.
		for _, node := range spec.Plan.Nodes() {
			if node.Contract == dataflow.SolutionJoin {
				orig := node.SolJoin
				node.SolJoin = func(c, s record.Record, found bool, out dataflow.Emitter) {
					if failAt.Load() == 0 {
						panic("injected failure")
					}
					orig(c, s, found, out)
				}
			}
		}
		return spec, s0, w0
	}

	spec, s0, w0 := build()
	spec.CheckpointEvery = 2
	spec.MaxSupersteps = 1000
	var last *Checkpoint
	// The failure countdown ticks at every checkpoint (every 2 supersteps),
	// so the crash lands a few supersteps after the last good snapshot.
	spec.OnCheckpoint = func(cp *Checkpoint) error {
		last = cp
		failAt.Add(-2)
		return nil
	}
	_, err := RunIncremental(spec, s0, w0, Config{Parallelism: 2})
	if err == nil {
		t.Fatal("injected failure did not surface")
	}
	if last == nil {
		t.Fatal("no checkpoint before the failure")
	}

	// Recovery: disable the injector and resume.
	failAt.Store(1 << 30)
	spec2, _, _ := build()
	res, err := RestoreIncremental(spec2, last, Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Solution {
		if r.B != 0 {
			t.Fatalf("vertex %d did not converge after resume (got %d)", r.A, r.B)
		}
	}
	if res.Supersteps <= last.Iteration {
		t.Errorf("resumed supersteps (%d) should extend the checkpoint (%d)", res.Supersteps, last.Iteration)
	}
}

func TestResumeKindMismatch(t *testing.T) {
	spec, _ := doubler()
	if _, err := ResumeBulk(spec, &Checkpoint{Kind: "incremental"}, Config{}); err == nil {
		t.Error("bulk resume accepted incremental checkpoint")
	}
	ispec, _, _ := incrSpec(4)
	if _, err := RestoreIncremental(ispec, &Checkpoint{Kind: "bulk"}, Config{}); err == nil {
		t.Error("incremental resume accepted bulk checkpoint")
	}
}

func TestResumeBulkAlreadyComplete(t *testing.T) {
	spec, _ := doubler()
	spec.FixedIterations = 5
	cp := &Checkpoint{Kind: "bulk", Iteration: 5, Solution: []record.Record{{A: 99}}}
	res, err := ResumeBulk(spec, cp, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution) != 1 || res.Solution[0].A != 99 {
		t.Errorf("completed checkpoint should pass through: %v", res.Solution)
	}
}

// TestOldCheckpointVersionRejected: a checkpoint written in the version-2
// layout (fixed 25-byte records inside each frame) fails with a version
// error instead of decoding its frames as the compact layout.
func TestOldCheckpointVersionRejected(t *testing.T) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, checkpointMagic)
	buf = binary.LittleEndian.AppendUint32(buf, 2)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len("incremental")))
	buf = append(buf, "incremental"...)
	buf = binary.LittleEndian.AppendUint64(buf, 3)
	// One solution record and the two section end markers, in the old
	// payload layout: a u32 count, then A, B, X bits and Tag per record.
	for _, n := range []int{1, 0, 0} {
		p := binary.LittleEndian.AppendUint32(nil, uint32(n))
		for i := 0; i < n; i++ {
			p = binary.LittleEndian.AppendUint64(p, 7)
			p = binary.LittleEndian.AppendUint64(p, 7)
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
			p = append(p, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p))
		buf = append(buf, p...)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(buf)); err == nil ||
		!strings.Contains(err.Error(), "unsupported checkpoint version 2") {
		t.Fatalf("reading a version-2 checkpoint: %v, want a version error", err)
	}
}
