package harness

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/record"
)

// DurableResult reports the durability scenario: the WAL's cost on the
// maintenance path, and a hard-kill/recover round trip.
type DurableResult struct {
	Graph string
	// Batches and BatchMutations describe the measured stream.
	Batches, BatchMutations int
	// WALOff and WALOn are the total times to absorb the stream without
	// and with the write-ahead log (append + fsync per batch).
	WALOff, WALOn time.Duration
	// Overhead is WALOn/WALOff.
	Overhead float64
	// WALBytes is the log volume the durable stream produced.
	WALBytes int64
	// ReplayedFrames counts WAL frames recovery replayed after the kill.
	ReplayedFrames int64
	// RecoveredIdentical reports whether the recovered solution set was
	// byte-identical to an oracle view that saw every acknowledged batch.
	RecoveredIdentical bool
	// SnapshotPeakRatio is peak HeapAlloc during a streaming snapshot
	// over steady-state HeapAlloc before it — the "snapshot does not
	// double resident memory" claim, measured.
	SnapshotPeakRatio float64
}

// Durable runs the durability scenario on the FOAF graph: a Connected
// Components view absorbs the same mutation stream with and without the
// write-ahead log (the WAL-on view fsyncs every batch before Mutate
// acknowledges it), then a durable view is hard-killed mid-stream —
// acknowledged batches unflushed — and recovered, with the result
// checked byte-for-byte against an oracle replay of everything that was
// acknowledged. Finally a streaming snapshot is forced while sampling
// the heap, demonstrating that snapshots stream partition-by-partition
// instead of materializing the solution.
func Durable(o Options) (*DurableResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.FOAF(o.Scale)
	res := &DurableResult{Graph: g.Name}

	initial := make([]live.Mutation, len(g.Edges))
	for i, e := range g.Edges {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}
	dataDir, err := os.MkdirTemp("", "spinflow-durable-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	o.printf("Durability — CC view on %s (V=%d E=%d), WAL fsync per batch\n",
		g.Name, g.NumVertices, g.NumEdges())

	// The measured stream: 40 batches of 1% of the edges each.
	res.Batches = 40
	res.BatchMutations = int(g.NumEdges() / 100)
	if res.BatchMutations < 1 {
		res.BatchMutations = 1
	}
	batches := make([][]live.Mutation, res.Batches)
	for i := range batches {
		batches[i] = mutationBatch(g, res.BatchMutations, 0xD0B1^uint64(i)<<8)
	}

	baseCfg := live.ViewConfig{Config: iterative.Config{Parallelism: o.Parallelism}}
	absorb := func(v *live.LiveView) (time.Duration, error) {
		start := time.Now()
		for _, b := range batches {
			if err := v.Mutate(b...); err != nil {
				return 0, err
			}
			if err := v.Flush(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	// WAL off.
	off, err := live.NewView("foaf-off", live.CC(), initial, baseCfg)
	if err != nil {
		return nil, err
	}
	res.WALOff, err = absorb(off)
	off.Close()
	if err != nil {
		return nil, err
	}

	// WAL on.
	var m metrics.Counters
	dcfg := baseCfg
	dcfg.Config.Metrics = &m
	dcfg.Durable = true
	dcfg.DataDir = dataDir
	on, err := live.OpenView("foaf", live.CC(), initial, dcfg)
	if err != nil {
		return nil, err
	}
	res.WALOn, err = absorb(on)
	if err != nil {
		on.Close()
		return nil, err
	}
	res.Overhead = float64(res.WALOn) / float64(res.WALOff)
	res.WALBytes = m.WALBytes.Load()

	// Hard kill mid-stream: three more batches acknowledged, the last
	// never flushed, then the process "dies".
	extra := make([][]live.Mutation, 3)
	for i := range extra {
		extra[i] = mutationBatch(g, res.BatchMutations, 0x4B11^uint64(i))
	}
	for i, b := range extra {
		if err := on.Mutate(b...); err != nil {
			on.Close()
			return nil, err
		}
		if i < len(extra)-1 {
			if err := on.Flush(); err != nil {
				on.Close()
				return nil, err
			}
		}
	}
	on.Kill()

	start := time.Now()
	recovered, err := live.OpenView("foaf", live.CC(), nil, dcfg)
	if err != nil {
		return nil, err
	}
	defer recovered.Close()
	recoverTime := time.Since(start)
	res.ReplayedFrames = recovered.Stats().RecoveredFrames

	// Oracle: an in-memory view that saw every acknowledged batch.
	oracle, err := live.NewView("foaf-oracle", live.CC(), initial, baseCfg)
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	for _, bs := range [][][]live.Mutation{batches, extra} {
		for _, b := range bs {
			if err := oracle.Mutate(b...); err != nil {
				return nil, err
			}
		}
	}
	if err := oracle.Flush(); err != nil {
		return nil, err
	}
	recSnap, err := recovered.Snapshot()
	if err != nil {
		return nil, err
	}
	oracleSnap, err := oracle.Snapshot()
	if err != nil {
		return nil, err
	}
	res.RecoveredIdentical = identicalSets(recSnap, oracleSnap)

	// Streaming-snapshot memory: force a checkpoint while sampling the
	// heap. The ratio stays near 1 because the writer streams partition
	// by partition; a WriteTo-style snapshot would spike by the encoded
	// solution size.
	ratio, err := snapshotPeakRatio(recovered)
	if err != nil {
		return nil, err
	}
	res.SnapshotPeakRatio = ratio

	o.printf("  stream: %d batches x %d mutations, flushed per batch\n", res.Batches, res.BatchMutations)
	o.printf("  %-28s %12.1f ms\n", "WAL off", ms(res.WALOff))
	o.printf("  %-28s %12.1f ms  (%.2fx, %d KiB logged)\n", "WAL on (fsync per batch)",
		ms(res.WALOn), res.Overhead, res.WALBytes/1024)
	o.printf("  kill -9 with 3 acked batches in flight -> recovered in %.1f ms (%d frames replayed)\n",
		ms(recoverTime), res.ReplayedFrames)
	o.printf("  recovered state byte-identical to acknowledged history: %v\n", res.RecoveredIdentical)
	o.printf("  snapshot peak heap / steady heap: %.2fx (streaming, partition-by-partition)\n\n",
		res.SnapshotPeakRatio)
	return res, nil
}

// identicalSets compares two solution snapshots byte-for-byte.
func identicalSets(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return record.Less(a[i], a[j]) })
	sort.Slice(b, func(i, j int) bool { return record.Less(b[i], b[j]) })
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// snapshotPeakRatio forces a streaming snapshot while sampling HeapAlloc
// and reports peak-during over steady-before.
func snapshotPeakRatio(v *live.LiveView) (float64, error) {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	steady := st.HeapAlloc

	stop := make(chan struct{})
	peakc := make(chan uint64, 1)
	go func() {
		peak := steady
		for {
			select {
			case <-stop:
				peakc <- peak
				return
			default:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if s.HeapAlloc > peak {
					peak = s.HeapAlloc
				}
			}
		}
	}()
	err := v.Checkpoint()
	close(stop)
	peak := <-peakc
	if err != nil {
		return 0, fmt.Errorf("harness: forced checkpoint: %w", err)
	}
	if steady == 0 {
		return 1, nil
	}
	return float64(peak) / float64(steady), nil
}
