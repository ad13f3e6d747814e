package runtime

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/record"
)

// Spilling support for loop-invariant caches (§4.3: "The caches are
// in-memory and gradually spilled in the presence of memory pressure").
// When the executor's cache budget is exceeded, newly-filled stream caches
// are written to temporary files in serialized record form and replayed
// from disk on later iterations. Index caches (hash tables backing join
// build sides) stay pinned in memory: they are probed per record and
// spilling them would defeat their purpose.

// spillFile is one cache slot's on-disk representation.
type spillFile struct {
	path  string
	bytes int64
}

// spillBatches writes batches to a fresh temp file, one record frame
// (record.AppendFrame) each.
func spillBatches(batches []record.Batch) (*spillFile, error) {
	f, err := os.CreateTemp("", "spinflow-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("runtime: creating spill file: %w", err)
	}
	bw := bufio.NewWriter(f)
	var buf []byte
	var total int64
	for _, b := range batches {
		buf = record.AppendFrame(buf[:0], b)
		if _, err = bw.Write(buf); err != nil {
			break
		}
		total += int64(len(buf))
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return nil, fmt.Errorf("runtime: writing spill file: %w", err)
	}
	return &spillFile{path: f.Name(), bytes: total}, nil
}

// replay streams the spilled batches back through f, one frame at a time
// through a fixed-size buffered reader — the file is never materialized
// in memory, which is the point of spilling it.
func (s *spillFile) replay(f func(record.Batch)) error {
	file, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("runtime: opening spill file: %w", err)
	}
	defer file.Close()
	fr := record.NewFrameReader(bufio.NewReaderSize(file, 64<<10))
	for {
		b, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("runtime: reading spill file: %w", err)
		}
		f(b)
	}
}

// remove deletes the backing file.
func (s *spillFile) remove() {
	os.Remove(s.path)
}

// batchesBytes estimates the in-memory footprint of cached batches.
func batchesBytes(batches []record.Batch) int64 {
	var n int64
	for _, b := range batches {
		n += int64(len(b)) * record.EncodedSize
	}
	return n
}

// cacheAccountant tracks cache memory against a budget.
type cacheAccountant struct {
	budget int64 // 0 = unlimited
	used   atomic.Int64
}

// admit reports whether n more bytes fit in memory, reserving them if so.
func (a *cacheAccountant) admit(n int64) bool {
	if a.budget <= 0 {
		a.used.Add(n)
		return true
	}
	for {
		cur := a.used.Load()
		if cur+n > a.budget {
			return false
		}
		if a.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns bytes to the budget.
func (a *cacheAccountant) release(n int64) {
	a.used.Add(-n)
}
