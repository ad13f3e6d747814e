package live

import (
	"repro/internal/algorithms"
	"repro/internal/iterative"
	"repro/internal/record"
)

// SolutionReader is read access to the resident solution set, as handed
// to maintainers. It covers only the partitions the calling host owns
// (all of them in-process): lookups of other keys miss, and Each visits
// only hosted records. Region resets are force-stored before insert
// candidates are built, so lookups never observe stale pre-deletion state.
type SolutionReader interface {
	// Lookup probes the solution by key.
	Lookup(k int64) (record.Record, bool)
	// Each visits every hosted solution record (order unspecified).
	Each(f func(record.Record))
}

// Maintainer adapts one incremental fixpoint algorithm to streaming
// maintenance: it builds the Δ spec for the current graph, turns edge
// insertions into monotone workset candidates, and scopes the repair work
// a deletion needs.
type Maintainer interface {
	// Name identifies the algorithm ("cc", "sssp") in stats and the HTTP
	// API.
	Name() string
	// Spec assembles the incremental iteration (Δ, S0, W0) for the given
	// graph state. It is re-invoked after structural mutations; the
	// Source nodes it produces must appear in a deterministic order.
	Spec(gs *GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record)
	// InsertDelta translates the inserted undirected edge (src, dst, w)
	// into workset candidates over the resident solution — the monotone
	// fast path. It must be safe for lookups to miss (new or reset
	// vertices, or keys another host owns).
	InsertDelta(src, dst int64, w float64, sol SolutionReader) []record.Record
	// VertexRecord is the solution entry a fresh isolated vertex starts
	// with; ok=false if the algorithm keeps no entry for it.
	VertexRecord(v int64) (record.Record, bool)
	// DeleteImpact scopes the repair of removing edge (src, dst) by the
	// region labels whose holders the removal may invalidate (bounded
	// recompute), or ok=false to demand a full recompute. It runs before
	// any solution state changes, so lookups see consistent pre-batch
	// values; a lookup that misses contributes no label (the key's owner
	// reports it). gs already reflects the deletion.
	DeleteImpact(gs *GraphState, src, dst int64, sol SolutionReader) (labels []int64, ok bool)
	// RecomputeSeed re-initializes the repair region of labels among the
	// hosted records of sol: resets are force-stored over the resident
	// solution, and seed — proposals from the reset vertices across their
	// edges in gs, the post-batch graph — drives the bounded restart.
	RecomputeSeed(gs *GraphState, labels []int64, sol SolutionReader) (resets, seed []record.Record)
}

// --- Connected Components -----------------------------------------------

// ccMaintainer maintains the incremental Connected Components fixpoint of
// Figure 5. Insertions are monotone (component ids only shrink under the
// min-label CPO); a deleted edge can split only the component containing
// it, so the bounded recompute re-labels exactly that component's members
// from identity and re-seeds candidates over its surviving edges.
type ccMaintainer struct{}

// CC returns the Connected Components maintainer.
func CC() Maintainer { return ccMaintainer{} }

func (ccMaintainer) Name() string { return "cc" }

func (ccMaintainer) Spec(gs *GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	return algorithms.CCMaintenanceSpec(gs.Vertices(), gs.UndirectedRecords(), algorithms.CCCoGroup)
}

// cid reads a vertex's current component label, defaulting to its own id
// (fresh and reset vertices label themselves).
func cid(x int64, sol SolutionReader) int64 {
	if r, ok := sol.Lookup(x); ok {
		return r.B
	}
	return x
}

func (ccMaintainer) InsertDelta(src, dst int64, _ float64, sol SolutionReader) []record.Record {
	return []record.Record{
		{A: dst, B: cid(src, sol)},
		{A: src, B: cid(dst, sol)},
	}
}

func (ccMaintainer) VertexRecord(v int64) (record.Record, bool) {
	return record.Record{A: v, B: v}, true
}

func (ccMaintainer) DeleteImpact(_ *GraphState, src, _ int64, sol SolutionReader) ([]int64, bool) {
	// Both endpoints carried the same label (they were connected); every
	// vertex with that label is the candidate split region. A vertex
	// unknown to the solution has nothing to repair.
	c, ok := sol.Lookup(src)
	if !ok {
		return nil, true
	}
	return []int64{c.B}, true
}

func (ccMaintainer) RecomputeSeed(gs *GraphState, labels []int64, sol SolutionReader) (resets, seed []record.Record) {
	split := make(map[int64]struct{}, len(labels))
	for _, l := range labels {
		split[l] = struct{}{}
	}
	region := make(map[int64]struct{})
	sol.Each(func(r record.Record) {
		if _, ok := split[r.B]; ok {
			region[r.A] = struct{}{}
			resets = append(resets, record.Record{A: r.A, B: r.A})
		}
	})
	// Every reset vertex proposes its own id across its edges. A surviving
	// pre-batch edge has both endpoints in the region (they shared a
	// label), so the other endpoint's owner emits the reverse proposal;
	// an edge this batch inserted only adds a sound candidate.
	for _, e := range gs.edges {
		if _, ok := region[e.Src]; ok {
			seed = append(seed, record.Record{A: e.Dst, B: e.Src})
		}
		if _, ok := region[e.Dst]; ok {
			seed = append(seed, record.Record{A: e.Src, B: e.Dst})
		}
	}
	return resets, seed
}

// --- Single-source shortest paths ---------------------------------------

// ssspMaintainer maintains the incremental SSSP fixpoint. Insertions are
// monotone (distances only shrink); a deleted edge can lengthen any path
// that used it, and without shortest-path-tree bookkeeping the affected
// set is unknowable from the solution alone — deletions therefore take
// the full-recompute last resort.
type ssspMaintainer struct {
	source int64
}

// SSSP returns the shortest-paths maintainer rooted at source.
func SSSP(source int64) Maintainer { return ssspMaintainer{source: source} }

func (ssspMaintainer) Name() string { return "sssp" }

// Source returns the root vertex; the scheduler persists it in a durable
// view's metadata so recovery can rebuild the maintainer.
func (s ssspMaintainer) Source() int64 { return s.source }

func (s ssspMaintainer) Spec(gs *GraphState) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	return algorithms.SSSPSpec(gs.WeightedUndirected(), s.source)
}

func (s ssspMaintainer) InsertDelta(src, dst int64, w float64, sol SolutionReader) []record.Record {
	var out []record.Record
	if d, ok := sol.Lookup(src); ok {
		out = append(out, record.Record{A: dst, X: d.X + w})
	}
	if d, ok := sol.Lookup(dst); ok {
		out = append(out, record.Record{A: src, X: d.X + w})
	}
	return out
}

func (ssspMaintainer) VertexRecord(int64) (record.Record, bool) {
	return record.Record{}, false // unreached vertices have no entry
}

func (ssspMaintainer) DeleteImpact(*GraphState, int64, int64, SolutionReader) ([]int64, bool) {
	return nil, false
}

func (ssspMaintainer) RecomputeSeed(*GraphState, []int64, SolutionReader) ([]record.Record, []record.Record) {
	return nil, nil
}
