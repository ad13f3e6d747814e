package live

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/algorithms"
	"repro/internal/record"
)

// WEdge is one live directed edge with its weight.
type WEdge struct {
	Src, Dst int64
	Weight   float64
}

// GraphState is the mutable graph behind a live view: a set of alive
// vertices plus a directed weighted edge set with O(1) insert/delete.
// Vertex ids need not be dense — deletions leave holes. All methods are
// unsynchronized; LiveView serializes access.
type GraphState struct {
	verts map[int64]struct{}
	edges []WEdge
	index map[[2]int64]int // (src,dst) -> position in edges

	// Derived-table caches. The maintainers re-derive the symmetrized
	// edge table and the sorted vertex list on every plan refresh; at
	// serving scale those rebuilds dominated the whole refresh, and the
	// tables only ever *grow* between refreshes on the insert fast path.
	// Each cache covers a prefix of the append-only state (undirN/wundirN
	// edges, vertsCache+vertsAdd vertices) and is advanced by sorting
	// just the fresh tail and merging; removals and in-place re-weights
	// invalidate (-1 / vertsOK=false) back to a full rebuild. The
	// accessors return the cache itself — callers (plan sources, graph
	// dumps) only read — and every advance allocates a fresh slice, so a
	// table referenced by a live plan is never mutated behind it.
	undir   []record.Record
	undirN  int
	wundir  []algorithms.WeightedEdge
	wundirN int

	vertsCache []int64
	vertsAdd   []int64
	vertsOK    bool
}

// NewGraphState creates an empty graph.
func NewGraphState() *GraphState {
	return &GraphState{
		verts:   make(map[int64]struct{}),
		index:   make(map[[2]int64]int),
		vertsOK: true,
	}
}

// Apply routes one mutation into the state (no maintenance bookkeeping)
// — the raw graph operation, used for initial loads and test models.
func (g *GraphState) Apply(m Mutation) {
	switch m.Op {
	case OpInsertEdge:
		g.AddVertex(m.Src)
		g.AddVertex(m.Dst)
		g.AddEdge(m.Src, m.Dst, m.Weight)
	case OpDeleteEdge:
		g.RemoveEdge(m.Src, m.Dst)
	case OpAddVertex:
		g.AddVertex(m.Src)
	case OpDeleteVertex:
		g.RemoveVertex(m.Src)
	}
}

// AddVertex adds v, reporting whether it was new.
func (g *GraphState) AddVertex(v int64) bool {
	if _, ok := g.verts[v]; ok {
		return false
	}
	g.verts[v] = struct{}{}
	if g.vertsOK {
		g.vertsAdd = append(g.vertsAdd, v)
	}
	return true
}

// HasVertex reports membership.
func (g *GraphState) HasVertex(v int64) bool {
	_, ok := g.verts[v]
	return ok
}

// AddEdge inserts the directed edge (src, dst, w), reporting whether the
// edge set changed (a fresh edge, or an existing one whose weight moved).
// Self-loops are ignored — the fixpoint algorithms discard them anyway.
func (g *GraphState) AddEdge(src, dst int64, w float64) bool {
	if src == dst {
		return false
	}
	g.AddVertex(src)
	g.AddVertex(dst)
	k := [2]int64{src, dst}
	if i, ok := g.index[k]; ok {
		if g.edges[i].Weight == w {
			return false
		}
		g.edges[i].Weight = w
		g.wundirN = -1 // the pair's min weight may have moved either way
		return true
	}
	g.index[k] = len(g.edges)
	g.edges = append(g.edges, WEdge{Src: src, Dst: dst, Weight: w})
	return true
}

// EdgeWeight returns the weight of the directed edge (src, dst) and
// whether it exists.
func (g *GraphState) EdgeWeight(src, dst int64) (float64, bool) {
	if i, ok := g.index[[2]int64{src, dst}]; ok {
		return g.edges[i].Weight, true
	}
	return 0, false
}

// RemoveEdge deletes the directed edge (src, dst) by swap-remove,
// returning its weight and whether it existed.
func (g *GraphState) RemoveEdge(src, dst int64) (float64, bool) {
	k := [2]int64{src, dst}
	i, ok := g.index[k]
	if !ok {
		return 0, false
	}
	w := g.edges[i].Weight
	last := len(g.edges) - 1
	if i != last {
		moved := g.edges[last]
		g.edges[i] = moved
		g.index[[2]int64{moved.Src, moved.Dst}] = i
	}
	g.edges = g.edges[:last]
	delete(g.index, k)
	g.undirN, g.wundirN = -1, -1
	g.undir, g.wundir = nil, nil
	return w, true
}

// IncidentEdges returns every live edge touching v (either endpoint).
func (g *GraphState) IncidentEdges(v int64) []WEdge {
	var out []WEdge
	for _, e := range g.edges {
		if e.Src == v || e.Dst == v {
			out = append(out, e)
		}
	}
	return out
}

// RemoveVertex deletes v and all incident edges, returning the removed
// edges.
func (g *GraphState) RemoveVertex(v int64) []WEdge {
	if !g.HasVertex(v) {
		return nil
	}
	removed := g.IncidentEdges(v)
	for _, e := range removed {
		g.RemoveEdge(e.Src, e.Dst)
	}
	delete(g.verts, v)
	g.vertsOK = false
	g.vertsCache, g.vertsAdd = nil, nil
	return removed
}

// NumVertices returns the alive vertex count.
func (g *GraphState) NumVertices() int { return len(g.verts) }

// NumEdges returns the live directed edge count.
func (g *GraphState) NumEdges() int { return len(g.edges) }

// Vertices returns the alive vertices in ascending order.
func (g *GraphState) Vertices() []int64 {
	if !g.vertsOK {
		g.vertsCache = make([]int64, 0, len(g.verts))
		for v := range g.verts {
			g.vertsCache = append(g.vertsCache, v)
		}
		slices.Sort(g.vertsCache)
		g.vertsAdd = nil
		g.vertsOK = true
	} else if len(g.vertsAdd) > 0 {
		slices.Sort(g.vertsAdd)
		g.vertsCache = mergeSorted(g.vertsCache, g.vertsAdd, cmp.Compare, nil)
		g.vertsAdd = nil
	}
	return g.vertsCache
}

// symmetrize expands directed edges into both orientations, sorted by
// (A, B) and deduplicated.
func symmetrize(edges []WEdge) []record.Record {
	out := make([]record.Record, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, record.Record{A: e.Src, B: e.Dst}, record.Record{A: e.Dst, B: e.Src})
	}
	slices.SortFunc(out, recordAB)
	return slices.CompactFunc(out, func(x, y record.Record) bool {
		return recordAB(x, y) == 0
	})
}

func recordAB(x, y record.Record) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// symmetrizeWeighted expands directed edges into both orientations,
// sorted by (Src, Dst) with the smallest weight kept per pair.
func symmetrizeWeighted(edges []WEdge) []algorithms.WeightedEdge {
	out := make([]algorithms.WeightedEdge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out,
			algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: e.Weight},
			algorithms.WeightedEdge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	slices.SortFunc(out, func(x, y algorithms.WeightedEdge) int {
		if c := wedgePair(x, y); c != 0 {
			return c
		}
		return cmp.Compare(x.Weight, y.Weight)
	})
	return slices.CompactFunc(out, func(x, y algorithms.WeightedEdge) bool {
		return wedgePair(x, y) == 0
	})
}

func wedgePair(x, y algorithms.WeightedEdge) int {
	if c := cmp.Compare(x.Src, y.Src); c != 0 {
		return c
	}
	return cmp.Compare(x.Dst, y.Dst)
}

// mergeSorted merges two sorted deduplicated slices into a fresh sorted
// deduplicated slice. On equal keys resolve picks the survivor (nil
// keeps a); a key from the tail can collide with the cache when the
// reverse orientation of a cached pair arrives later.
func mergeSorted[T any](a, b []T, compare func(T, T) int, resolve func(T, T) T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := compare(a[i], b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			keep := a[i]
			if resolve != nil {
				keep = resolve(a[i], b[j])
			}
			out = append(out, keep)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// UndirectedRecords symmetrizes the edge set into deduplicated edge
// records (A=src, B=dst, both orientations), the neighborhood table N of
// the Connected Components dataflow. Order is deterministic: edges sort
// by (A, B). The maintainer re-derives this table on every plan refresh,
// so between removals only the freshly appended edges are sorted and
// merged into the cached table.
func (g *GraphState) UndirectedRecords() []record.Record {
	if g.undirN < 0 || g.undirN > len(g.edges) {
		g.undir = symmetrize(g.edges)
		g.undirN = len(g.edges)
	} else if g.undirN < len(g.edges) {
		g.undir = mergeSorted(g.undir, symmetrize(g.edges[g.undirN:]), recordAB, nil)
		g.undirN = len(g.edges)
	}
	return g.undir
}

// WeightedUndirected symmetrizes the edge set into weighted edges (both
// orientations). When both orientations carry different weights, the
// smaller weight wins deterministically. Cached and incrementally merged
// the same way as UndirectedRecords; in-place re-weights invalidate.
func (g *GraphState) WeightedUndirected() []algorithms.WeightedEdge {
	minW := func(x, y algorithms.WeightedEdge) algorithms.WeightedEdge {
		if y.Weight < x.Weight {
			return y
		}
		return x
	}
	if g.wundirN < 0 || g.wundirN > len(g.edges) {
		g.wundir = symmetrizeWeighted(g.edges)
		g.wundirN = len(g.edges)
	} else if g.wundirN < len(g.edges) {
		g.wundir = mergeSorted(g.wundir, symmetrizeWeighted(g.edges[g.wundirN:]), wedgePair, minW)
		g.wundirN = len(g.edges)
	}
	return g.wundir
}

// writeGraph emits the graph as two sections — vertices, then edges in
// edge-slice order — the layout snapshots and worker graph dumps share.
// Replaying AddVertex/AddEdge in this order (readGraph) rebuilds a graph
// whose edge slice, and so every spec derived from it, matches this one.
func (g *GraphState) writeGraph(add func(record.Record) error, endSection func() error) error {
	for _, v := range g.Vertices() {
		if err := add(record.Record{A: v}); err != nil {
			return err
		}
	}
	if err := endSection(); err != nil {
		return err
	}
	for _, e := range g.edges {
		if err := add(record.Record{A: e.Src, B: e.Dst, X: e.Weight}); err != nil {
			return err
		}
	}
	return endSection()
}

// readGraph rebuilds a graph from writeGraph's two sections, each read
// through section.
func readGraph(section func(func(record.Batch) error) error) (*GraphState, error) {
	gs := NewGraphState()
	if err := section(func(b record.Batch) error {
		for _, r := range b {
			gs.AddVertex(r.A)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("live: graph vertices: %w", err)
	}
	if err := section(func(b record.Batch) error {
		for _, r := range b {
			gs.AddEdge(r.A, r.B, r.X)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("live: graph edges: %w", err)
	}
	return gs, nil
}
