package harness

import (
	"time"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
	"repro/internal/metrics"
)

// LiveRow is one mutation-rate measurement of the serving scenario.
type LiveRow struct {
	// Rate is the mutation batch size as a fraction of the edge count.
	Rate float64
	// Mutations is the batch size in edges.
	Mutations int
	// Warm is the time the resident view took to absorb the batch.
	Warm time.Duration
	// Cold is the time a from-scratch RunIncremental took on the post-
	// mutation graph.
	Cold time.Duration
	// Speedup is Cold/Warm.
	Speedup float64
	// Supersteps is the number of maintenance supersteps the warm path ran.
	Supersteps int64
}

// LiveResult reports the live-maintenance scenario.
type LiveResult struct {
	Graph string
	// ColdBuild is the initial fixpoint time (view creation).
	ColdBuild time.Duration
	Rows      []LiveRow
	// Deletions reports the bounded-recompute demo: edges deleted, and
	// the partial/full recompute split they caused.
	Deletions         int
	PartialRecomputes int64
	FullRecomputes    int64
	// Identical reports whether every maintained state matched a cold
	// recompute of the same graph.
	Identical bool
}

// liveRNG is the deterministic xorshift used to derive mutation batches.
type liveRNG struct{ s uint64 }

func (r *liveRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *liveRNG) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// mutationBatch derives n deterministic edge inserts: half connect
// existing vertices (often no-ops inside the giant component), half
// attach brand-new vertices (guaranteed label propagation) — the arrival
// pattern of a growing social graph.
func mutationBatch(g *graphgen.Graph, n int, seed uint64) []live.Mutation {
	rng := &liveRNG{s: seed}
	out := make([]live.Mutation, 0, n)
	nextVertex := g.NumVertices
	for len(out) < n {
		s := rng.intn(g.NumVertices)
		var d int64
		if len(out)%2 == 0 {
			d = nextVertex
			nextVertex++
		} else {
			d = rng.intn(g.NumVertices)
			if s == d {
				continue
			}
		}
		out = append(out, live.InsertEdge(s, d))
	}
	return out
}

// Live runs the serving scenario: a Connected Components LiveView over
// the FOAF graph absorbs edge-insert batches at several mutation rates,
// and each warm absorption is compared against a cold RunIncremental over
// the same post-mutation graph — the maintenance claim of the paper's §5
// measured directly. A deletion batch then demonstrates the bounded
// recompute path.
func Live(o Options) (*LiveResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.normalized()
	g := graphgen.FOAF(o.Scale)
	res := &LiveResult{Graph: g.Name, Identical: true}

	initial := make([]live.Mutation, len(g.Edges))
	for i, e := range g.Edges {
		initial[i] = live.InsertEdge(e.Src, e.Dst)
	}

	o.printf("Live maintenance — CC view on %s (V=%d E=%d), warm deltas vs cold reruns\n",
		g.Name, g.NumVertices, g.NumEdges())

	for _, rate := range []float64{0.01, 0.05, 0.20} {
		var m metrics.Counters
		cfg := live.ViewConfig{Config: iterative.Config{Parallelism: o.Parallelism, Metrics: &m}}
		start := time.Now()
		v, err := live.NewView("foaf", live.CC(), initial, cfg)
		if err != nil {
			return nil, err
		}
		res.ColdBuild = time.Since(start)

		n := int(float64(g.NumEdges()) * rate)
		if n < 1 {
			n = 1
		}
		batch := mutationBatch(g, n, 0x11FE^uint64(n))

		before := m.Snapshot()
		start = time.Now()
		if err := v.Mutate(batch...); err != nil {
			v.Close()
			return nil, err
		}
		if err := v.Flush(); err != nil {
			v.Close()
			return nil, err
		}
		warm := time.Since(start)
		work := m.Snapshot().Sub(before)

		// Cold baseline: the same post-mutation graph from scratch.
		numV := g.NumVertices
		for _, e := range batchEdges(batch) {
			if e.Dst >= numV {
				numV = e.Dst + 1
			}
		}
		mutated := &graphgen.Graph{Name: g.Name, NumVertices: numV,
			Edges: append(append([]graphgen.Edge(nil), g.Edges...), batchEdges(batch)...)}
		start = time.Now()
		coldAssign, _, err := algorithms.CCIncremental(mutated, algorithms.CCCoGroup,
			iterative.Config{Parallelism: o.Parallelism})
		if err != nil {
			v.Close()
			return nil, err
		}
		cold := time.Since(start)

		snap, err := v.Snapshot()
		if err != nil {
			v.Close()
			return nil, err
		}
		warmAssign := algorithms.ComponentsToMap(snap)
		if len(warmAssign) != len(coldAssign) {
			res.Identical = false
		}
		for vid, c := range coldAssign {
			if warmAssign[vid] != c {
				res.Identical = false
				break
			}
		}
		v.Close()

		row := LiveRow{
			Rate: rate, Mutations: n, Warm: warm, Cold: cold,
			Speedup:    float64(cold) / float64(warm),
			Supersteps: work.MaintenanceSupersteps,
		}
		res.Rows = append(res.Rows, row)
	}

	o.printf("  cold build: %.1f ms\n", ms(res.ColdBuild))
	o.printf("  %-7s %10s %12s %12s %9s %11s\n", "rate", "mutations", "warm(ms)", "cold(ms)", "speedup", "supersteps")
	for _, r := range res.Rows {
		o.printf("  %5.0f%%  %10d %12.2f %12.2f %8.1fx %11d\n",
			r.Rate*100, r.Mutations, ms(r.Warm), ms(r.Cold), r.Speedup, r.Supersteps)
	}
	o.printf("  warm states identical to cold recomputes: %v\n", res.Identical)

	// Deletion demo: remove a slice of edges; the maintainer repairs with
	// bounded recomputes where the affected component allows it.
	var m metrics.Counters
	cfg := live.ViewConfig{Config: iterative.Config{Parallelism: o.Parallelism, Metrics: &m}}
	v, err := live.NewView("foaf-del", live.CC(), initial, cfg)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	var nDel int
	// FOAF is a single connected component, so deleting one of its edges
	// makes the affected region the whole graph — the full-recompute last
	// resort, measured below as one batch. The bounded path is shown on
	// detached fringe clusters streamed in first: deletions there touch
	// only the small affected component.
	var fringe []live.Mutation
	base := g.NumVertices + 1000
	for c := int64(0); c < 20; c++ {
		for i := int64(0); i < 4; i++ {
			fringe = append(fringe, live.InsertEdge(base+5*c, base+5*c+i+1))
		}
	}
	if err := v.Mutate(fringe...); err != nil {
		return nil, err
	}
	if err := v.Flush(); err != nil {
		return nil, err
	}
	var dels []live.Mutation
	for c := int64(0); c < 20; c++ { // one spoke per fringe star
		dels = append(dels, live.DeleteEdge(base+5*c, base+5*c+1))
	}
	nDel = len(dels)
	if err := v.Mutate(dels...); err != nil {
		return nil, err
	}
	if err := v.Flush(); err != nil {
		return nil, err
	}
	// One giant-component deletion in its own flush: the affected region
	// is the whole graph, so the view correctly falls back to a full
	// recompute — both repair paths end up visible in the counters.
	nDel++
	if err := v.Mutate(live.DeleteEdge(g.Edges[0].Src, g.Edges[0].Dst)); err != nil {
		return nil, err
	}
	if err := v.Flush(); err != nil {
		return nil, err
	}
	res.Deletions = nDel
	res.PartialRecomputes = m.PartialRecomputes.Load()
	res.FullRecomputes = m.FullRecomputes.Load()
	o.printf("  deletions: %d edges -> %d partial recomputes, %d full recomputes\n\n",
		res.Deletions, res.PartialRecomputes, res.FullRecomputes)
	return res, nil
}

// batchEdges extracts the edges of an insert-only mutation batch.
func batchEdges(batch []live.Mutation) []graphgen.Edge {
	out := make([]graphgen.Edge, 0, len(batch))
	for _, m := range batch {
		if m.Op == live.OpInsertEdge {
			out = append(out, graphgen.Edge{Src: m.Src, Dst: m.Dst})
		}
	}
	return out
}
