package difftest

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/live"
)

// The mutation-stream differential: random insert/delete streams applied
// to a LiveView must, after every flushed batch, match an oracle
// recomputed from scratch over the current graph — union-find for
// Connected Components, Dijkstra for SSSP — across every solution
// backend and parallelism. This exercises the monotone insert fast path,
// the bounded recompute, the full-recompute fallback, and their
// interleavings inside one batch.

// streamRNG is the same deterministic xorshift the graph generators use,
// so streams are stable across Go versions.
type streamRNG struct{ s uint64 }

func (r *streamRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *streamRNG) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// liveOracleCC is min-label union-find over the live graph state.
func liveOracleCC(gs *live.GraphState) map[int64]int64 {
	parent := make(map[int64]int64)
	for _, v := range gs.Vertices() {
		parent[v] = v
	}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range gs.UndirectedRecords() {
		a, b := find(e.A), find(e.B)
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}
	out := make(map[int64]int64, len(parent))
	for v := range parent {
		out[v] = find(v)
	}
	return out
}

// mutationStream derives a deterministic batch sequence for one graph:
// each batch mixes edge inserts (drawn from the unused pool or fresh
// vertices), edge deletes, and occasional vertex deletes.
func mutationStream(g *graphgen.Graph, rng *streamRNG, batches, perBatch int, model *live.GraphState, pool []graphgen.Edge) [][]live.Mutation {
	poolAt := 0
	var out [][]live.Mutation
	for b := 0; b < batches; b++ {
		var batch []live.Mutation
		for i := 0; i < perBatch; i++ {
			switch rng.intn(10) {
			case 0, 1, 2, 3: // insert from the held-back pool
				if poolAt < len(pool) {
					e := pool[poolAt]
					poolAt++
					batch = append(batch, live.InsertWeightedEdge(e.Src, e.Dst, diffWeight(e.Src, e.Dst)))
					continue
				}
				fallthrough
			case 4, 5: // insert a random (possibly novel) edge
				s := int64(rng.intn(int(g.NumVertices) + 8))
				d := int64(rng.intn(int(g.NumVertices) + 8))
				if s == d {
					continue
				}
				batch = append(batch, live.InsertWeightedEdge(s, d, diffWeight(s, d)))
			case 6, 7, 8: // delete a random live edge (as of stream build time)
				if model.NumEdges() == 0 {
					continue
				}
				// Drawing from the model keeps the stream deterministic and
				// guarantees the delete usually hits a live edge.
				vs := model.Vertices()
				v := vs[rng.intn(len(vs))]
				inc := model.IncidentEdges(v)
				if len(inc) == 0 {
					continue
				}
				e := inc[rng.intn(len(inc))]
				batch = append(batch, live.DeleteEdge(e.Src, e.Dst))
			case 9: // delete a vertex outright
				vs := model.Vertices()
				if len(vs) == 0 {
					continue
				}
				batch = append(batch, live.DeleteVertex(vs[rng.intn(len(vs))]))
			}
		}
		// Maintain the model as the stream is generated so later batches
		// reference the evolving graph.
		for _, mu := range batch {
			model.Apply(mu)
		}
		out = append(out, batch)
	}
	return out
}

// TestLiveMutationStreamCC runs the differential for Connected Components
// across backends × parallelisms.
func TestLiveMutationStreamCC(t *testing.T) {
	for _, g := range diffGraphs()[:2] {
		// Half the edges form the initial graph; the rest feed the stream.
		half := len(g.Edges) / 2
		initial := make([]live.Mutation, half)
		for i, e := range g.Edges[:half] {
			initial[i] = live.InsertEdge(e.Src, e.Dst)
		}
		for _, par := range parallelisms {
			for _, bk := range backends {
				name := fmt.Sprintf("cc/%s/p%d/%s", g.Name, par, bk.name)
				t.Run(name, func(t *testing.T) {
					cfg := live.ViewConfig{Config: bk.cfg(iterative.Config{Parallelism: par})}
					v, err := live.NewView(name, live.CC(), initial, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer v.Close()

					model := live.NewGraphState()
					for _, mu := range initial {
						model.Apply(mu)
					}
					rng := &streamRNG{s: 0xD1FF ^ uint64(par)<<8 ^ uint64(len(g.Edges))}
					stream := mutationStream(g, rng, 6, 6, model, g.Edges[half:])

					// Replay against a fresh model (mutationStream consumed
					// its own copy while generating).
					replay := live.NewGraphState()
					for _, mu := range initial {
						replay.Apply(mu)
					}
					for bi, batch := range stream {
						for _, mu := range batch {
							replay.Apply(mu)
						}
						if err := v.Mutate(batch...); err != nil {
							t.Fatalf("batch %d: %v", bi, err)
						}
						if err := v.Flush(); err != nil {
							t.Fatalf("batch %d flush: %v", bi, err)
						}
						oracle := liveOracleCC(replay)
						got := algorithms.ComponentsToMap(snapshotOf(t, v))
						if len(got) != len(oracle) {
							t.Fatalf("batch %d: %d records, oracle %d", bi, len(got), len(oracle))
						}
						for vid, c := range oracle {
							if got[vid] != c {
								t.Fatalf("batch %d: vertex %d -> %d, oracle %d", bi, vid, got[vid], c)
							}
						}
					}
				})
			}
		}
	}
}

// TestLiveMutationStreamSSSP runs the differential for shortest paths:
// deletions exercise the full-recompute fallback, inserts the monotone
// path, and every batch must match Dijkstra exactly (integer weights).
func TestLiveMutationStreamSSSP(t *testing.T) {
	const source = 0
	for _, g := range diffGraphs()[:2] {
		half := len(g.Edges) / 2
		initial := make([]live.Mutation, half)
		for i, e := range g.Edges[:half] {
			initial[i] = live.InsertWeightedEdge(e.Src, e.Dst, diffWeight(e.Src, e.Dst))
		}
		for _, par := range parallelisms {
			for _, bk := range backends {
				name := fmt.Sprintf("sssp/%s/p%d/%s", g.Name, par, bk.name)
				t.Run(name, func(t *testing.T) {
					cfg := live.ViewConfig{Config: bk.cfg(iterative.Config{Parallelism: par})}
					v, err := live.NewView(name, live.SSSP(source), initial, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer v.Close()

					model := live.NewGraphState()
					for _, mu := range initial {
						model.Apply(mu)
					}
					rng := &streamRNG{s: 0x55E5 ^ uint64(par) ^ uint64(len(g.Edges))<<4}
					stream := mutationStream(g, rng, 4, 5, model, g.Edges[half:])

					replay := live.NewGraphState()
					for _, mu := range initial {
						replay.Apply(mu)
					}
					for bi, batch := range stream {
						// Never delete the source vertex: the view pins it.
						clean := batch[:0:0]
						for _, mu := range batch {
							if mu.Op == live.OpDeleteVertex && mu.Src == source {
								continue
							}
							clean = append(clean, mu)
						}
						for _, mu := range clean {
							replay.Apply(mu)
						}
						if err := v.Mutate(clean...); err != nil {
							t.Fatalf("batch %d: %v", bi, err)
						}
						if err := v.Flush(); err != nil {
							t.Fatalf("batch %d flush: %v", bi, err)
						}
						oracle := algorithms.SSSPReference(toWeighted(replay), source)
						got := make(map[int64]float64)
						for _, r := range snapshotOf(t, v) {
							got[r.A] = r.X
						}
						if len(got) != len(oracle) {
							t.Fatalf("batch %d: reached %d, oracle %d\n got %v\n want %v", bi, len(got), len(oracle), got, oracle)
						}
						for vid, d := range oracle {
							if got[vid] != d {
								t.Fatalf("batch %d: dist(%d) = %v, oracle %v", bi, vid, got[vid], d)
							}
						}
					}
				})
			}
		}
	}
}

func toWeighted(gs *live.GraphState) []algorithms.WeightedEdge {
	return gs.WeightedUndirected()
}
