package main

import (
	"math/rand"

	"repro/internal/graphgen"
)

// The benchmark's graphs are the program's dataset stand-ins
// (internal/graphgen/datasets.go) rebuilt from the same generators, with
// every generator seed derived from the workload seed: the same seed
// gives the same graph, another seed the same shape and size with
// different wiring. Seed 0 reproduces the wikipedia and FOAF stand-ins
// exactly; webbase keeps one seed-independent chain order (see
// chainedCommunities).

const (
	defaultSeed = 0
	heldOutSeed = 7
	seedStride  = 1000
	// chainOrderSeed fixes the webbase chain order (see chainedCommunities).
	chainOrderSeed = 4242
	webbaseScale   = 0.5
	wikiScale      = 2
	foafScale      = 1
)

func scaled(n int64, s float64) int64 {
	v := int64(float64(n) * s)
	if v < 8 {
		v = 8
	}
	return v
}

func genSeed(base uint64, seed int64) uint64 { return base + uint64(seed)*seedStride }

func log2ceil(n int64) int {
	s := 0
	for (int64(1) << s) < n {
		s++
	}
	return s
}

// webbaseGraph is the Webbase stand-in: dense 128-vertex communities
// chained into one giant component of very large diameter (hundreds of
// supersteps of Connected Components), plus a fringe of 8-vertex stars.
func webbaseGraph(scale float64, seed int64) *graphgen.Graph {
	s := webbaseScale * scale
	g := chainedCommunities(scaled(740, s), 128, 128*14, rand.New(rand.NewSource(int64(genSeed(4242, seed)))))
	return g.WithIsolatedFringe(scaled(100, s), 8, genSeed(4243, seed))
}

// chainedCommunities is graphgen.ChainedCommunities with the chain order
// taken out of the seed's hands. The order decides how Connected
// Components' labels propagate: how many supersteps the tail takes (from
// half to all of the chain, depending on where vertex 0's community
// sits) and how often each vertex improves before the minimum arrives.
// Seeded orders moved the fixpoint's work by ±12%, which would swamp
// any change the benchmark is meant to show. So the order is drawn once,
// from a fixed generator, with vertex 0's community at the head; the
// seed draws every chord.
func chainedCommunities(n, size int64, chords int, rng *rand.Rand) *graphgen.Graph {
	perm := rand.New(rand.NewSource(chainOrderSeed)).Perm(int(n))
	for i, b := range perm {
		if b == 0 {
			perm[0], perm[i] = perm[i], perm[0]
		}
	}
	edges := make([]graphgen.Edge, 0, n*int64(chords)+n*size+n)
	for c := int64(0); c < n; c++ {
		base := int64(perm[c]) * size
		for i := int64(0); i < size; i++ {
			edges = append(edges, graphgen.Edge{Src: base + i, Dst: base + (i+1)%size})
		}
		for i := 0; i < chords; i++ {
			a, b := base+rng.Int63n(size), base+rng.Int63n(size)
			if a != b {
				edges = append(edges, graphgen.Edge{Src: a, Dst: b})
			}
		}
		if c+1 < n {
			edges = append(edges, graphgen.Edge{Src: base + size - 1, Dst: int64(perm[c+1]) * size})
		}
	}
	return &graphgen.Graph{Name: "webbase", NumVertices: n * size, Edges: edges}
}

// wikipediaGraph is the Wikipedia stand-in: an R-MAT web graph with a
// short diameter tail and a fringe of small components.
func wikipediaGraph(scale float64, seed int64) *graphgen.Graph {
	s := wikiScale * scale
	v := scaled(14000, s)
	e := scaled(14000*13, s)
	g := graphgen.RMAT("wikipedia", log2ceil(v), e, 0.57, 0.19, 0.19, genSeed(42, seed))
	return g.WithDiameterTail(12, 1).WithIsolatedFringe(scaled(200, s), 8, genSeed(43, seed))
}

// foafGraph is the FOAF stand-in: one preferential-attachment component
// plus a chained tail bridged to vertex 0, so the whole graph is one
// component labelled 0.
func foafGraph(scale float64, seed int64) *graphgen.Graph {
	s := foafScale * scale
	g := graphgen.PreferentialAttachment("foaf", scaled(11000, s), 3, genSeed(77, seed))
	tail := graphgen.ChainedCommunities("tail", scaled(24, s), 16, 8, genSeed(78, seed))
	edges := make([]graphgen.Edge, 0, len(g.Edges)+len(tail.Edges)+1)
	edges = append(edges, g.Edges...)
	for _, e := range tail.Edges {
		edges = append(edges, graphgen.Edge{Src: e.Src + g.NumVertices, Dst: e.Dst + g.NumVertices})
	}
	edges = append(edges, graphgen.Edge{Src: 0, Dst: g.NumVertices})
	return &graphgen.Graph{Name: "foaf", NumVertices: g.NumVertices + tail.NumVertices, Edges: edges}
}

func edgePairs(g *graphgen.Graph) [][2]int64 {
	out := make([][2]int64, len(g.Edges))
	for i, e := range g.Edges {
		out[i] = [2]int64{e.Src, e.Dst}
	}
	return out
}
