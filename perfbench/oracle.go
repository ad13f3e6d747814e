package main

import (
	"fmt"
	"math"
)

// The correctness oracles are written here, independently of the
// program's own reference implementations, so a bug shared by the
// program and its test helpers cannot pass the benchmark's gates.

// unionFind labels vertices with the smallest vertex id of their
// connected component — the fixpoint Connected Components converges to.
type unionFind struct {
	parent map[int64]int64
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[int64]int64)} }

func (u *unionFind) add(v int64) {
	if _, ok := u.parent[v]; !ok {
		u.parent[v] = v
	}
}

func (u *unionFind) find(v int64) int64 {
	root := v
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[v] != root { // path compression
		next := u.parent[v]
		u.parent[v] = root
		v = next
	}
	return root
}

// union joins the components of a and b under the smaller root, so every
// root is its component's minimum id.
func (u *unionFind) union(a, b int64) {
	u.add(a)
	u.add(b)
	ra, rb := u.find(a), u.find(b)
	switch {
	case ra < rb:
		u.parent[rb] = ra
	case rb < ra:
		u.parent[ra] = rb
	}
}

// ccLabels returns vertex → component label for vertices 0..n-1 and the
// given (undirected) edges.
func ccLabels(n int64, edges [][2]int64) map[int64]int64 {
	u := newUnionFind()
	for v := int64(0); v < n; v++ {
		u.add(v)
	}
	for _, e := range edges {
		u.union(e[0], e[1])
	}
	out := make(map[int64]int64, len(u.parent))
	for v := range u.parent {
		out[v] = u.find(v)
	}
	return out
}

// checkLabels compares a computed labelling against the oracle's: every
// vertex must be present with the identical label, and nothing extra.
func checkLabels(got, want map[int64]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("labelled %d vertices, oracle has %d", len(got), len(want))
	}
	for v, w := range want {
		g, ok := got[v]
		if !ok {
			return fmt.Errorf("vertex %d missing", v)
		}
		if g != w {
			return fmt.Errorf("vertex %d labelled %d, oracle says %d", v, g, w)
		}
	}
	return nil
}

// powerIteration is damped PageRank run sequentially for a fixed number
// of iterations: every vertex starts at 1/n, receives the teleport share
// (1-d)/n each pass, and every edge carries d·rank/outdeg of its source.
// Mass of vertices without out-edges is dropped, as in the dataflow.
func powerIteration(n int64, edges [][2]int64, iterations int, d float64) []float64 {
	outdeg := make([]int64, n)
	for _, e := range edges {
		outdeg[e[0]]++
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = (1 - d) / float64(n)
		}
		for _, e := range edges {
			next[e[1]] += d * rank[e[0]] * (1 / float64(outdeg[e[0]]))
		}
		rank, next = next, rank
	}
	return rank
}

// checkRanks requires every rank within tol relative of the oracle's.
// The dataflow sums contributions in a partition-dependent order, so
// ranks agree only up to floating-point reassociation, not bitwise.
func checkRanks(got map[int64]float64, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("ranked %d vertices, oracle has %d", len(got), len(want))
	}
	for v, w := range want {
		g, ok := got[int64(v)]
		if !ok {
			return fmt.Errorf("vertex %d missing", v)
		}
		if math.Abs(g-w) > tol*math.Abs(w) {
			return fmt.Errorf("vertex %d rank %.17g, oracle %.17g (relative diff %.3g)", v, g, w, math.Abs(g-w)/math.Abs(w))
		}
	}
	return nil
}
