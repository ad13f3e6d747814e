package main

import (
	"encoding/json"
	"math/rand"

	"repro/internal/graphgen"
)

// The serving traffic, generated in full from the seed before the
// measured window opens: the initial graph, every write cycle's
// mutations, and one uniform draw per read slot (mapped at send time
// onto the vertices acknowledged so far).

// The traffic design offers 800 reads and 40 write cycles per second.
// On two cores the sharded system cannot serve that on one read
// connection: each fringe delete there is a coordinated full recompute
// that holds the view lock for hundreds of milliseconds, and the read
// backlog then never drains, so latency measures backlog growth instead
// of the system. Both streams are therefore scaled by loadFactor; a
// delete still rides every 40th cycle and a label check every second.
const (
	loadFactor    = 0.25
	readRate      = 800 * loadFactor // GET .../query per second
	cycleRate     = 40 * loadFactor  // write cycles per second
	readsPerCycle = readRate / cycleRate
	attachPerCyc  = 8 // new vertices attached to the giant component
	joinPerCyc    = 8 // edges between two existing giant-component vertices
	starsPerCyc   = 4 // new 5-vertex fringe stars (4 spokes each)
	starSpokes    = 4
	deleteEvery   = 40             // cycles between fringe-spoke deletes
	checkEvery    = int(cycleRate) // cycles between label checks: once per second
)

type mutationJSON struct {
	Op  string `json:"op"`
	Src int64  `json:"src"`
	Dst int64  `json:"dst"`
}

type edgeJSON struct {
	Src int64 `json:"src"`
	Dst int64 `json:"dst"`
}

// labelCheck is a vertex queried right after its cycle's flush ack, with
// the label it must have.
type labelCheck struct {
	vertex, label int64
}

type cycle struct {
	body     []byte // the POST .../mutations body
	muts     []mutationJSON
	newVerts []int64 // published for reads once the cycle is flushed
	checks   []labelCheck
}

type traffic struct {
	numVertices int64 // of the initial graph
	edges       [][2]int64
	createBody  []byte
	cycles      []cycle
	readDraws   []float64
}

const viewName = "bench"

// makeTraffic builds the view-creation body for g and nCycles write
// cycles, plus nReads read draws.
func makeTraffic(g *graphgen.Graph, seed int64, nCycles, nReads int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	t := &traffic{numVertices: g.NumVertices, edges: edgePairs(g)}

	// The giant component is vertex 0's; new attachments and joins stay
	// inside it, so its label stays 0 and every check is exact.
	labels := ccLabels(g.NumVertices, t.edges)
	giant := make([]int64, 0, g.NumVertices+int64(nCycles*attachPerCyc))
	for v := int64(0); v < g.NumVertices; v++ {
		if labels[v] == labels[0] {
			giant = append(giant, v)
		}
	}
	giantLabel := labels[0]

	edges := make([]edgeJSON, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = edgeJSON{Src: e.Src, Dst: e.Dst}
	}
	body, err := json.Marshal(map[string]any{"name": viewName, "algorithm": "cc", "edges": edges})
	if err != nil {
		return nil, err
	}
	t.createBody = body

	type star struct {
		center  int64
		deleted bool
	}
	var stars []star
	next := g.NumVertices
	for c := 0; c < nCycles; c++ {
		var cy cycle
		add := func(op string, a, b int64) { cy.muts = append(cy.muts, mutationJSON{Op: op, Src: a, Dst: b}) }
		var attached []int64
		for i := 0; i < attachPerCyc; i++ {
			v := next
			next++
			add("insert-edge", v, giant[rng.Intn(len(giant))])
			attached = append(attached, v)
			cy.newVerts = append(cy.newVerts, v)
		}
		for i := 0; i < joinPerCyc; i++ {
			a := giant[rng.Intn(len(giant))]
			b := giant[rng.Intn(len(giant))]
			if a == b {
				b = giantLabel // a self-loop would be a no-op; bridge to the root instead
			}
			add("insert-edge", a, b)
		}
		// Stars created by this cycle become eligible for deletes only in
		// later cycles, which start after this one is acknowledged.
		eligible := len(stars)
		for i := 0; i < starsPerCyc; i++ {
			center := next
			next += 1 + starSpokes
			for s := int64(1); s <= starSpokes; s++ {
				add("insert-edge", center, center+s)
			}
			stars = append(stars, star{center: center})
			for s := int64(0); s <= starSpokes; s++ {
				cy.newVerts = append(cy.newVerts, center+s)
			}
		}
		if c%deleteEvery == deleteEvery/2 && eligible > 0 {
			// Delete one spoke of an earlier, untouched star: its leaf
			// becomes its own component (label = its own id).
			for tries := 0; tries < 100; tries++ {
				i := rng.Intn(eligible)
				if !stars[i].deleted {
					stars[i].deleted = true
					add("delete-edge", stars[i].center, stars[i].center+starSpokes)
					break
				}
			}
		}
		if c%checkEvery == 0 {
			first := cy.newVerts[attachPerCyc] // this cycle's first star centre
			cy.checks = []labelCheck{
				{vertex: attached[0], label: giantLabel},
				{vertex: first + 1, label: first},
			}
		}
		giant = append(giant, attached...)
		if cy.body, err = json.Marshal(cy.muts); err != nil {
			return nil, err
		}
		t.cycles = append(t.cycles, cy)
	}
	t.readDraws = make([]float64, nReads)
	for i := range t.readDraws {
		t.readDraws[i] = rng.Float64()
	}
	return t, nil
}

// expectedLabels is the union-find oracle over the initial graph plus
// every acknowledged cycle's mutations: vertex → component label.
func (t *traffic) expectedLabels(acked int) map[int64]int64 {
	u := newUnionFind()
	for v := int64(0); v < t.numVertices; v++ {
		u.add(v)
	}
	live := map[[2]int64]int{}
	for _, e := range t.edges {
		live[e]++
	}
	for _, cy := range t.cycles[:acked] {
		for _, v := range cy.newVerts {
			u.add(v)
		}
		for _, m := range cy.muts {
			e := [2]int64{m.Src, m.Dst}
			switch m.Op {
			case "insert-edge":
				live[e]++
			case "delete-edge":
				delete(live, e)
			}
		}
	}
	for e := range live {
		u.union(e[0], e[1])
	}
	out := make(map[int64]int64, len(u.parent))
	for v := range u.parent {
		out[v] = u.find(v)
	}
	return out
}
