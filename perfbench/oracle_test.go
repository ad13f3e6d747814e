package main

import (
	"math"
	"testing"

	"repro/internal/graphgen"
)

func TestUnionFindLabelsByComponentMinimum(t *testing.T) {
	edges := [][2]int64{{5, 3}, {3, 4}, {1, 2}, {6, 6}}
	got := ccLabels(7, edges)
	want := map[int64]int64{0: 0, 1: 1, 2: 1, 3: 3, 4: 3, 5: 3, 6: 6}
	if err := checkLabels(got, want); err != nil {
		t.Fatal(err)
	}
	got[4] = 4
	if checkLabels(got, want) == nil {
		t.Error("a wrong label passed the check")
	}
	delete(got, 4)
	if checkLabels(got, want) == nil {
		t.Error("a missing vertex passed the check")
	}
}

func TestExpectedLabelsFollowAcknowledgedMutations(t *testing.T) {
	g := &graphgen.Graph{NumVertices: 3, Edges: []graphgen.Edge{{Src: 0, Dst: 1}}}
	tr := &traffic{numVertices: 3, edges: edgePairs(g), cycles: []cycle{
		{newVerts: []int64{3, 4}, muts: []mutationJSON{{"insert-edge", 3, 4}, {"insert-edge", 2, 1}}},
		{muts: []mutationJSON{{"delete-edge", 3, 4}}},
		{muts: []mutationJSON{{"insert-edge", 4, 0}}}, // never acknowledged
	}}
	after1 := map[int64]int64{0: 0, 1: 0, 2: 0, 3: 3, 4: 3}
	if err := checkLabels(tr.expectedLabels(1), after1); err != nil {
		t.Errorf("after cycle 1: %v", err)
	}
	after2 := map[int64]int64{0: 0, 1: 0, 2: 0, 3: 3, 4: 4}
	if err := checkLabels(tr.expectedLabels(2), after2); err != nil {
		t.Errorf("after the delete: %v", err)
	}
}

func TestPowerIterationConservesMassWithoutDanglingVertices(t *testing.T) {
	// a 3-cycle: every vertex has out-degree 1, so rank mass stays 1 and
	// the uniform start is the fixpoint
	r := powerIteration(3, [][2]int64{{0, 1}, {1, 2}, {2, 0}}, 20, 0.85)
	for v, x := range r {
		if math.Abs(x-1.0/3) > 1e-15 {
			t.Errorf("rank[%d] = %v", v, x)
		}
	}
	got := map[int64]float64{0: r[0], 1: r[1], 2: r[2] * (1 + 1e-11)}
	if checkRanks(got, r, 1e-12) == nil {
		t.Error("a rank off by 1e-11 relative passed a 1e-12 check")
	}
}

func TestTrafficMakesOneComponentGrowAndChecksExactLabels(t *testing.T) {
	g := foafGraph(0.05, 3)
	tr, err := makeTraffic(g, 3, 2*deleteEvery, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.expectedLabels(len(tr.cycles))
	deletes := 0
	for _, cy := range tr.cycles {
		for _, ck := range cy.checks {
			// later deletes cut only spoke 4 of older stars, so a checked
			// label holds to the end
			if want[ck.vertex] != ck.label {
				t.Errorf("check of %d expects %d, oracle says %d", ck.vertex, ck.label, want[ck.vertex])
			}
		}
		for _, m := range cy.muts {
			if m.Op == "delete-edge" {
				deletes++
				if want[m.Dst] != m.Dst {
					t.Errorf("deleted spoke leaf %d still labelled %d", m.Dst, want[m.Dst])
				}
			}
		}
	}
	if deletes != 2 {
		t.Errorf("%d deletes in %d cycles, want 2", deletes, len(tr.cycles))
	}
}
