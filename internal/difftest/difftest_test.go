package difftest

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/pregel"
	"repro/internal/record"
	"repro/internal/runtime"
	"repro/internal/sparklike"
)

var parallelisms = []int{1, 4}

// backends are the solution-set configurations every iterative engine run
// is repeated with; results must not depend on the choice.
var backends = []struct {
	name string
	cfg  func(iterative.Config) iterative.Config
}{
	{"map", func(c iterative.Config) iterative.Config {
		c.SolutionBackend = runtime.SolutionMap
		return c
	}},
	{"compact", func(c iterative.Config) iterative.Config {
		c.SolutionBackend = runtime.SolutionCompact
		return c
	}},
	{"spill", func(c iterative.Config) iterative.Config {
		c.SolutionMemoryBudget = 16 * record.EncodedSize
		return c
	}},
}

// release drops a run's resident solution set — under the spill budget
// it holds temp files until reset — and returns the run's records.
func release(res *iterative.IncrementalResult) []record.Record {
	if res.Set != nil {
		res.Set.Reset()
	}
	return res.Solution
}

func assertComponentsEqual(t *testing.T, ctx string, got, want map[int64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d assignments, oracle has %d", ctx, len(got), len(want))
	}
	for v, c := range want {
		if got[v] != c {
			t.Fatalf("%s: vertex %d -> %d, oracle %d", ctx, v, got[v], c)
		}
	}
}

// TestConnectedComponentsAcrossEngines runs CC on every engine, graph,
// parallelism and solution backend, and compares against the union-find
// oracle (and therefore against every other engine).
func TestConnectedComponentsAcrossEngines(t *testing.T) {
	for _, g := range diffGraphs() {
		oracle := algorithms.CCReference(g)
		for _, par := range parallelisms {
			for _, bk := range backends {
				cfg := bk.cfg(iterative.Config{Parallelism: par})
				name := fmt.Sprintf("%s/p%d/%s", g.Name, par, bk.name)

				got, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
				if err != nil {
					t.Fatalf("%s: incr-cogroup: %v", name, err)
				}
				release(res)
				assertComponentsEqual(t, name+"/incr-cogroup", got, oracle)

				got, res, err = algorithms.CCIncremental(g, algorithms.CCMatch, cfg)
				if err != nil {
					t.Fatalf("%s: incr-match: %v", name, err)
				}
				release(res)
				assertComponentsEqual(t, name+"/incr-match", got, oracle)

				got, res, err = algorithms.CCMicrostepAsync(g, cfg)
				if err != nil {
					t.Fatalf("%s: microstep: %v", name, err)
				}
				release(res)
				assertComponentsEqual(t, name+"/microstep", got, oracle)
			}

			// The baseline engines have no solution set; run them once per
			// parallelism.
			name := fmt.Sprintf("%s/p%d", g.Name, par)
			pg, _, err := pregel.ConnectedComponents(g, pregel.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: pregel: %v", name, err)
			}
			assertComponentsEqual(t, name+"/pregel", pg, oracle)

			sr, err := sparklike.ConnectedComponents(sparklike.NewContext(par, nil), g, 0, false)
			if err != nil {
				t.Fatalf("%s: sparklike: %v", name, err)
			}
			assertComponentsEqual(t, name+"/sparklike", sr.Components, oracle)
		}
	}
}

func assertDistancesEqual(t *testing.T, ctx string, got, want map[int64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: reached %d vertices, oracle reached %d", ctx, len(got), len(want))
	}
	for v, d := range want {
		gd, ok := got[v]
		if !ok || gd != d {
			t.Fatalf("%s: dist(%d) = %v (reached=%v), oracle %v", ctx, v, gd, ok, d)
		}
	}
}

// TestSSSPAcrossEngines runs single-source shortest paths on every engine
// with identical deterministic integer weights (exact in float64) and
// compares against the Dijkstra oracle.
func TestSSSPAcrossEngines(t *testing.T) {
	const source = 0
	for _, g := range diffGraphs() {
		we := weightedEdges(g)
		oracle := algorithms.SSSPReference(we, source)
		und := g.Undirected()
		weightFn := func(e graphgen.Edge) float64 { return diffWeight(e.Src, e.Dst) }

		for _, par := range parallelisms {
			for _, bk := range backends {
				cfg := bk.cfg(iterative.Config{Parallelism: par})
				name := fmt.Sprintf("%s/p%d/%s", g.Name, par, bk.name)

				got, res, err := algorithms.SSSP(we, source, cfg)
				if err != nil {
					t.Fatalf("%s: incremental: %v", name, err)
				}
				release(res)
				assertDistancesEqual(t, name+"/incremental", got, oracle)

				got, res, err = algorithms.SSSPMicrostep(we, source, cfg)
				if err != nil {
					t.Fatalf("%s: microstep: %v", name, err)
				}
				release(res)
				assertDistancesEqual(t, name+"/microstep", got, oracle)
			}

			name := fmt.Sprintf("%s/p%d", g.Name, par)
			pg, _, err := pregel.SSSP(und, weightFn, source, pregel.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: pregel: %v", name, err)
			}
			assertDistancesEqual(t, name+"/pregel", pg, oracle)

			sp, _, err := sparklike.SSSP(sparklike.NewContext(par, nil), und, weightFn, source, 0)
			if err != nil {
				t.Fatalf("%s: sparklike: %v", name, err)
			}
			assertDistancesEqual(t, name+"/sparklike", sp, oracle)
		}
	}
}

// TestBackendIndependenceByteIdentical checks the stronger property the
// out-of-core acceptance demands: the raw solution records (not just the
// derived assignment maps) are byte-identical across backends.
func TestBackendIndependenceByteIdentical(t *testing.T) {
	g := graphgen.Uniform("diff-bytes", 120, 240, 0xD1FF)
	canonical := func(recs []record.Record) []record.Record {
		out := append([]record.Record(nil), recs...)
		sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
		return out
	}
	var base []record.Record
	for i, bk := range backends {
		cfg := bk.cfg(iterative.Config{Parallelism: 4})
		_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bk.name, err)
		}
		got := canonical(release(res))
		if i == 0 {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("%s: %d records, %s has %d", bk.name, len(got), backends[0].name, len(base))
		}
		for j := range got {
			if !got[j].Equal(base[j]) {
				t.Fatalf("%s: record %d = %v, %s has %v", bk.name, j, got[j], backends[0].name, base[j])
			}
		}
	}
}
