package iterative_test

// External test package: warm restarts are exercised against the real
// Connected Components dataflow from internal/algorithms, which imports
// iterative (so these tests cannot live in the internal test package).

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/dataflow"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/runtime"
)

var resumeBackends = []struct {
	name string
	cfg  func(iterative.Config) iterative.Config
}{
	{"map", func(c iterative.Config) iterative.Config { c.SolutionBackend = runtime.SolutionMap; return c }},
	{"compact", func(c iterative.Config) iterative.Config { c.SolutionBackend = runtime.SolutionCompact; return c }},
	{"spill", func(c iterative.Config) iterative.Config { c.SolutionMemoryBudget = 16 * record.EncodedSize; return c }},
}

// insertDeltaCC builds the workset candidates for inserting undirected
// edge (u, v) over a converged CC solution set: each endpoint proposes its
// current component id to the other.
func insertDeltaCC(sol *runtime.SolutionSet, u, v int64) []record.Record {
	cid := func(x int64) int64 {
		if r, ok := sol.Lookup(sol.PartitionFor(x), x); ok {
			return r.B
		}
		return x
	}
	return []record.Record{{A: v, B: cid(u)}, {A: u, B: cid(v)}}
}

// TestResumeIncrementalAbsorbsInsert converges CC on a graph missing one
// bridge edge, then warm-restarts over the full graph with only the
// bridge's candidates as the working set; the resumed fixpoint must match
// the union-find oracle on the full graph, for every backend.
func TestResumeIncrementalAbsorbsInsert(t *testing.T) {
	full := graphgen.Uniform("resume-full", 80, 160, 0xBEEF)
	// The bridge connects the two halves only through this one edge.
	bridge := graphgen.Edge{Src: 5, Dst: 71}
	full.Edges = append(full.Edges, bridge)
	partial := &graphgen.Graph{Name: "resume-partial", NumVertices: full.NumVertices,
		Edges: full.Edges[:len(full.Edges)-1]}

	for _, bk := range resumeBackends {
		t.Run(bk.name, func(t *testing.T) {
			var m metrics.Counters
			cfg := bk.cfg(iterative.Config{Parallelism: 4, Metrics: &m})

			_, res, err := algorithms.CCIncremental(partial, algorithms.CCCoGroup, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Set == nil {
				t.Fatal("IncrementalResult.Set handoff is nil")
			}
			defer res.Set.Reset()

			// The resumed spec's Δ plan must see the full edge set.
			spec, _, _ := algorithms.CCIncrementalSpec(full, algorithms.CCCoGroup)
			delta := insertDeltaCC(res.Set, bridge.Src, bridge.Dst)
			warm, err := iterative.ResumeIncremental(spec, res.Set, delta, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := algorithms.ComponentsToMap(warm.Solution)
			oracle := algorithms.CCReference(full)
			for v, c := range oracle {
				if got[v] != c {
					t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
				}
			}
			if m.WarmRestarts.Load() != 1 {
				t.Errorf("WarmRestarts = %d, want 1", m.WarmRestarts.Load())
			}
			if m.MaintenanceSupersteps.Load() != int64(warm.Supersteps) {
				t.Errorf("MaintenanceSupersteps = %d, want %d",
					m.MaintenanceSupersteps.Load(), warm.Supersteps)
			}
		})
	}
}

// TestResumeIncrementalEmptyDelta resumes with no delta: one superstep,
// no changes, same solution.
func TestResumeIncrementalEmptyDelta(t *testing.T) {
	g := graphgen.Uniform("resume-empty", 40, 80, 7)
	_, res, err := algorithms.CCIncremental(g, algorithms.CCCoGroup, iterative.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	warm, err := iterative.ResumeIncremental(spec, res.Set, nil, iterative.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Supersteps != 1 {
		t.Errorf("empty delta took %d supersteps, want 1", warm.Supersteps)
	}
	if len(warm.Solution) != len(res.Solution) {
		t.Errorf("solution size changed: %d -> %d", len(res.Solution), len(warm.Solution))
	}
}

// TestResumeIncrementalValidation covers the error paths: nil solution set
// and partition-count mismatch.
func TestResumeIncrementalValidation(t *testing.T) {
	g := graphgen.Uniform("resume-val", 20, 40, 3)
	spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	if _, err := iterative.ResumeIncremental(spec, nil, nil, iterative.Config{Parallelism: 2}); err == nil {
		t.Error("nil solution set accepted")
	}
	sol := runtime.NewSolutionSet(2, record.KeyA, nil, nil)
	if _, err := iterative.ResumeIncremental(spec, sol, nil, iterative.Config{Parallelism: 4}); err == nil {
		t.Error("partition mismatch accepted")
	}
}

// TestFixpointSessionReuseAcrossRestarts checks the resident-session
// contract directly: after the cold run, warm restarts — including one
// that mutates the edge source and invalidates the constant caches — must
// not spawn any new workers, and must still converge correctly.
func TestFixpointSessionReuseAcrossRestarts(t *testing.T) {
	g := graphgen.Uniform("fixpoint-reuse", 60, 120, 0xCAFE)
	bridge := graphgen.Edge{Src: 1, Dst: 57}
	spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)

	var m metrics.Counters
	cfg := iterative.Config{Parallelism: 4, Metrics: &m}
	f, err := iterative.OpenFixpoint(spec, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Solution().Init(s0)
	if _, err := f.Run(w0); err != nil {
		t.Fatal(err)
	}
	spawnedCold := m.WorkersSpawned.Load()

	// Mutate the Δ plan's edge source in place: the undirected edge table
	// gains both orientations of the bridge, and the constant caches are
	// dropped so the next superstep re-materializes them.
	var src *dataflow.Node
	for _, n := range spec.Plan.Nodes() {
		if n.Contract == dataflow.Source {
			src = n
		}
	}
	if src == nil {
		t.Fatal("no Source node in CC spec")
	}
	src.Data = append(src.Data,
		record.Record{A: bridge.Src, B: bridge.Dst},
		record.Record{A: bridge.Dst, B: bridge.Src})
	f.InvalidateConstants()

	if _, err := f.Run(insertDeltaCC(f.Solution(), bridge.Src, bridge.Dst)); err != nil {
		t.Fatal(err)
	}
	if got := m.WorkersSpawned.Load(); got != spawnedCold {
		t.Errorf("warm restart spawned workers: %d -> %d", spawnedCold, got)
	}

	withBridge := &graphgen.Graph{Name: "with-bridge", NumVertices: g.NumVertices,
		Edges: append(append([]graphgen.Edge(nil), g.Edges...), bridge)}
	oracle := algorithms.CCReference(withBridge)
	got := algorithms.ComponentsToMap(f.Solution().Snapshot())
	for v, c := range oracle {
		if got[v] != c {
			t.Fatalf("vertex %d -> %d, oracle %d", v, got[v], c)
		}
	}
}

// chanBarrier couples a coordinator's RunDriven to one peer stepping in
// lockstep: Release wakes the peer, Collect adds its next-workset count.
type chanBarrier struct {
	release chan struct{}
	counts  chan int
}

func (b chanBarrier) Release(int) error { b.release <- struct{}{}; return nil }

func (b chanBarrier) Collect(_, local int) (int, error) {
	n, ok := <-b.counts
	if !ok {
		return 0, fmt.Errorf("peer failed")
	}
	return local + n, nil
}

// ccFilteredSpec is Connected Components with a filter in front of the
// solution join: the same fixpoint as the CoGroup variant through a plan
// with a different edge count.
func ccFilteredSpec(g *graphgen.Graph) (iterative.IncrementalSpec, []record.Record, []record.Record) {
	und := g.Undirected()
	edgeRecs := algorithms.EdgeRecords(und)
	plan := dataflow.NewPlan()
	w := plan.IterationPlaceholder("W", int64(len(edgeRecs)))
	kept := plan.FilterNode("nonNegative", w, func(r record.Record) bool { return r.B >= 0 })
	delta := plan.SolutionJoinNode("updateCC", kept, record.KeyA,
		func(c, s record.Record, found bool, out dataflow.Emitter) {
			if found && c.B < s.B {
				out.Emit(c)
			}
		})
	delta.Preserve(0, record.KeyA)
	propagate := plan.MatchNode("toNeighbors", delta, plan.SourceOf("N", edgeRecs), record.KeyA, record.KeyA,
		func(d, e record.Record, out dataflow.Emitter) { out.Emit(record.Record{A: e.B, B: d.B}) })
	spec := iterative.IncrementalSpec{
		Plan: plan, Workset: w, DeltaSink: plan.SinkNode("D", delta), WorksetSink: plan.SinkNode("W'", propagate),
		SolutionKey: record.KeyA, WorksetKey: record.KeyA, Comparator: algorithms.MinCidComparator,
	}
	return spec, algorithms.InitialComponentRecords(und.NumVertices), algorithms.InitialCandidateRecords(edgeRecs)
}

// TestFixpointRebindRebindsTransport opens a two-host Fixpoint over a
// meshed TCPTransport, Rebinds both hosts to a spec whose physical plan
// has a different edge count, and runs it: the transport's per-edge
// routing must follow the new plan, and the hosted partitions must merge
// to the single-process result byte for byte.
func TestFixpointRebindRebindsTransport(t *testing.T) {
	g := graphgen.Uniform("rebind", 60, 120, 0xCAFE)
	const par, hosts = 4, 2
	place := runtime.ContiguousPlacement(par, hosts)
	fxs := make([]*iterative.Fixpoint, hosts)
	trs := make([]*runtime.TCPTransport, hosts)
	addrs := make([]string, hosts)
	var planned int
	for h := range fxs {
		cfg := iterative.Config{Parallelism: par, Hosts: hosts, Host: h}
		spec, _, _ := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
		phys, err := iterative.PlanIncremental(spec, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		planned = phys.NumEdges
		trs[h] = runtime.NewTCPTransport(h, place, planned, nil)
		defer trs[h].Close()
		if addrs[h], err = trs[h].Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if fxs[h], err = iterative.OpenFixpointOn(spec, nil, cfg, phys, trs[h]); err != nil {
			t.Fatal(err)
		}
		defer fxs[h].Close()
	}
	meshed := make(chan error, hosts)
	for _, tr := range trs {
		go func() { meshed <- tr.ConnectPeers(addrs, 10*time.Second) }()
	}
	for range trs {
		if err := <-meshed; err != nil {
			t.Fatal(err)
		}
	}
	for _, fx := range fxs {
		spec, s0, _ := ccFilteredSpec(g)
		if err := fx.Rebind(spec); err != nil {
			t.Fatal(err)
		}
		if fx.Plan().NumEdges == planned {
			t.Fatal("the rebound plan has the old edge count; the test would not exercise a transport rebind")
		}
		fx.Solution().Init(s0)
	}

	spec, s0, w0 := ccFilteredSpec(g)
	b := chanBarrier{release: make(chan struct{}), counts: make(chan int)}
	go func() {
		defer close(b.counts)
		fxs[1].SeedWorkset(w0)
		for range b.release {
			n, err := fxs[1].StepOnce()
			if err != nil {
				return
			}
			b.counts <- n
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := fxs[0].RunDriven(w0, iterative.DriveHooks{Barrier: b})
		close(b.release)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rebound two-host fixpoint did not converge")
	}

	var got []record.Record
	for h, fx := range fxs {
		for _, p := range place.HostedBy(h) {
			fx.Solution().EachPartition(p, func(r record.Record) { got = append(got, r) })
		}
	}
	want, err := iterative.RunIncremental(spec, s0, w0, iterative.Config{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return record.Less(got[i], got[j]) })
	sort.Slice(want.Solution, func(i, j int) bool { return record.Less(want.Solution[i], want.Solution[j]) })
	if len(got) != len(want.Solution) {
		t.Fatalf("two-host rebound run: %d records, single-process %d", len(got), len(want.Solution))
	}
	for i := range got {
		if !got[i].Equal(want.Solution[i]) {
			t.Fatalf("record %d: two-host %+v, single-process %+v", i, got[i], want.Solution[i])
		}
	}
}
