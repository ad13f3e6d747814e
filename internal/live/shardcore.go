package live

import (
	"bytes"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Maintenance sessions: every LiveView keeps its fixpoint resident in one
// session whose partition ranges are spread over 1+len(ViewConfig.Workers)
// hosts. The serving process is host 0 (the coordinator); every `spinflow
// worker` process hosts one range. A view's session is the second kind of
// distrib session (batch jobs are the first): it opens, meshes, steps,
// collects and closes through the one distrib session protocol — Session
// on the coordinator, the worker's session loop, each host's distrib.Core
// — and adds only the view verbs below, which the worker's loop hands to
// the hosted shardCore. An in-process view is the one-host case of the
// same session: no control connections, no listener, and a nil transport,
// so the exchanges stay in-process.
//
// The protocol keeps a strong invariant: every host holds an identical
// replica of the graph and applies every mutation batch to it, so the
// spec, the physical plan (digest-verified at open and after every
// re-plan), the placement, and the maintenance decisions that depend on
// the graph alone (overlay fold, drift re-plan) are derived independently
// on each host and must agree. Solution state is partitioned — each
// host's hosted partitions are exact, its non-hosted partitions are stale
// — which is why every solution read goes through Core.Lookup: a stale
// label may *mask* a propagation the fixpoint needs, so a host only
// reads labels it owns and lets the maintainer's fallback produce a sound
// (CPO-upper-bound) candidate for the rest. Owners emit the exact
// candidates, the coordinator routes each to its key's owner, and junk
// candidates are rejected by the ∪̇ comparator.
//
// Deletions (and re-weights and vertex drops) are not monotone. A batch
// that deletes takes one extra control round-trip: every host reports the
// pre-batch region labels of the deleted edges it owns (view_applied), the
// coordinator broadcasts their union, and each host stages the reset of
// its hosted records carrying those labels (view_region). The summed
// region size decides, once, between the bounded repair — each host
// force-stores its resets before its round-0 gather, which reads only
// hosted labels, so no candidate derives from a stale region label; the
// region's seeds ride the owner-routed candidates — and a coordinated
// full recompute, which stays warm: the mesh, the processes, and the
// transport all survive.

// The view verbs, each a request and its reply on the session's control
// connection (distrib.Msg fields in parentheses).
const (
	viewApply      = "view_apply"      // coordinator → worker: one mutation batch (Frames)
	viewApplied    = "view_applied"    // worker → coordinator: Full = unboundable delete; Labels = owned region labels
	viewRegion     = "view_region"     // coordinator → worker: union of region Labels; stage the bounded repair
	viewRegioned   = "view_regioned"   // worker → coordinator: Count = staged region records, Hosted = hosted records
	viewRecompute  = "view_recompute"  // coordinator → worker: full recompute (re-plan, reset to S0, seed W0)
	viewRecomputed = "view_recomputed" // worker → coordinator: new plan Digest
	viewGather     = "view_gather"     // coordinator → worker: derive candidates (Round 0 = fresh batch + repair)
	viewCand       = "view_cand"       // worker → coordinator: remote-keyed candidates (Frames) + plan Digest
	viewSeed       = "view_seed"       // coordinator → worker: routed candidates (Frames); seed the workset
	viewSeeded     = "view_seeded"     // worker → coordinator: Count = hosted candidates that improve
	viewQuery      = "view_query"      // coordinator → worker: look up Key in a hosted partition
	viewValue      = "view_value"      // worker → coordinator: Found + the record (Frames)
	viewStats      = "view_stats"      // coordinator → worker: report hosted occupancy
	viewStatted    = "view_statted"    // worker → coordinator: Count records / Bytes resident
)

// maintainerFor rebuilds a Maintainer from its wire identity.
func maintainerFor(algorithm string, source int64) (Maintainer, error) {
	switch algorithm {
	case "cc":
		return CC(), nil
	case "sssp":
		return SSSP(source), nil
	}
	return nil, fmt.Errorf("live: unknown sharded algorithm %q", algorithm)
}

// --- graph replica transfer ------------------------------------------------

// dumpGraph serializes the graph replica as two frames (writeGraph's
// sections). Replicas rebuild from it and then apply every later mutation
// batch in arrival order, so their internal edge slices — and therefore
// the specs derived from them — stay identical to the coordinator's.
func dumpGraph(gs *GraphState) []byte {
	var out []byte
	var b record.Batch
	gs.writeGraph(func(r record.Record) error {
		b = append(b, r)
		return nil
	}, func() error {
		out, b = record.AppendFrame(out, b), b[:0]
		return nil
	})
	return out
}

// loadGraph rebuilds a graph replica from dumpGraph frames.
func loadGraph(frames []byte) (*GraphState, error) {
	fr := record.NewFrameReader(bytes.NewReader(frames))
	return readGraph(func(f func(record.Batch) error) error {
		b, err := fr.Next()
		if err != nil {
			return err
		}
		return f(b)
	})
}

// --- per-host session core ----------------------------------------------

// shardCore is one host's share of a maintenance session: the distrib
// host core (placement, transport, solution set, resident fixpoint, plan
// digest) plus the graph replica and the maintenance state the view
// verbs carry between requests. The coordinator owns core 0 (its gs
// aliases the LiveView's); each worker owns one with a replica gs. Every
// maintenance step below runs on every host.
type shardCore struct {
	*distrib.Core
	m  Maintainer
	gs *GraphState

	// sources are the spec's Source nodes in construction order, whose
	// data fold refreshes in place; planEdges is the edge count the plan
	// was costed with.
	sources   []*dataflow.Node
	planEdges int
	// overlay holds edges in gs but not yet folded into the plan's edge
	// table: the insert fast path leaves the O(E) caches untouched and
	// re-derives candidates over these edges until the solution is a
	// fixpoint over N ∪ overlay.
	overlay []WEdge

	// The current batch, carried between verbs: fresh holds its inserts
	// (the round-0 candidate source), newVerts its added vertices,
	// hasDelete whether the plan's edge table must fold, and resets/seed
	// the staged bounded repair of its deletions.
	fresh     []WEdge
	newVerts  []int64
	hasDelete bool
	resets    []record.Record
	seed      []record.Record
	// pending buffers this host's own-keyed candidates between the gather
	// and seed verbs of one round: only remote-keyed ones travel.
	pending []record.Record
}

// newShardCore builds the host core over gs's spec (see distrib.NewCore;
// fill non-nil is the recovery path).
func newShardCore(m Maintainer, cfg iterative.Config, gs *GraphState,
	fill func(*runtime.SolutionSet) error) (*shardCore, error) {
	spec, s0, w0 := m.Spec(gs)
	core, err := distrib.NewCore(spec, s0, w0, cfg, fill)
	if err != nil {
		return nil, err
	}
	return &shardCore{Core: core, m: m, gs: gs, sources: sourceNodes(spec), planEdges: gs.NumEdges()}, nil
}

// sourceNodes lists a spec's Source nodes in construction order.
func sourceNodes(spec iterative.IncrementalSpec) []*dataflow.Node {
	var out []*dataflow.Node
	for _, n := range spec.Plan.Nodes() {
		if n.Contract == dataflow.Source {
			out = append(out, n)
		}
	}
	return out
}

// applyBatch advances the graph replica by one mutation batch and
// classifies it. Classification reads only pre-batch solution state, and
// only this host's partitions: labels are the region labels of the
// deleted edges whose endpoints this host owns, and full reports a
// deletion the maintainer cannot bound — a pure function of (replica,
// batch), so every host reaches the same verdict. Dropped vertices leave
// the solution here; inserts queue on the overlay.
func (c *shardCore) applyBatch(muts []Mutation) (full bool, labels []int64, err error) {
	c.fresh, c.newVerts, c.hasDelete = c.fresh[:0], c.newVerts[:0], false
	var drops []int64
	noteDelete := func(src, dst int64) {
		c.hasDelete = true
		if full {
			return
		}
		ls, ok := c.m.DeleteImpact(c.gs, src, dst, c)
		if !ok {
			full = true
		}
		labels = append(labels, ls...)
	}
	addVertex := func(vid int64) {
		if c.gs.AddVertex(vid) {
			c.newVerts = append(c.newVerts, vid)
		}
	}
	for _, mut := range muts {
		switch mut.Op {
		case OpInsertEdge:
			addVertex(mut.Src)
			addVertex(mut.Dst)
			oldW, existed := c.gs.EdgeWeight(mut.Src, mut.Dst)
			if c.gs.AddEdge(mut.Src, mut.Dst, mut.Weight) {
				e := WEdge{Src: mut.Src, Dst: mut.Dst, Weight: mut.Weight}
				c.overlay = append(c.overlay, e)
				c.fresh = append(c.fresh, e)
				if existed && oldW != mut.Weight {
					// Re-weighting an existing edge is not monotone (the
					// weight may have increased, lengthening paths through
					// it): repair like a deletion of the old edge.
					noteDelete(mut.Src, mut.Dst)
				}
			}
		case OpDeleteEdge:
			if _, ok := c.gs.RemoveEdge(mut.Src, mut.Dst); ok {
				noteDelete(mut.Src, mut.Dst)
			}
		case OpAddVertex:
			addVertex(mut.Src)
		case OpDeleteVertex:
			if !c.gs.HasVertex(mut.Src) {
				continue
			}
			for _, e := range c.gs.RemoveVertex(mut.Src) {
				noteDelete(e.Src, e.Dst)
			}
			drops = append(drops, mut.Src)
			c.hasDelete = true
		default:
			return false, nil, fmt.Errorf("live: unknown mutation op %v", mut.Op)
		}
	}
	for _, d := range drops {
		c.Sol.Delete(d)
	}
	return full, labels, nil
}

// region stages the bounded repair of the batch's deletions: the hosted
// records carrying one of labels (the union over every host) are the
// region, to be reset, and their surviving incident edges seed the
// restart. It reports the region's hosted size and this host's record
// count — summed over hosts, the coordinator's bounded-vs-full decision.
func (c *shardCore) region(labels []int64) (n, hosted int) {
	c.resets, c.seed = c.m.RecomputeSeed(c.gs, labels, c)
	return len(c.resets), c.hostedRecords()
}

// absorb opens the batch's candidate rounds: it folds the plan's edge
// table when the batch deleted — stale edges would resurrect retracted
// state — or the overlay outgrew it, force-stores the staged region
// resets (before any candidate reads a label), and enters fresh vertices.
// It reports whether the fold re-planned.
func (c *shardCore) absorb() (rebound bool, err error) {
	if c.hasDelete || len(c.overlay)*8 > c.gs.NumEdges() {
		if rebound, err = c.fold(); err != nil {
			return false, err
		}
	}
	for _, r := range c.resets {
		c.Sol.ForceStore(r)
	}
	c.resets = nil
	for _, nv := range c.newVerts {
		if !c.gs.HasVertex(nv) {
			continue // added and dropped within the batch
		}
		if r, ok := c.m.VertexRecord(nv); ok {
			c.Sol.Update(r)
		}
	}
	return rebound, nil
}

// fold brings the plan's edge table up to the graph, overlay included.
// The spec is rebuilt only to harvest fresh source data, which is copied
// into the live plan in place: the session, its workers and the mesh
// survive, the plan (and so its digest) is unchanged, and
// InvalidateConstants makes the next superstep re-materialize the edge
// caches. When the edge count has drifted 4x from what the plan was
// costed with, the fixpoint re-plans instead (Rebind).
func (c *shardCore) fold() (rebound bool, err error) {
	edges := c.gs.NumEdges()
	drifted := edges > 4*c.planEdges || (edges > 0 && c.planEdges > 4*edges)
	spec, _, _ := c.m.Spec(c.gs)
	c.overlay = c.overlay[:0]
	if drifted {
		return true, c.rebind(spec)
	}
	fresh := sourceNodes(spec)
	if len(fresh) != len(c.sources) {
		return false, fmt.Errorf("live: maintainer %s produced %d sources, plan has %d",
			c.m.Name(), len(fresh), len(c.sources))
	}
	for i, n := range c.sources {
		n.Data = fresh[i].Data
	}
	c.Fx.InvalidateConstants()
	return false, nil
}

// rebind re-plans the resident fixpoint for spec, keeping the solution
// set, the session's workers and the mesh (the transport rebinds to the
// new plan's edge count), and installs the spec: its Source nodes, the
// edge count the plan was costed with, and the plan digest hosts
// cross-check.
func (c *shardCore) rebind(spec iterative.IncrementalSpec) error {
	if err := c.Fx.Rebind(spec); err != nil {
		return err
	}
	c.Spec = spec
	c.sources = sourceNodes(spec)
	c.planEdges = c.gs.NumEdges()
	c.Digest = distrib.PlanDigest(c.Fx.Plan())
	return nil
}

// recompute is the full recompute's per-host half: re-plan over the
// current graph, reset the solution to S0, and drop the overlay and the
// batch's staged repair. It returns W0, which workers seed and the
// coordinator drives.
func (c *shardCore) recompute() ([]record.Record, error) {
	spec, s0, w0 := c.m.Spec(c.gs)
	if err := c.rebind(spec); err != nil {
		return nil, err
	}
	c.overlay, c.fresh, c.resets, c.seed = c.overlay[:0], c.fresh[:0], nil, nil
	c.Sol.Reset()
	c.Sol.Init(s0)
	return w0, nil
}

// A shardCore is the maintainer's SolutionReader through its Core's
// Lookup and Each: reads hit only partitions this host owns. Non-hosted
// partitions hold stale replicas — and a stale label can mask a
// propagation the fixpoint still needs — so misses are reported as absent
// and the maintainer's fallback produces a sound upper-bound candidate
// (CC: a vertex proposes its own id; SSSP: no candidate). The owning host
// emits the exact candidate for the same edge; ∪̇ keeps whichever
// improves. On a one-host session every partition is hosted.

// gather derives this host's candidates for one round, split into the
// ones keyed to partitions it owns (already checked to improve) and the
// remote-keyed ones the coordinator routes to their owners. Round 0
// covers the staged region seed and the batch's inserts; later rounds
// re-examine the whole overlay (the converged solution may have moved,
// re-arming older overlay edges). Two source-side filters keep dead
// weight off the wire:
//
//   - A candidate keyed on one endpoint was derived from the *other*
//     endpoint's label; only that label's owner emits it. The owner's
//     exact candidate dominates any non-owner fallback under ∪̇ (CC
//     labels only decrease from the self-id a fallback proposes; SSSP
//     fallbacks emit nothing), so non-owner emissions are dropped.
//   - A remote-keyed candidate that does not beat even the key's initial
//     vertex record can never beat the owner's current label.
func (c *shardCore) gather(round int) (own, remote []record.Record) {
	keep := func(r record.Record) {
		k := c.Spec.SolutionKey(r)
		if c.ownsKey(k) {
			if c.improves(r) {
				own = append(own, r)
			}
			return
		}
		if init, ok := c.m.VertexRecord(k); ok && c.Spec.Comparator != nil && c.Spec.Comparator(r, init) <= 0 {
			return
		}
		remote = append(remote, r)
	}
	edges := c.overlay
	if round == 0 {
		for _, r := range c.seed {
			keep(r)
		}
		c.seed = nil
		edges = c.fresh
	}
	for _, e := range edges {
		ownsSrc, ownsDst := c.ownsKey(e.Src), c.ownsKey(e.Dst)
		if !ownsSrc && !ownsDst {
			continue
		}
		for _, r := range c.m.InsertDelta(e.Src, e.Dst, e.Weight, c) {
			k := c.Spec.SolutionKey(r)
			if (k == e.Dst && !ownsSrc) || (k == e.Src && !ownsDst) {
				continue // the other endpoint's owner emits the exact one
			}
			keep(r)
		}
	}
	return own, remote
}

// ownsKey reports whether this host hosts the solution partition of k.
func (c *shardCore) ownsKey(k int64) bool {
	return c.Place[c.Sol.PartitionFor(k)] == c.Cfg.Host
}

// improves reports whether r would advance the current solution entry
// for its key (callers ensure the key's partition is hosted here) — the
// comparator-based no-op check that lets the candidate rounds detect
// convergence.
func (c *shardCore) improves(r record.Record) bool {
	k := c.Spec.SolutionKey(r)
	old, ok := c.Sol.Lookup(c.Sol.PartitionFor(k), k)
	if !ok {
		return true
	}
	if c.Spec.Comparator != nil {
		return c.Spec.Comparator(r, old) > 0
	}
	return !old.Equal(r)
}

// route splits remote-keyed candidates by the host owning their key. The
// built-in maintainers key solution and workset alike (the vertex id), so
// the key's owner is also the host whose partition the engine seeds.
func (c *shardCore) route(ws []record.Record) [][]record.Record {
	out := make([][]record.Record, c.Cfg.Hosts)
	for _, r := range ws {
		h := c.Place[c.Sol.PartitionFor(c.Spec.SolutionKey(r))]
		out[h] = append(out[h], r)
	}
	return out
}

// admit appends the routed-in candidates that improve a hosted entry to
// this host's own (already checked) ones: the workset this host seeds.
func (c *shardCore) admit(own, routed []record.Record) []record.Record {
	for _, r := range routed {
		if c.improves(r) {
			own = append(own, r)
		}
	}
	return own
}

// hostedRecords counts the records in this host's partitions.
func (c *shardCore) hostedRecords() int {
	n := 0
	for p, h := range c.Place {
		if h == c.Cfg.Host {
			n += c.Sol.PartitionSize(p)
		}
	}
	return n
}
