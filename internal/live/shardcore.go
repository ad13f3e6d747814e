package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Maintenance sessions: every LiveView keeps its fixpoint resident in one
// session whose partition ranges are spread over 1+len(ViewConfig.Workers)
// hosts. The serving process is host 0 (the coordinator); every `spinflow
// worker` process hosts one range through a long-lived session layered on
// the distrib control-plane JSON protocol (distrib.ViewHost hands view_*
// messages to this package) and the TCP data plane. An in-process view is
// the one-host case of the same session: no control connections, no
// listener, and a nil transport, so the exchanges stay in-process.
//
// The protocol keeps a strong invariant: every host holds an identical
// replica of the graph and applies every mutation batch to it, so the
// spec, the physical plan (digest-verified at open and after every
// re-plan), the placement, and the maintenance decisions that depend on
// the graph alone (overlay fold, drift re-plan) are derived independently
// on each host and must agree. Solution state is partitioned — each
// host's hosted partitions are exact, its non-hosted partitions are stale
// — which is why every solution read goes through shardCore.Lookup: a
// stale label may *mask* a propagation the fixpoint needs, so a host only
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

// The view-session control verbs (rides the distrib worker control
// connection; every kind is prefixed view_ so distrib can dispatch
// without knowing the schema).
const (
	viewOpen       = "view_open"       // coordinator → worker: spec + graph dump (+ solution on recovery)
	viewReady      = "view_ready"      // worker → coordinator: data addr + plan digest
	viewStart      = "view_start"      // coordinator → worker: all data addrs; mesh now
	viewMeshed     = "view_meshed"     // worker → coordinator: mesh is up, fixpoint open
	viewApply      = "view_apply"      // coordinator → worker: one mutation batch
	viewApplied    = "view_applied"    // worker → coordinator: Full = unboundable delete; Labels = owned region labels
	viewRegion     = "view_region"     // coordinator → worker: union of region Labels; stage the bounded repair
	viewRegioned   = "view_regioned"   // worker → coordinator: Count = staged region records, Hosted = hosted records
	viewRecompute  = "view_recompute"  // coordinator → worker: full recompute (re-plan, reset to S0, seed W0)
	viewRecomputed = "view_recomputed" // worker → coordinator: new plan digest
	viewGather     = "view_gather"     // coordinator → worker: derive candidates (Round 0 = fresh batch + repair)
	viewCand       = "view_cand"       // worker → coordinator: remote-keyed candidates + plan digest
	viewSeed       = "view_seed"       // coordinator → worker: merged workset; seed it
	viewSeeded     = "view_seeded"     // worker → coordinator: Count = hosted candidates that improve
	viewStep       = "view_step"       // coordinator → worker: run one superstep (barrier release)
	viewStepDone   = "view_step_done"  // worker → coordinator: local next-workset count
	viewQuery      = "view_query"      // coordinator → worker: lookup Key in a hosted partition
	viewValue      = "view_value"      // worker → coordinator: Found + the record
	viewCollect    = "view_collect"    // coordinator → worker: ship hosted partitions (+ spans)
	viewSolution   = "view_solution"   // worker → coordinator: hosted partition frames
	viewStats      = "view_stats"      // coordinator → worker: report hosted occupancy
	viewStatted    = "view_statted"    // worker → coordinator: Count records / Bytes resident
	viewClose      = "view_close"      // coordinator → worker: end the session
	viewClosed     = "view_closed"     // worker → coordinator: session torn down
	viewError      = "view_error"      // worker → coordinator: verb failed
)

// shardSpec is everything a worker needs to build its identical share of
// the session: the maintainer, the topology, and the execution config.
type shardSpec struct {
	Name                 string `json:"name"`
	Algorithm            string `json:"algorithm"`
	Source               int64  `json:"source,omitempty"`
	Parallelism          int    `json:"parallelism"`
	Hosts                int    `json:"hosts"`
	BatchSize            int    `json:"batch_size,omitempty"`
	Backend              string `json:"backend,omitempty"`
	SolutionMemoryBudget int64  `json:"solution_memory_budget,omitempty"`
	Planner              int    `json:"planner,omitempty"`
	DisableFusion        bool   `json:"disable_fusion,omitempty"`
	WireCompression      bool   `json:"wire_compression,omitempty"`
	TraceID              uint64 `json:"trace_id,omitempty"`
	TraceLabel           string `json:"trace_label,omitempty"`
}

// shardMsg is one view-session control message (JSON, same codec as the
// distrib control plane).
type shardMsg struct {
	Kind      string     `json:"kind"`
	Spec      *shardSpec `json:"spec,omitempty"`
	HostID    int        `json:"host_id,omitempty"`
	DataAddr  string     `json:"data_addr,omitempty"`
	DataAddrs []string   `json:"data_addrs,omitempty"`
	Digest    string     `json:"digest,omitempty"`
	Count     int        `json:"count,omitempty"`
	Hosted    int        `json:"hosted,omitempty"`
	Labels    []int64    `json:"labels,omitempty"`
	Round     int        `json:"round,omitempty"`
	Full      bool       `json:"full,omitempty"`
	Found     bool       `json:"found,omitempty"`
	Key       int64      `json:"key,omitempty"`
	Bytes     int64      `json:"bytes,omitempty"`
	Frames    []byte     `json:"frames,omitempty"`
	Sol       []byte     `json:"sol,omitempty"`
	Spans     []obs.Span `json:"spans,omitempty"`
	Err       string     `json:"err,omitempty"`
}

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

// --- frame codecs --------------------------------------------------------

// packRecords is the compact wire form for transient control-plane
// payloads (mutation batches, candidate worksets): a flags byte plus
// varint fields, skipping zero B/X/Tag — a quarter of the framed record
// encoding, which matters because these payloads dominate what a sharded
// flush ships. Durable payloads (graph dumps, solution shards) stay on
// the CRC-framed codec the WAL and snapshots share.
func packRecords(recs []record.Record) []byte {
	out := make([]byte, 0, 8*len(recs)+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(recs)))
	var xb [8]byte
	for _, r := range recs {
		var flags byte
		if r.B != 0 {
			flags |= 1
		}
		if r.X != 0 {
			flags |= 2
		}
		if r.Tag != 0 {
			flags |= 4
		}
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(r.A))
		if flags&1 != 0 {
			out = binary.AppendUvarint(out, uint64(r.B))
		}
		if flags&2 != 0 {
			binary.LittleEndian.PutUint64(xb[:], math.Float64bits(r.X))
			out = append(out, xb[:]...)
		}
		if flags&4 != 0 {
			out = append(out, r.Tag)
		}
	}
	return out
}

// unpackRecords decodes a packRecords payload.
func unpackRecords(p []byte) ([]record.Record, error) {
	bad := fmt.Errorf("live: malformed packed records")
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, bad
	}
	p = p[w:]
	out := make([]record.Record, 0, min(int(n), 1<<16))
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return nil, bad
		}
		flags := p[0]
		p = p[1:]
		var r record.Record
		a, w := binary.Uvarint(p)
		if w <= 0 {
			return nil, bad
		}
		r.A = int64(a)
		p = p[w:]
		if flags&1 != 0 {
			b, w := binary.Uvarint(p)
			if w <= 0 {
				return nil, bad
			}
			r.B = int64(b)
			p = p[w:]
		}
		if flags&2 != 0 {
			if len(p) < 8 {
				return nil, bad
			}
			r.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		if flags&4 != 0 {
			if len(p) < 1 {
				return nil, bad
			}
			r.Tag = p[0]
			p = p[1:]
		}
		out = append(out, r)
	}
	if len(p) != 0 {
		return nil, bad
	}
	return out, nil
}

// framesToRecords decodes concatenated record frames into a flat slice.
func framesToRecords(frames []byte) ([]record.Record, error) {
	fr := record.NewFrameReader(bytes.NewReader(frames))
	var out []record.Record
	for {
		b, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("live: shard payload: %w", err)
		}
		out = append(out, b...)
	}
}

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

// shardCore is one host's share of a maintenance session: the graph
// replica, the locally derived spec and plan, the meshed transport, and a
// resident Fixpoint hosting this host's partition range. The coordinator
// owns core 0 (its gs aliases the LiveView's); each worker owns one with a
// replica gs. Every maintenance step below runs on every host.
type shardCore struct {
	m     Maintainer
	cfg   iterative.Config
	host  int
	gs    *GraphState
	place runtime.Placement

	// tr is the data plane; nil on a one-host session, whose exchanges
	// stay in-process.
	tr   *runtime.TCPTransport
	sol  *runtime.SolutionSet
	fx   *iterative.Fixpoint
	spec iterative.IncrementalSpec
	// phys is the plan the fixpoint opens on (mesh); re-plans go through
	// Fixpoint.Rebind.
	phys *optimizer.PhysPlan
	// sources are the spec's Source nodes in construction order, whose
	// data fold refreshes in place; planEdges is the edge count the plan
	// was costed with.
	sources   []*dataflow.Node
	planEdges int
	digest    string
	// dataAddr is the transport's listen address (workers echo it in
	// view_ready so the coordinator can assemble the mesh).
	dataAddr string
	// w0 is the cold initial workset, kept until the mesh is up (workers
	// seed it at view_start; the coordinator runs it). Nil on recovery.
	w0 []record.Record
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

// specFor assembles the per-host iterative.Config a shardSpec describes.
func specFor(ss shardSpec, hostID int, reg *obs.Registry, mtr *metrics.Counters) iterative.Config {
	cfg := iterative.Config{
		Parallelism:          ss.Parallelism,
		BatchSize:            ss.BatchSize,
		Hosts:                ss.Hosts,
		Host:                 hostID,
		Metrics:              mtr,
		SolutionBackend:      runtime.SolutionBackendKind(ss.Backend),
		SolutionMemoryBudget: ss.SolutionMemoryBudget,
		Planner:              optimizer.PlannerKind(ss.Planner),
		DisableFusion:        ss.DisableFusion,
		WireCompression:      ss.WireCompression,
	}
	if reg != nil {
		cfg.Obs = reg
		cfg.TraceID = obs.TraceID(ss.TraceID)
		cfg.TraceLabel = ss.TraceLabel
		reg.SetCounters(mtr)
	}
	return cfg
}

// newShardCore builds everything up to — but not including — the peer
// mesh: the spec and plan over gs, the solution set (filled by `fill`
// when non-nil — the recovery path — and initialized to S0 otherwise),
// and, on a multi-host session, the transport listening on an ephemeral
// port. The fixpoint opens in mesh(), once all data addrs are known.
func newShardCore(m Maintainer, cfg iterative.Config, hostID int, gs *GraphState,
	fill func(*runtime.SolutionSet) error) (*shardCore, error) {
	spec, s0, w0 := m.Spec(gs)
	phys, err := iterative.PlanIncremental(spec, cfg, spec.ExpectedIterations)
	if err != nil {
		return nil, err
	}
	c := &shardCore{m: m, cfg: cfg, host: hostID, gs: gs, phys: phys,
		place: runtime.ContiguousPlacement(cfg.Parallelism, cfg.Hosts)}
	c.setSpec(spec, phys)
	c.sol = runtime.NewSolutionSetWith(cfg.Parallelism, spec.SolutionKey, spec.Comparator, cfg.Metrics,
		runtime.SolutionOptions{Backend: cfg.SolutionBackend, MemoryBudget: cfg.SolutionMemoryBudget})
	if fill != nil {
		if err := fill(c.sol); err != nil {
			c.sol.Reset()
			return nil, err
		}
	} else {
		c.sol.Init(s0)
		c.w0 = w0
	}
	if cfg.Hosts > 1 {
		c.tr = runtime.NewTCPTransport(hostID, c.place, phys.NumEdges, cfg.Metrics)
		c.tr.SetCompression(cfg.WireCompression)
		if cfg.Obs != nil {
			c.tr.SetObs(cfg.TraceID, cfg.Obs.Histogram("transport_send_duration"))
		}
		if c.dataAddr, err = c.tr.Listen("127.0.0.1:0"); err != nil {
			c.sol.Reset()
			return nil, err
		}
	}
	return c, nil
}

// setSpec installs a (re)planned spec: its Source nodes, the edge count
// the plan was costed with, and the plan digest hosts cross-check.
func (c *shardCore) setSpec(spec iterative.IncrementalSpec, phys *optimizer.PhysPlan) {
	c.spec = spec
	c.sources = sourceNodes(spec)
	c.planEdges = c.gs.NumEdges()
	c.digest = distrib.PlanDigest(phys)
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

// mesh connects the data plane and opens the resident fixpoint on it.
// Workers additionally seed their share of the cold workset here; the
// coordinator drives its own through the barrier.
func (c *shardCore) mesh(dataAddrs []string, seedCold bool) error {
	var tr runtime.Transport
	if c.tr != nil {
		if err := c.tr.ConnectPeers(dataAddrs, distrib.MeshTimeout); err != nil {
			return err
		}
		tr = c.tr
	}
	fx, err := iterative.OpenFixpointOn(c.spec, c.sol, c.cfg, c.phys, tr)
	if err != nil {
		return err
	}
	c.fx = fx
	if seedCold && c.w0 != nil {
		fx.SeedWorkset(c.w0)
	}
	return nil
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
		c.sol.Delete(d)
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
		c.sol.ForceStore(r)
	}
	c.resets = nil
	for _, nv := range c.newVerts {
		if !c.gs.HasVertex(nv) {
			continue // added and dropped within the batch
		}
		if r, ok := c.m.VertexRecord(nv); ok {
			c.sol.Update(r)
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
	c.fx.InvalidateConstants()
	return false, nil
}

// rebind re-plans the resident fixpoint for spec, keeping the solution
// set, the session's workers and the mesh (the transport rebinds to the
// new plan's edge count).
func (c *shardCore) rebind(spec iterative.IncrementalSpec) error {
	if err := c.fx.Rebind(spec); err != nil {
		return err
	}
	c.setSpec(spec, c.fx.Plan())
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
	c.sol.Reset()
	c.sol.Init(s0)
	return w0, nil
}

// Lookup and Each make a shardCore the maintainer's SolutionReader:
// reads hit only partitions this host owns. Non-hosted partitions hold
// stale replicas — and a stale label can mask a propagation the fixpoint
// still needs — so misses are reported as absent and the maintainer's
// fallback produces a sound upper-bound candidate (CC: a vertex proposes
// its own id; SSSP: no candidate). The owning host emits the exact
// candidate for the same edge; ∪̇ keeps whichever improves. On a
// one-host session every partition is hosted.
func (c *shardCore) Lookup(k int64) (record.Record, bool) {
	p := c.sol.PartitionFor(k)
	if c.place[p] != c.host {
		return record.Record{}, false
	}
	return c.sol.Lookup(p, k)
}

// Each visits the hosted records in ascending partition order.
func (c *shardCore) Each(f func(record.Record)) {
	for _, p := range c.place.HostedBy(c.host) {
		c.sol.EachPartition(p, f)
	}
}

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
		k := c.spec.SolutionKey(r)
		if c.ownsKey(k) {
			if c.improves(r) {
				own = append(own, r)
			}
			return
		}
		if init, ok := c.m.VertexRecord(k); ok && c.spec.Comparator != nil && c.spec.Comparator(r, init) <= 0 {
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
			k := c.spec.SolutionKey(r)
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
	return c.place[c.sol.PartitionFor(k)] == c.host
}

// improves reports whether r would advance the current solution entry
// for its key (callers ensure the key's partition is hosted here) — the
// comparator-based no-op check that lets the candidate rounds detect
// convergence.
func (c *shardCore) improves(r record.Record) bool {
	k := c.spec.SolutionKey(r)
	old, ok := c.sol.Lookup(c.sol.PartitionFor(k), k)
	if !ok {
		return true
	}
	if c.spec.Comparator != nil {
		return c.spec.Comparator(r, old) > 0
	}
	return !old.Equal(r)
}

// route splits remote-keyed candidates by the host owning their key. The
// built-in maintainers key solution and workset alike (the vertex id), so
// the key's owner is also the host whose partition the engine seeds.
func (c *shardCore) route(ws []record.Record) [][]record.Record {
	out := make([][]record.Record, c.cfg.Hosts)
	for _, r := range ws {
		h := c.place[c.sol.PartitionFor(c.spec.SolutionKey(r))]
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

// collect serializes the partitions host h owns, one frame per partition
// in ascending partition order, records sorted canonically within each.
func (c *shardCore) collect(h int) []byte {
	var out []byte
	for _, p := range c.place.HostedBy(h) {
		var b record.Batch
		c.sol.EachPartition(p, func(r record.Record) {
			b = append(b, r)
		})
		sort.Slice(b, func(x, y int) bool { return record.Less(b[x], b[y]) })
		out = record.AppendFrame(out, b)
	}
	return out
}

// hostedRecords counts the records in this host's partitions.
func (c *shardCore) hostedRecords() int {
	n := 0
	for p, h := range c.place {
		if h == c.host {
			n += c.sol.PartitionSize(p)
		}
	}
	return n
}

// close tears the session down: fixpoint, transport, solution state.
func (c *shardCore) close() {
	if c.fx != nil {
		c.fx.Close()
		c.fx = nil
	}
	if c.tr != nil {
		c.tr.Close()
	}
	c.sol.Reset()
}
