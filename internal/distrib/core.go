package distrib

import (
	"fmt"
	"sort"

	"repro/internal/iterative"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// Core is one process's share of a session, whichever kind: the locally
// derived spec and plan, the partition placement, the solution set, the
// data-plane transport, and — once meshed — the resident Fixpoint
// hosting this process's partition range. A batch job and a live view's
// session both build on it; the coordinator drives its Core through
// Session, workers drive theirs from the session loop.
type Core struct {
	// Cfg is this host's execution config; Cfg.Host its host ID.
	Cfg   iterative.Config
	Place runtime.Placement
	Sol   *runtime.SolutionSet
	Spec  iterative.IncrementalSpec
	// Fx is the resident fixpoint, open from Mesh to Close.
	Fx *iterative.Fixpoint
	// Digest fingerprints the plan the session executes; epoch counts the
	// coordinated plan swaps applied (batch jobs; views stay at 0). Both
	// advance together at a plan-epoch bump.
	Digest string
	epoch  int
	// W0 is the cold initial workset, kept until the mesh is up: workers
	// seed it at start, the coordinator drives it. Nil on recovery.
	W0 []record.Record

	// phys is the plan the fixpoint opens on (later plans are the
	// fixpoint's own); tr is the data plane, nil on a one-host session,
	// whose exchanges stay in-process, and dataAddr its listen address.
	phys     *optimizer.PhysPlan
	tr       *runtime.TCPTransport
	dataAddr string
}

// NewCore builds everything up to — but not including — the peer mesh:
// the plan for spec, the solution set (filled by fill when non-nil — a
// recovered view — and initialized to s0 otherwise), and, when cfg spans
// several hosts, the transport listening on an ephemeral port. cfg.Host
// is this process's host ID.
func NewCore(spec iterative.IncrementalSpec, s0, w0 []record.Record, cfg iterative.Config,
	fill func(*runtime.SolutionSet) error) (*Core, error) {
	if cfg.Host < 0 || cfg.Host >= max(cfg.Hosts, 1) {
		return nil, fmt.Errorf("distrib: host id %d outside 0..%d", cfg.Host, max(cfg.Hosts, 1)-1)
	}
	phys, err := iterative.PlanIncremental(spec, cfg, spec.ExpectedIterations)
	if err != nil {
		return nil, err
	}
	c := &Core{Cfg: cfg, Spec: spec, phys: phys, Digest: PlanDigest(phys),
		Place: runtime.ContiguousPlacement(cfg.Parallelism, cfg.Hosts)}
	c.Sol = runtime.NewSolutionSetWith(cfg.Parallelism, spec.SolutionKey, spec.Comparator, cfg.Metrics,
		runtime.SolutionOptions{Backend: cfg.SolutionBackend, MemoryBudget: cfg.SolutionMemoryBudget})
	if fill != nil {
		if err := fill(c.Sol); err != nil {
			c.Sol.Reset()
			return nil, err
		}
	} else {
		c.Sol.Init(s0)
		c.W0 = w0
	}
	if cfg.Hosts > 1 {
		c.tr = runtime.NewTCPTransport(cfg.Host, c.Place, phys.NumEdges, cfg.Metrics)
		if cfg.Obs != nil {
			c.tr.SetObs(cfg.TraceID, cfg.Obs.Histogram("transport_send_duration"))
		}
		if c.dataAddr, err = c.tr.Listen("127.0.0.1:0"); err != nil {
			c.Sol.Reset()
			return nil, err
		}
	}
	return c, nil
}

// HostCore returns c itself: a worker's hosted session (anything
// embedding *Core) hands the session loop its core through it.
func (c *Core) HostCore() *Core { return c }

// Mesh connects the data plane to every host's address and opens the
// resident fixpoint on it.
func (c *Core) Mesh(dataAddrs []string) error {
	var tr runtime.Transport
	if c.tr != nil {
		if err := c.tr.ConnectPeers(dataAddrs, MeshTimeout); err != nil {
			return err
		}
		tr = c.tr
	}
	fx, err := iterative.OpenFixpointOn(c.Spec, c.Sol, c.Cfg, c.phys, tr)
	if err != nil {
		return err
	}
	c.Fx = fx
	return nil
}

// Lookup reads key k if this host owns its partition. Non-hosted
// partitions hold stale replicas, so they read as absent.
func (c *Core) Lookup(k int64) (record.Record, bool) {
	p := c.Sol.PartitionFor(k)
	if c.Place[p] != c.Cfg.Host {
		return record.Record{}, false
	}
	return c.Sol.Lookup(p, k)
}

// Each visits the hosted records in ascending partition order.
func (c *Core) Each(f func(record.Record)) {
	for _, p := range c.Place.HostedBy(c.Cfg.Host) {
		c.Sol.EachPartition(p, f)
	}
}

// Collect serializes the partitions host h owns, one frame per partition
// in ascending partition order, records sorted canonically within each —
// a worker's solution shard, or (on a recovering coordinator, whose set
// holds every partition) the shard a worker is re-seeded with.
func (c *Core) Collect(h int) []byte {
	var out []byte
	for _, p := range c.Place.HostedBy(h) {
		var b record.Batch
		c.Sol.EachPartition(p, func(r record.Record) {
			b = append(b, r)
		})
		// Within a partition the backend's iteration order is not
		// canonical; sort so repeated runs produce identical bytes.
		sort.Slice(b, func(x, y int) bool { return record.Less(b[x], b[y]) })
		out = record.AppendFrame(out, b)
	}
	return out
}

// Close tears the share down: fixpoint, transport, solution state
// (removing any spill files).
func (c *Core) Close() {
	if c.Fx != nil {
		c.Fx.Close()
		c.Fx = nil
	}
	if c.tr != nil {
		c.tr.Close()
	}
	c.Sol.Reset()
}
