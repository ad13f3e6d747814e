package live

import (
	"fmt"

	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/runtime"
)

// WorkerHost hosts sharded views' maintenance sessions inside a `spinflow
// worker` process: it implements distrib.ViewHost, so the worker's
// session loop opens a view's share through it and hands the shardCore
// every view verb. The loop itself answers the rest of the session
// (mesh, steps, collect, close).
type WorkerHost struct {
	reg *obs.Registry
}

// NewWorkerHost builds a view host reporting into the worker's telemetry
// registry (nil disables telemetry).
func NewWorkerHost(reg *obs.Registry) *WorkerHost { return &WorkerHost{reg: reg} }

// OpenView builds this host's share of a view's session from its open
// message: maintainer, graph replica, recovered shard, and the listening
// core.
func (h *WorkerHost) OpenView(open distrib.Msg) (distrib.Hosted, error) {
	vs := open.View
	m, err := maintainerFor(vs.Algorithm, vs.Source)
	if err != nil {
		return nil, err
	}
	gs, err := loadGraph(open.Frames)
	if err != nil {
		return nil, err
	}
	var fill func(*runtime.SolutionSet) error
	if open.Sol != nil {
		fill = func(sol *runtime.SolutionSet) error {
			recs, err := record.DecodeFrames(open.Sol)
			sol.Init(recs)
			return err
		}
	}
	return newShardCore(m, vs.Exec.Config(open.HostID, h.reg, &metrics.Counters{}), gs, fill)
}

// Handle answers one view verb on a worker.
func (c *shardCore) Handle(req distrib.Msg) (distrib.Msg, error) {
	switch req.Kind {
	case viewApply:
		recs, err := record.DecodeFrames(req.Frames)
		if err != nil {
			return distrib.Msg{}, err
		}
		muts, err := recordsToMutations(recs)
		if err != nil {
			return distrib.Msg{}, err
		}
		full, labels, err := c.applyBatch(muts)
		return distrib.Msg{Kind: viewApplied, Full: full, Labels: labels}, err
	case viewRegion:
		n, hosted := c.region(req.Labels)
		return distrib.Msg{Kind: viewRegioned, Count: n, Hosted: hosted}, nil
	case viewRecompute:
		w0, err := c.recompute()
		if err != nil {
			return distrib.Msg{}, err
		}
		c.Fx.SeedWorkset(w0)
		return distrib.Msg{Kind: viewRecomputed, Digest: c.Digest}, nil
	case viewGather:
		// Own-keyed candidates stay here (buffered for the seed verb);
		// only remote-keyed ones travel, with Count telling the
		// coordinator how many were retained so it can detect a globally
		// empty round.
		if req.Round == 0 {
			if _, err := c.absorb(); err != nil {
				return distrib.Msg{}, err
			}
		}
		own, remote := c.gather(req.Round)
		c.pending = own
		return distrib.Msg{Kind: viewCand, Frames: record.AppendFrame(nil, remote), Count: len(own), Digest: c.Digest}, nil
	case viewSeed:
		recs, err := record.DecodeFrames(req.Frames)
		if err != nil {
			return distrib.Msg{}, err
		}
		ws := c.admit(c.pending, recs)
		c.pending = nil
		c.Fx.SeedWorkset(ws)
		return distrib.Msg{Kind: viewSeeded, Count: len(ws)}, nil
	case viewQuery:
		reply := distrib.Msg{Kind: viewValue}
		if r, ok := c.Lookup(req.Key); ok {
			reply.Found = true
			reply.Frames = record.AppendFrame(nil, record.Batch{r})
		}
		return reply, nil
	case viewStats:
		return distrib.Msg{Kind: viewStatted, Count: c.hostedRecords(), Bytes: c.Sol.Bytes()}, nil
	}
	return distrib.Msg{}, fmt.Errorf("live: unexpected view message %q", req.Kind)
}
