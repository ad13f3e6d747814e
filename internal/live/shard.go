package live

import (
	"fmt"
	"slices"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/record"
	"repro/internal/runtime"
)

// ShardStat reports one host's share of a sharded view's resident
// solution set.
type ShardStat struct {
	// Host is the session host ID (0 is the serving process itself).
	Host int `json:"host"`
	// Records counts the records in the partitions this host owns. Bytes
	// is the host's whole resident solution footprint: every host keeps a
	// full replica set (hosted partitions exact, the rest stale), and the
	// backend accounts bytes for the set as a whole.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// wireIdentity maps a Maintainer to the (algorithm, source) pair a worker
// rebuilds it from. Only the built-in maintainers can cross the wire.
func wireIdentity(m Maintainer) (string, int64, error) {
	switch m.Name() {
	case "cc":
		return "cc", 0, nil
	case "sssp":
		src, ok := m.(interface{ Source() int64 })
		if !ok {
			return "", 0, fmt.Errorf("live: sssp maintainer %T has no source", m)
		}
		return "sssp", src.Source(), nil
	}
	return "", 0, fmt.Errorf("live: maintainer %q cannot shard (not wire-identifiable)", m.Name())
}

// session is the view's maintenance session: a distrib.Session whose
// host 0 is the coordinator's own shardCore (graph aliased to the view's),
// with one control connection per worker host 1..H-1 — none for an
// in-process view. Maintenance runs the coordinated flush protocol over
// the view verbs; reads route by partition placement. Every method is
// called under the view's maintenance lock except Lookup and Solution,
// which run under the shared read lock (the connections serialize their
// own exchanges).
type session struct {
	*distrib.Session
	v    *LiveView
	core *shardCore
}

// openSession builds the view's session over its graph: the local core,
// then the distrib session open — for a sharded view, every worker opens
// its share from the full graph dump, digest-checked, and the data plane
// meshes. A non-nil fill loads the recovered solution into host 0's set,
// and every worker receives its hosted partitions of it; otherwise the
// cold fixpoint runs across the mesh before the session is handed out.
func openSession(v *LiveView, fill func(*runtime.SolutionSet) error) (*session, error) {
	cfg := v.cfg.Config
	cfg.Hosts = 1 + len(v.cfg.Workers)
	cfg.Host = 0
	core, err := newShardCore(v.m, cfg, v.gs, fill)
	if err != nil {
		return nil, err
	}
	var open func(host int) distrib.Msg
	if len(v.cfg.Workers) > 0 {
		algo, src, err := wireIdentity(v.m)
		if err != nil {
			core.Close()
			return nil, err
		}
		spec := &distrib.ViewSpec{Algorithm: algo, Source: src, Exec: distrib.ExecOf(cfg)}
		graph := dumpGraph(v.gs)
		open = func(host int) distrib.Msg {
			msg := distrib.Msg{View: spec, Frames: graph}
			if fill != nil {
				msg.Sol = core.Collect(host)
			}
			return msg
		}
	}
	ds, err := distrib.Open(core.Core, v.cfg.Workers, open)
	if err != nil {
		return nil, fmt.Errorf("live: view %q: %w", v.name, err)
	}
	s := &session{Session: ds, v: v, core: core}
	if fill == nil {
		// The cold run is the view's build, not maintenance: it counts no
		// warm restart.
		if _, err := s.Drive(core.W0, nil); err != nil {
			s.Kill()
			return nil, err
		}
	}
	core.W0 = nil
	return s, nil
}

// checkDigest rejects a worker reply whose plan digest differs from the
// coordinator's (replica divergence).
func (s *session) checkDigest(reply distrib.Msg) error {
	if reply.Digest != s.core.Digest {
		return fmt.Errorf("plan digest %s, coordinator has %s", reply.Digest, s.core.Digest)
	}
	return nil
}

// runDriven drives the coordinator's resident fixpoint from the workset
// with every worker stepping in lockstep, and folds the run into the
// view's maintenance counters.
func (s *session) runDriven(workset []record.Record) error {
	res, err := s.Drive(workset, nil)
	if res != nil {
		v := s.v
		if m := v.cfg.Metrics; m != nil {
			m.WarmRestarts.Add(1)
			m.MaintenanceSupersteps.Add(int64(res.Supersteps))
		}
		v.stats.WarmRestarts++
		v.stats.Supersteps += int64(res.Supersteps)
	}
	return err
}

// Apply absorbs one acknowledged mutation batch: every host applies it to
// its replica and classifies it; a batch that deletes has its region
// sized across the hosts (one extra round-trip); then either every host
// runs the full recompute, or the candidate rounds — each host derives
// candidates (round 0: the region's seed plus the batch's inserts) from
// the labels it owns, the coordinator routes the remote-keyed ones to
// their owners, owners count how many still improve, and the meshed
// fixpoint absorbs them — repeating over the edge overlay until nothing
// improves anywhere.
func (s *session) Apply(batch []Mutation) error {
	v, c := s.v, s.core
	if len(s.Conns) > 0 {
		if err := s.Broadcast(distrib.Msg{Kind: viewApply, Frames: record.AppendFrame(nil, mutationsToRecords(batch))}); err != nil {
			return err
		}
	}
	full, labels, err := c.applyBatch(batch)
	if err != nil {
		return err
	}
	if err := s.Await(viewApplied, func(reply distrib.Msg) error {
		if reply.Full != full {
			return fmt.Errorf("classified the batch full=%v, coordinator full=%v (replica divergence)", reply.Full, full)
		}
		labels = append(labels, reply.Labels...)
		return nil
	}); err != nil {
		return err
	}
	if !full && len(labels) > 0 {
		slices.Sort(labels)
		labels = slices.Compact(labels)
		if err := s.Broadcast(distrib.Msg{Kind: viewRegion, Labels: labels}); err != nil {
			return err
		}
		n, hosted := c.region(labels)
		if err := s.Await(viewRegioned, func(reply distrib.Msg) error {
			n, hosted = n+reply.Count, hosted+reply.Hosted
			return nil
		}); err != nil {
			return err
		}
		switch {
		case float64(n) > v.cfg.RecomputeFraction*float64(hosted):
			full = true
		case n > 0:
			if m := v.cfg.Metrics; m != nil {
				m.PartialRecomputes.Add(1)
			}
			v.stats.PartialRecomputes++
		}
	}
	if full {
		return s.recompute()
	}
	return s.rounds()
}

// rounds drives the candidate rounds of one batch to quiescence.
func (s *session) rounds() error {
	c := s.core
	for round := 0; ; round++ {
		if err := s.Broadcast(distrib.Msg{Kind: viewGather, Round: round}); err != nil {
			return err
		}
		if round == 0 {
			rebound, err := c.absorb()
			if err != nil {
				return err
			}
			if rebound {
				s.v.stats.Rebinds++
			}
		}
		// Gather: every host keeps the candidates keyed to partitions it
		// owns; only remote-keyed ones travel, with Count telling the
		// coordinator how many a worker retained, so a globally empty
		// round is still detectable.
		own, remote := c.gather(round)
		total := len(own) + len(remote)
		if err := s.Await(viewCand, func(reply distrib.Msg) error {
			if err := s.checkDigest(reply); err != nil {
				return err
			}
			recs, err := record.DecodeFrames(reply.Frames)
			remote = append(remote, recs...)
			total += reply.Count + len(recs)
			return err
		}); err != nil {
			return err
		}
		if total == 0 {
			return nil
		}
		// Seed: each host merges its retained candidates with its routed
		// share, keeping those that improve; zero globally means the
		// solution is already a fixpoint over them.
		routed := c.route(remote)
		for i, conn := range s.Conns {
			if err := conn.Send(distrib.Msg{Kind: viewSeed, Frames: record.AppendFrame(nil, routed[i+1])}); err != nil {
				return fmt.Errorf("live: %s host %d: %w", viewSeed, i+1, err)
			}
		}
		workset := c.admit(own, routed[0])
		improving := len(workset)
		if err := s.Await(viewSeeded, func(reply distrib.Msg) error {
			improving += reply.Count
			return nil
		}); err != nil {
			return err
		}
		if improving == 0 {
			return nil
		}
		if err := s.runDriven(workset); err != nil {
			return err
		}
		if len(c.overlay) == 0 {
			return nil
		}
	}
}

// recompute is the last resort: every host re-plans over the current
// graph and resets its solution to S0, and the fixpoint re-runs from W0 —
// still inside the resident session, so even this path reuses the
// processes, the mesh, and the workers.
func (s *session) recompute() error {
	v := s.v
	if m := v.cfg.Metrics; m != nil {
		m.FullRecomputes.Add(1)
	}
	v.stats.FullRecomputes++
	v.stats.Rebinds++
	if v.cfg.AutoEngine {
		return s.autoRecompute()
	}
	if err := s.Broadcast(distrib.Msg{Kind: viewRecompute}); err != nil {
		return err
	}
	w0, err := s.core.recompute()
	if err != nil {
		return err
	}
	if err := s.Await(viewRecomputed, s.checkDigest); err != nil {
		return err
	}
	return s.runDriven(w0)
}

// autoRecompute is the AutoEngine full recompute (in-process views only;
// ViewConfig.Validate rejects AutoEngine with Workers): the fixpoint is
// recomputed through iterative.RunAuto — the cost model (calibrated from
// this view's measured supersteps) picks the engine and may switch to
// microsteps mid-run — and the converged result is installed into the
// resident session, which is re-bound to the new spec for subsequent
// maintenance.
func (s *session) autoRecompute() error {
	v, c := s.v, s.core
	spec, s0, w0 := v.m.Spec(v.gs)
	// The resident set is about to be overwritten anyway; dropping it
	// before the runner builds its own keeps peak solution memory at
	// ~1× instead of transiently doubling the admitted footprint. (On
	// error the view is left empty — the same state a failed non-auto
	// recompute leaves behind.)
	c.Sol.Reset()
	res, err := iterative.RunAuto(iterative.AutoSpec{Incremental: spec}, s0, w0, v.cfg.Config)
	if err != nil {
		return err
	}
	if err := c.rebind(spec); err != nil {
		return err
	}
	c.overlay, c.fresh, c.resets, c.seed = c.overlay[:0], c.fresh[:0], nil, nil
	c.Sol.Init(res.Solution)
	if res.Set != nil {
		// Drop the runner's scratch solution set (under a spill budget it
		// may hold disk-backed partitions).
		res.Set.Reset()
	}
	v.stats.EngineSwitches += int64(res.Switches)
	v.stats.Supersteps += int64(res.Supersteps)
	return nil
}

// Lookup routes the key to the host owning its partition. A failed
// worker exchange is an error, never a miss.
func (s *session) Lookup(k int64) (record.Record, bool, error) {
	host := s.core.Place[s.core.Sol.PartitionFor(k)]
	if host == 0 {
		r, ok := s.core.Lookup(k)
		return r, ok, nil
	}
	reply, err := s.Conns[host-1].Call(distrib.Msg{Kind: viewQuery, Key: k}, viewValue)
	if err != nil {
		return record.Record{}, false, fmt.Errorf("live: query host %d: %w", host, err)
	}
	if !reply.Found {
		return record.Record{}, false, nil
	}
	recs, err := record.DecodeFrames(reply.Frames)
	if err == nil && len(recs) != 1 {
		err = fmt.Errorf("live: query host %d answered %d records", host, len(recs))
	}
	if err != nil {
		return record.Record{}, false, err
	}
	return recs[0], true, nil
}

// EachSolution streams the coordinator's hosted partitions (everything,
// for an in-process view) in ascending partition order — the streaming
// snapshot writer's solution section.
func (s *session) EachSolution(f func(record.Record) error) error {
	var err error
	s.core.Each(func(r record.Record) {
		if err == nil {
			err = f(r)
		}
	})
	return err
}

// footprint reports the resident solution — records and bytes summed
// over every host, and the per-host split (nil for an in-process view) —
// in one view_stats round-trip per worker. A worker that fails to answer
// contributes zeros.
func (s *session) footprint() (records int, bytes int64, shards []ShardStat) {
	c := s.core
	shards = []ShardStat{{Host: 0, Records: c.hostedRecords(), Bytes: c.Sol.Bytes()}}
	for i, conn := range s.Conns {
		st := ShardStat{Host: i + 1}
		if reply, err := conn.Call(distrib.Msg{Kind: viewStats}, viewStatted); err == nil {
			st.Records, st.Bytes = reply.Count, reply.Bytes
		}
		shards = append(shards, st)
	}
	for _, st := range shards {
		records += st.Records
		bytes += st.Bytes
	}
	if len(s.Conns) == 0 {
		shards = nil
	}
	return records, bytes, shards
}
