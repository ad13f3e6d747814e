package live

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"

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

// shardConn is one coordinator→worker control connection. Its own lock
// serializes request/response exchanges: concurrent Query calls (shared
// view lock) multiplex safely over the single connection.
type shardConn struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// call performs one locked request/response exchange, surfacing a
// view_error reply as an error.
func (c *shardConn) call(msg shardMsg, wantKind string) (shardMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(msg); err != nil {
		return shardMsg{}, err
	}
	return c.read(wantKind)
}

// send fires a request without awaiting the reply (broadcasts); the
// matching recv must follow under the same external ordering.
func (c *shardConn) send(msg shardMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc.Encode(msg)
}

// recv awaits one reply of the given kind.
func (c *shardConn) recv(wantKind string) (shardMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read(wantKind)
}

// read decodes one reply; the caller holds c.mu.
func (c *shardConn) read(wantKind string) (shardMsg, error) {
	var reply shardMsg
	if err := c.dec.Decode(&reply); err != nil {
		return shardMsg{}, err
	}
	if reply.Kind == viewError {
		return shardMsg{}, fmt.Errorf("live: worker: %s", reply.Err)
	}
	if reply.Kind != wantKind {
		return shardMsg{}, fmt.Errorf("live: worker sent %q, want %q", reply.Kind, wantKind)
	}
	return reply, nil
}

func (c *shardConn) close() { c.conn.Close() }

// session is the view's maintenance session: the coordinator's own
// shardCore (host 0, graph aliased to the view's) plus one control
// connection per worker host 1..H-1 — none for an in-process view.
// Maintenance runs the coordinated flush protocol; reads route by
// partition placement. Every method is called under the view's
// maintenance lock except Lookup and Snapshot, which run under the shared
// read lock (the connections serialize their own exchanges).
type session struct {
	v     *LiveView
	core  *shardCore
	conns []*shardConn // conns[i] is host i+1
}

// openSession builds the view's session over its graph: the local core,
// then — for a sharded view — worker dials (bounded-backoff: workers may
// still be starting), remote session opens with the full graph dump,
// digest cross-check, and the data-plane mesh. A non-nil fill loads the
// recovered solution into host 0's set, and every worker receives its
// hosted partitions of it; otherwise the cold fixpoint runs across the
// mesh before the session is handed out.
func openSession(v *LiveView, fill func(*runtime.SolutionSet) error) (*session, error) {
	hosts := 1 + len(v.cfg.Workers)
	cfg := v.cfg.Config
	cfg.Hosts = hosts
	cfg.Host = 0
	core, err := newShardCore(v.m, cfg, 0, v.gs, fill)
	if err != nil {
		return nil, err
	}
	s := &session{v: v, core: core, conns: make([]*shardConn, len(v.cfg.Workers))}
	ok := false
	defer func() {
		if !ok {
			s.teardown()
		}
	}()
	dataAddrs := make([]string, hosts)
	dataAddrs[0] = core.dataAddr
	if len(v.cfg.Workers) > 0 {
		if err := s.openWorkers(dataAddrs, fill != nil); err != nil {
			return nil, err
		}
	}
	// Workers mesh first (host 0 is already listening; higher hosts dial
	// lower ones), then the coordinator connects and the cold workset is
	// driven through the barrier.
	if err := s.broadcast(shardMsg{Kind: viewStart, DataAddrs: dataAddrs}); err != nil {
		return nil, err
	}
	if err := core.mesh(dataAddrs, false); err != nil {
		return nil, err
	}
	if err := s.await(viewMeshed, nil); err != nil {
		return nil, err
	}
	if fill == nil {
		// The cold run is the view's build, not maintenance: it counts no
		// warm restart.
		if _, err := core.fx.RunDriven(core.w0, iterative.DriveHooks{Barrier: shardBarrier{s: s}}); err != nil {
			return nil, err
		}
	}
	core.w0 = nil
	ok = true
	return s, nil
}

// openWorkers dials every worker and opens its share of the session,
// recording each worker's data address.
func (s *session) openWorkers(dataAddrs []string, recovered bool) error {
	v, core := s.v, s.core
	algo, src, err := wireIdentity(v.m)
	if err != nil {
		return err
	}
	cfg := core.cfg
	spec := &shardSpec{
		Name: v.name, Algorithm: algo, Source: src,
		Parallelism: cfg.Parallelism, Hosts: cfg.Hosts, BatchSize: cfg.BatchSize,
		Backend:              string(cfg.SolutionBackend),
		SolutionMemoryBudget: cfg.SolutionMemoryBudget,
		Planner:              int(cfg.Planner),
		DisableFusion:        cfg.DisableFusion,
		WireCompression:      cfg.WireCompression,
		TraceID:              uint64(cfg.TraceID), TraceLabel: cfg.TraceLabel,
	}
	graph := dumpGraph(v.gs)
	for i, waddr := range v.cfg.Workers {
		conn, err := distrib.DialWorker(waddr, distrib.MeshTimeout)
		if err != nil {
			return fmt.Errorf("live: view %q worker %s: %w", v.name, waddr, err)
		}
		s.conns[i] = &shardConn{conn: conn, dec: json.NewDecoder(conn), enc: json.NewEncoder(conn)}
		open := shardMsg{Kind: viewOpen, Spec: spec, HostID: i + 1, Frames: graph}
		if recovered {
			open.Sol = core.collect(i + 1)
		}
		ready, err := s.conns[i].call(open, viewReady)
		if err != nil {
			return fmt.Errorf("live: view %q open on %s: %w", v.name, waddr, err)
		}
		if ready.Digest != core.digest {
			return fmt.Errorf("live: view %q host %d planned digest %s, coordinator has %s",
				v.name, i+1, ready.Digest, core.digest)
		}
		dataAddrs[i+1] = ready.DataAddr
	}
	return nil
}

// broadcast sends msg to every worker host without awaiting replies.
func (s *session) broadcast(msg shardMsg) error {
	for i, c := range s.conns {
		if err := c.send(msg); err != nil {
			return fmt.Errorf("live: %s host %d: %w", msg.Kind, i+1, err)
		}
	}
	return nil
}

// await receives one reply of kind from every worker host, in host
// order, handing each to f (nil f discards them).
func (s *session) await(kind string, f func(shardMsg) error) error {
	for i, c := range s.conns {
		reply, err := c.recv(kind)
		if err == nil && f != nil {
			err = f(reply)
		}
		if err != nil {
			return fmt.Errorf("live: %s host %d: %w", kind, i+1, err)
		}
	}
	return nil
}

// checkDigest rejects a worker reply whose plan digest differs from the
// coordinator's (replica divergence).
func (s *session) checkDigest(reply shardMsg) error {
	if reply.Digest != s.core.digest {
		return fmt.Errorf("plan digest %s, coordinator has %s", reply.Digest, s.core.digest)
	}
	return nil
}

// shardBarrier globalizes superstep convergence across the session's
// hosts: release fans view_step out, collect sums every host's
// next-workset count. Over zero connections it reduces to the local
// count. The coordinator's RunDriven drives it.
type shardBarrier struct{ s *session }

func (b shardBarrier) Release(step int) error {
	return b.s.broadcast(shardMsg{Kind: viewStep})
}

func (b shardBarrier) Collect(step, localNext int) (int, error) {
	total := localNext
	err := b.s.await(viewStepDone, func(reply shardMsg) error {
		total += reply.Count
		return nil
	})
	return total, err
}

// runDriven drives the coordinator's resident fixpoint from the workset
// with every worker stepping in lockstep, and folds the run into the
// view's maintenance counters.
func (s *session) runDriven(workset []record.Record) error {
	res, err := s.core.fx.RunDriven(workset, iterative.DriveHooks{Barrier: shardBarrier{s: s}})
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
	if len(s.conns) > 0 {
		if err := s.broadcast(shardMsg{Kind: viewApply, Frames: packRecords(mutationsToRecords(batch))}); err != nil {
			return err
		}
	}
	full, labels, err := c.applyBatch(batch)
	if err != nil {
		return err
	}
	if err := s.await(viewApplied, func(reply shardMsg) error {
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
		if err := s.broadcast(shardMsg{Kind: viewRegion, Labels: labels}); err != nil {
			return err
		}
		n, hosted := c.region(labels)
		if err := s.await(viewRegioned, func(reply shardMsg) error {
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
		if err := s.broadcast(shardMsg{Kind: viewGather, Round: round}); err != nil {
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
		if err := s.await(viewCand, func(reply shardMsg) error {
			if err := s.checkDigest(reply); err != nil {
				return err
			}
			recs, err := unpackRecords(reply.Frames)
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
		for i, conn := range s.conns {
			if err := conn.send(shardMsg{Kind: viewSeed, Frames: packRecords(routed[i+1])}); err != nil {
				return fmt.Errorf("live: %s host %d: %w", viewSeed, i+1, err)
			}
		}
		workset := c.admit(own, routed[0])
		improving := len(workset)
		if err := s.await(viewSeeded, func(reply shardMsg) error {
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
	if err := s.broadcast(shardMsg{Kind: viewRecompute}); err != nil {
		return err
	}
	w0, err := s.core.recompute()
	if err != nil {
		return err
	}
	if err := s.await(viewRecomputed, s.checkDigest); err != nil {
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
	c.sol.Reset()
	res, err := iterative.RunAuto(iterative.AutoSpec{Incremental: spec}, s0, w0, v.cfg.Config)
	if err != nil {
		return err
	}
	if err := c.rebind(spec); err != nil {
		return err
	}
	c.overlay, c.fresh, c.resets, c.seed = c.overlay[:0], c.fresh[:0], nil, nil
	c.sol.Init(res.Solution)
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
	host := s.core.place[s.core.sol.PartitionFor(k)]
	if host == 0 {
		r, ok := s.core.Lookup(k)
		return r, ok, nil
	}
	reply, err := s.conns[host-1].call(shardMsg{Kind: viewQuery, Key: k}, viewValue)
	if err != nil {
		return record.Record{}, false, fmt.Errorf("live: query host %d: %w", host, err)
	}
	if !reply.Found {
		return record.Record{}, false, nil
	}
	recs, err := unpackRecords(reply.Frames)
	if err == nil && len(recs) != 1 {
		err = fmt.Errorf("live: query host %d answered %d records", host, len(recs))
	}
	if err != nil {
		return record.Record{}, false, err
	}
	return recs[0], true, nil
}

// Snapshot scatter-gathers the converged solution: the coordinator's
// hosted partitions plus every worker's, merged and canonically sorted.
// Worker spans travel back with the shards on traced views, so the
// cross-process maintenance timeline assembles in one ring.
func (s *session) Snapshot() ([]record.Record, error) {
	out := make([]record.Record, 0, s.core.hostedRecords())
	s.core.Each(func(r record.Record) { out = append(out, r) })
	shards, err := s.RemoteShards()
	if err != nil {
		return nil, err
	}
	for _, frames := range shards {
		recs, err := framesToRecords(frames)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out, nil
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

// RemoteShards collects each worker's hosted partitions as concatenated
// record frames, host h at index h-1 — the payload of the per-host
// snapshot shard files (none for an in-process view).
func (s *session) RemoteShards() ([][]byte, error) {
	out := make([][]byte, len(s.conns))
	for i, c := range s.conns {
		reply, err := c.call(shardMsg{Kind: viewCollect}, viewSolution)
		if err != nil {
			return nil, fmt.Errorf("live: collect host %d: %w", i+1, err)
		}
		s.foldSpans(reply)
		out[i] = reply.Frames
	}
	return out, nil
}

// foldSpans records worker-shipped spans into the view's ring.
func (s *session) foldSpans(reply shardMsg) {
	if s.v.ring == nil {
		return
	}
	for _, sp := range reply.Spans {
		s.v.ring.RecordSpan(sp)
	}
}

// footprint reports the resident solution — records and bytes summed
// over every host, and the per-host split (nil for an in-process view) —
// in one view_stats round-trip per worker. A worker that fails to answer
// contributes zeros.
func (s *session) footprint() (records int, bytes int64, shards []ShardStat) {
	c := s.core
	shards = []ShardStat{{Host: 0, Records: c.hostedRecords(), Bytes: c.sol.Bytes()}}
	for i, conn := range s.conns {
		st := ShardStat{Host: i + 1}
		if reply, err := conn.call(shardMsg{Kind: viewStats}, viewStatted); err == nil {
			st.Records, st.Bytes = reply.Count, reply.Bytes
		}
		shards = append(shards, st)
	}
	for _, st := range shards {
		records += st.Records
		bytes += st.Bytes
	}
	if len(s.conns) == 0 {
		shards = nil
	}
	return records, bytes, shards
}

// Close ends every remote session gracefully, then tears down the local
// core. Workers survive a close — the control connection returns to the
// distrib loop for the next session.
func (s *session) Close() error {
	var err error
	for i, c := range s.conns {
		if _, cerr := c.call(shardMsg{Kind: viewClose}, viewClosed); cerr != nil && err == nil {
			err = fmt.Errorf("live: close host %d: %w", i+1, cerr)
		}
	}
	s.teardown()
	return err
}

// Kill abandons the session crash-style: connections drop without a
// close handshake, so workers see the error path a dead coordinator
// causes — and stay accepting (the recovery tests rely on it).
func (s *session) Kill() { s.teardown() }

func (s *session) teardown() {
	for _, c := range s.conns {
		if c != nil {
			c.close()
		}
	}
	s.core.close()
}
