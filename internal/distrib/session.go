package distrib

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// Session is the coordinator's side of a distributed session: host 0's
// Core plus one control connection per worker host. A batch run and a
// sharded live view drive their workers through the same Session; with no
// workers it is the one-host case (no connections, in-process exchanges).
type Session struct {
	Core *Core
	// Conns[i] is host i+1's control connection.
	Conns []*Conn

	bar barrier
	rtt *obs.Histogram
}

// Open opens a session over core (host 0) and one worker per address:
// dial (with bounded backoff — a worker may still be starting), open its
// share with the message open returns for its host ID, check the plan
// digest it reports ready with against core's, then mesh the data plane —
// workers first (host 0 is already listening, and higher hosts dial lower
// ones), core last. On failure everything opened so far, core included,
// is torn down.
func Open(core *Core, workers []string, open func(host int) Msg) (*Session, error) {
	s := newSession(core, len(workers))
	for _, addr := range workers {
		nc, err := DialWorker(addr, MeshTimeout)
		if err != nil {
			s.Kill()
			return nil, err
		}
		s.Conns = append(s.Conns, newConn(nc))
	}
	if err := s.handshake(open); err != nil {
		s.Kill()
		return nil, err
	}
	return s, nil
}

func newSession(core *Core, workers int) *Session {
	s := &Session{Core: core, Conns: make([]*Conn, 0, workers)}
	s.bar.s = s
	if reg := core.Cfg.Obs; reg != nil && workers > 0 {
		s.rtt = reg.Histogram("distrib_step_rtt")
	}
	return s
}

// handshake opens every connected worker's share and meshes the session.
func (s *Session) handshake(open func(host int) Msg) error {
	dataAddrs := make([]string, 1+len(s.Conns))
	dataAddrs[0] = s.Core.dataAddr
	for i, c := range s.Conns {
		msg := open(i + 1)
		msg.Kind, msg.HostID = kindOpen, i+1
		ready, err := c.Call(msg, kindReady)
		if err != nil {
			return fmt.Errorf("distrib: open host %d: %w", i+1, err)
		}
		if ready.Digest != s.Core.Digest {
			return fmt.Errorf("distrib: host %d planned a different dataflow (digest %.12s, coordinator %.12s) — mixed binaries?",
				i+1, ready.Digest, s.Core.Digest)
		}
		dataAddrs[i+1] = ready.DataAddr
	}
	if err := s.Broadcast(Msg{Kind: kindStart, DataAddrs: dataAddrs}); err != nil {
		return err
	}
	if err := s.Core.Mesh(dataAddrs); err != nil {
		return err
	}
	return s.Await(kindMeshed, nil)
}

// Broadcast sends msg to every worker without awaiting replies.
func (s *Session) Broadcast(msg Msg) error {
	for i, c := range s.Conns {
		if err := c.Send(msg); err != nil {
			return fmt.Errorf("distrib: %s host %d: %w", msg.Kind, i+1, err)
		}
	}
	return nil
}

// Await receives one reply of kind from every worker, in host order,
// handing each to f (a nil f discards them).
func (s *Session) Await(kind string, f func(Msg) error) error {
	for i, c := range s.Conns {
		reply, err := c.Recv(kind)
		if err == nil && f != nil {
			err = f(reply)
		}
		if err != nil {
			return fmt.Errorf("distrib: %s host %d: %w", kind, i+1, err)
		}
	}
	return nil
}

// Drive runs the core's resident fixpoint from workset to the global
// fixpoint through the shared superstep driver, every worker stepping in
// lockstep through the session barrier. onEpoch, when non-nil, is the
// driver's plan-epoch hook.
func (s *Session) Drive(workset []record.Record,
	onEpoch func(epoch int, est int64, phys *optimizer.PhysPlan) error) (*iterative.IncrementalResult, error) {
	hooks := iterative.DriveHooks{OnEpoch: onEpoch}
	if len(s.Conns) > 0 {
		hooks.Barrier = &s.bar
	}
	return s.Core.Fx.RunDriven(workset, hooks)
}

// barrier plugs the workers into the shared superstep driver. Release
// fans the step out to every worker before the coordinator computes its
// own share — the exchanges require all processes in the round
// concurrently, since every process's consumers wait on every process's
// producers. Collect gathers the workers' local next-workset counts into
// the global one the driver converges on, rejecting any worker whose plan
// epoch disagrees, and — traced — records the wait as a barrier span.
type barrier struct {
	s       *Session
	release time.Time
}

func (b *barrier) Release(step int) error {
	b.release = time.Now()
	return b.s.Broadcast(Msg{Kind: kindStep, Epoch: b.s.Core.epoch})
}

func (b *barrier) Collect(step, localNext int) (int, error) {
	wait := time.Now()
	core := b.s.Core
	total := localNext
	err := b.s.Await(kindStepDone, func(done Msg) error {
		if done.Epoch != core.epoch {
			return fmt.Errorf("superstep %d: worker at plan epoch %d, coordinator at %d — rejected at the barrier",
				step, done.Epoch, core.epoch)
		}
		total += done.Count
		return nil
	})
	if err != nil {
		return 0, err
	}
	if b.s.rtt != nil {
		now := time.Now()
		core.Cfg.Obs.Trace().RecordSpan(obs.Span{
			Trace: core.Cfg.TraceID, Host: int32(core.Cfg.Host), Part: -1, Step: int32(step),
			Phase: obs.PhaseBarrier, Start: wait.UnixNano(), Dur: int64(now.Sub(wait)),
			Label: core.Cfg.TraceLabel,
		})
		// Release-to-all-done round trip: the barrier as the coordinator
		// experiences it, including every peer's compute.
		b.s.rtt.Observe(now.Sub(b.release))
	}
	return total, nil
}

// Shards collects every worker's hosted partitions as canonical record
// frames, host h at index h-1. The spans a traced worker ships with its
// shard are folded into the core's registry, so after the last worker it
// holds the whole session's timeline.
func (s *Session) Shards() ([][]byte, error) {
	out := make([][]byte, len(s.Conns))
	for i, c := range s.Conns {
		reply, err := c.Call(Msg{Kind: kindCollect}, kindSolution)
		if err != nil {
			return nil, fmt.Errorf("distrib: collect host %d: %w", i+1, err)
		}
		if reg := s.Core.Cfg.Obs; reg != nil {
			for _, sp := range reply.Spans {
				reg.Trace().RecordSpan(sp)
			}
		}
		out[i] = reply.Frames
	}
	return out, nil
}

// Solution assembles the converged solution from every host — the core's
// hosted partitions plus each worker's shard — in canonical (record.Less)
// order, so the result is byte-comparable regardless of partition or
// backend iteration order.
func (s *Session) Solution() ([]record.Record, error) {
	var out []record.Record
	s.Core.Each(func(r record.Record) { out = append(out, r) })
	shards, err := s.Shards()
	if err != nil {
		return nil, err
	}
	for i, frames := range shards {
		recs, err := record.DecodeFrames(frames)
		if err != nil {
			return nil, fmt.Errorf("distrib: host %d solution: %w", i+1, err)
		}
		out = append(out, recs...)
	}
	sort.Slice(out, func(x, y int) bool { return record.Less(out[x], out[y]) })
	return out, nil
}

// Close ends every worker's share gracefully — workers survive it, their
// connections ready for the next session — then tears down the core.
func (s *Session) Close() error {
	var err error
	for i, c := range s.Conns {
		if _, cerr := c.Call(Msg{Kind: kindClose}, kindClosed); cerr != nil && err == nil {
			err = fmt.Errorf("distrib: close host %d: %w", i+1, cerr)
		}
	}
	s.Kill()
	return err
}

// Kill abandons the session crash-style: connections drop without a close
// handshake, so workers see the error path a dead coordinator causes (and
// stay accepting), and the core is torn down.
func (s *Session) Kill() {
	for _, c := range s.Conns {
		c.Close()
	}
	s.Core.Close()
}
