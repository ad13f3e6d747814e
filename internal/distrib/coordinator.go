package distrib

import (
	"errors"
	"fmt"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/record"
)

// Result is the outcome of a distributed run, as seen by the coordinator.
type Result struct {
	// Solution is the converged solution set assembled from every
	// process's hosted partitions, in canonical (record.Less) order —
	// the byte-comparable form the differential harness checks.
	Solution []record.Record
	// Supersteps is the number of barrier rounds to the fixpoint.
	Supersteps int
	// PlanEpochs is how many coordinated mid-run re-optimizations the run
	// applied (JobSpec.Reoptimize only).
	PlanEpochs int
	// Work is the coordinator process's counter snapshot (remote batches
	// and bytes measure only host 0's share of the shuffle).
	Work metrics.Snapshot
	// Spans is the run's reassembled cross-process trace (RunObs with a
	// registry only): the coordinator's own spans plus every worker's,
	// all under one trace ID, distinguishable by Span.Host.
	Spans []obs.Span
}

// Run executes js as a distributed session: this process is host 0 (the
// coordinator, hosting the first partition range) and each workerAddrs
// entry is the control address of one already-listening worker process
// (hosts 1..N). js.Hosts is overridden to 1+len(workerAddrs).
//
// The coordinator builds the same deterministic job state as every
// worker, opens the session (digest check, data-plane mesh), and then
// drives the superstep barrier: each round it releases every process
// (itself included), gathers the local next-workset counts, and stops at
// the first globally empty workset — local emptiness means nothing, a
// process's workset can refill entirely from its peers' shipped records.
func Run(js JobSpec, workerAddrs []string) (*Result, error) {
	return RunObs(js, workerAddrs, nil)
}

// RunObs is Run with telemetry: when reg is non-nil the coordinator mints
// a trace ID (unless the spec carries one), ships it to every worker with
// the job, records its own superstep/operator/ship/barrier spans and a
// distrib_step_rtt histogram sample per barrier round, and merges the
// spans each worker returns at collect time — so reg's ring ends up
// holding the whole run's timeline, and Result.Spans returns it.
func RunObs(js JobSpec, workerAddrs []string, reg *obs.Registry) (*Result, error) {
	js = js.normalized()
	js.Hosts = 1 + len(workerAddrs)
	if reg != nil && js.TraceID == 0 {
		js.TraceID = uint64(obs.NewTraceID())
	}
	j, err := openJob(js, 0, reg)
	if err != nil {
		return nil, err
	}
	s, err := Open(j.Core, workerAddrs, func(int) Msg { return Msg{Job: &js} })
	if err != nil {
		return nil, err
	}
	res, err := drive(s, js)
	if err != nil {
		s.Kill()
		return nil, err
	}
	return res, s.Close()
}

// drive runs the opened job to its fixpoint through the shared superstep
// driver — the same loop that runs the single-process engines, with the
// workers plugged in as the barrier and, when js.Reoptimize is set, the
// epoch hook coordinating mid-run plan swaps — and assembles the result.
func drive(s *Session, js JobSpec) (*Result, error) {
	ir, err := s.Drive(s.Core.W0, s.epochBump)
	if err != nil {
		if errors.Is(err, iterative.ErrNoProgress) {
			return nil, fmt.Errorf("distrib: no fixpoint after %d supersteps", js.MaxSupersteps)
		}
		return nil, err
	}
	sol, err := s.Solution()
	if err != nil {
		return nil, err
	}
	res := &Result{Solution: sol, Supersteps: ir.Supersteps, PlanEpochs: ir.PlanEpochs,
		Work: s.Core.Cfg.Metrics.Snapshot()}
	if reg := s.Core.Cfg.Obs; reg != nil {
		res.Spans = reg.Trace().SpansFor(obs.TraceID(js.TraceID))
	}
	return res, nil
}

// epochBump is the driver's OnEpoch hook: the coordinator's driver decided
// to re-plan at the barrier, and phys is the plan it is about to swap to.
// Broadcast the epoch with the global workset estimate, wait for every
// worker to re-plan and swap, and verify their digests against ours —
// only then does the driver swap the coordinator's own session, so a
// worker that fails the swap aborts the run before any process executes
// under a mixed-plan mesh.
func (s *Session) epochBump(epoch int, est int64, phys *optimizer.PhysPlan) error {
	digest := PlanDigest(phys)
	if err := s.Broadcast(Msg{Kind: kindEpoch, Epoch: epoch, Count: int(est), Digest: digest}); err != nil {
		return err
	}
	if err := s.Await(kindEpochDone, func(done Msg) error {
		if done.Digest != digest {
			return fmt.Errorf("plan epoch %d: worker re-planned a different dataflow (digest %.12s, coordinator %.12s)",
				epoch, done.Digest, digest)
		}
		return nil
	}); err != nil {
		return err
	}
	s.Core.Digest, s.Core.epoch = digest, epoch
	return nil
}
