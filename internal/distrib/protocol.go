// Package distrib runs incremental iterations as distributed sessions: N
// processes each host a contiguous partition range of the same physical
// plan, exchange traffic crosses process boundaries through the runtime's
// TCP transport, and a coordinator (always host 0) drives the superstep
// barrier.
//
// There is one session protocol, and two kinds of session ride it: a
// batch job (a JobSpec run to its fixpoint) and a live view's maintenance
// session (a ViewSpec the live tier keeps resident, see ViewHost). Both
// follow the same lifecycle on one control connection per worker:
//
//	open(spec, host id) → ready(data addr, plan digest)
//	start(all data addrs) → meshed
//	step(epoch) → step_done(count, epoch)     one per superstep
//	collect → solution(frames, spans)
//	close → closed
//
// Any request may instead be answered with error. The coordinator side is
// Session (open handshake, barrier, collect, close); the worker side is
// one session loop (serveSession) that answers the verbs above itself and
// hands every other verb to the hosted session: the batch job's plan-epoch
// swap, or the live tier's view verbs. Both sides stand on the same per-host
// Core. The control codec — JSON messages, one per line — lives in Conn
// alone; every superstep's records travel on the transport's compact
// framed codec instead, so control traffic stays rare and small.
//
// Determinism is the load-bearing wall: every process builds the
// session's spec and physical plan locally from the same spec (all
// generators are seeded, the optimizer is deterministic), and the
// coordinator verifies a digest of each worker's plan before any data
// flows. Identical plans mean identical dense node/edge IDs and identical
// superstep schedules, which is what lets the exchange layer route by
// (edge ID, partition) alone.
package distrib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/runtime"
)

// JobSpec is the complete, self-contained description of a distributed
// run. Everything a process needs — graph, algorithm, plan options — is
// derived deterministically from these values, so shipping the spec is
// equivalent to shipping the plan.
type JobSpec struct {
	// Algorithm: "cc" (CC via Match), "cc-cogroup" (CC via CoGroup), or
	// "sssp".
	Algorithm string `json:"algorithm"`
	// GraphKind: "uniform" or "pa" (preferential attachment).
	GraphKind string `json:"graph_kind"`
	// GraphN and GraphM are the vertex and edge counts; Seed feeds the
	// deterministic generator.
	GraphN int64  `json:"graph_n"`
	GraphM int64  `json:"graph_m"`
	Seed   uint64 `json:"seed"`
	// Source is the SSSP source vertex.
	Source int64 `json:"source,omitempty"`
	// MaxSupersteps bounds the run (0 = 10000).
	MaxSupersteps int `json:"max_supersteps,omitempty"`
	// Reoptimize lets the coordinator re-plan mid-run when the workset
	// collapses far below the planned estimate. Each re-plan is a
	// coordinated plan epoch: the coordinator decides at the superstep
	// barrier, broadcasts the new epoch with the global workset size and
	// its new plan digest, and every worker re-plans locally, swaps its
	// session, and acknowledges with its own digest before the next
	// superstep is released. Determinism does the heavy lifting again —
	// all processes re-plan from the same estimate, so the digests must
	// agree, and the exchange layer keeps routing by (edge ID, partition)
	// in the new plan's ID space.
	Reoptimize bool `json:"reoptimize,omitempty"`
	// Exec is the job's share of the execution settings; normalized sets
	// its TraceLabel to the Algorithm.
	Exec
}

func (js JobSpec) normalized() JobSpec {
	if js.Parallelism <= 0 {
		js.Parallelism = 2
	}
	if js.Hosts <= 0 {
		js.Hosts = 1
	}
	if js.MaxSupersteps <= 0 {
		js.MaxSupersteps = 10000
	}
	js.TraceLabel = js.Algorithm
	return js
}

// ViewSpec opens a live view's maintenance session on a worker: the wire
// identity of the view's maintainer and the execution settings. The
// graph replica rides the open message's Frames, and a recovered view's
// solution shard its Sol.
type ViewSpec struct {
	Algorithm string `json:"algorithm"`
	Source    int64  `json:"source,omitempty"`
	Exec      Exec   `json:"exec"`
}

// Exec is the execution half of a session spec: the settings every host
// must share to derive the same plan and placement. ExecOf and Config are
// the one translation between it and iterative.Config.
type Exec struct {
	// Parallelism is the plan's partition count; Hosts the process count.
	// Partitions map to hosts with runtime.ContiguousPlacement.
	Parallelism int `json:"parallelism"`
	Hosts       int `json:"hosts"`
	// BatchSize is the exchange batch size (0 = runtime default).
	BatchSize int `json:"batch_size,omitempty"`
	// Backend selects the solution-set index: "map", "compact", "spill",
	// or "" (compact).
	Backend              string `json:"backend,omitempty"`
	SolutionMemoryBudget int64  `json:"solution_memory_budget,omitempty"`
	Planner              int    `json:"planner,omitempty"`
	DisableFusion        bool   `json:"disable_fusion,omitempty"`
	// TraceID groups the session's telemetry spans across every process:
	// the coordinator mints it (obs.NewTraceID) when it runs with a
	// registry, ships it here with the session spec, and each process
	// stamps it on its spans and on every data-plane frame header (the
	// transport doubles it as a stale-peer check). Zero means untraced.
	TraceID    uint64 `json:"trace_id,omitempty"`
	TraceLabel string `json:"trace_label,omitempty"`
}

// ExecOf extracts the shared execution settings of a coordinator's
// config, for shipping to its workers.
func ExecOf(cfg iterative.Config) Exec {
	return Exec{
		Parallelism: cfg.Parallelism, Hosts: cfg.Hosts, BatchSize: cfg.BatchSize,
		Backend:              string(cfg.SolutionBackend),
		SolutionMemoryBudget: cfg.SolutionMemoryBudget,
		Planner:              int(cfg.Planner),
		DisableFusion:        cfg.DisableFusion,
		TraceID:              uint64(cfg.TraceID), TraceLabel: cfg.TraceLabel,
	}
}

// Config builds the iterative.Config host runs these settings with,
// counting into m. A non-nil registry turns telemetry on: spans are
// recorded under the trace ID with host's ID, and reg reports m.
func (e Exec) Config(host int, reg *obs.Registry, m *metrics.Counters) iterative.Config {
	cfg := iterative.Config{
		Parallelism:          e.Parallelism,
		BatchSize:            e.BatchSize,
		Hosts:                e.Hosts,
		Host:                 host,
		Metrics:              m,
		SolutionBackend:      runtime.SolutionBackendKind(e.Backend),
		SolutionMemoryBudget: e.SolutionMemoryBudget,
		Planner:              optimizer.PlannerKind(e.Planner),
		DisableFusion:        e.DisableFusion,
	}
	if reg != nil {
		cfg.Obs = reg
		cfg.TraceID = obs.TraceID(e.TraceID)
		cfg.TraceLabel = e.TraceLabel
		reg.SetCounters(m)
	}
	return cfg
}

// The session protocol's own message kinds, in lifecycle order. Hosted
// sessions add their verbs (kindEpoch here, the live tier's view verbs).
const (
	// kindOpen (coordinator → worker) carries a JobSpec or a ViewSpec and
	// the worker's host ID; the worker builds its Core and replies
	// kindReady with its data-plane address and plan digest.
	kindOpen  = "open"
	kindReady = "ready"
	// kindStart (coordinator → worker) distributes every host's data
	// address; the worker meshes its transport and replies kindMeshed.
	kindStart  = "start"
	kindMeshed = "meshed"
	// kindStep (coordinator → worker) releases one superstep; the worker
	// replies kindStepDone with its local next-workset count. Both carry
	// the current plan epoch: a mismatch means a process missed (or
	// imagined) a plan swap and is rejected at the barrier, before its
	// traffic can be routed under the wrong plan.
	kindStep     = "step"
	kindStepDone = "step_done"
	// kindEpoch (coordinator → worker, batch jobs) announces a coordinated
	// plan swap: Epoch is the new epoch number, Count the global workset
	// size to re-plan for, Digest the coordinator's new plan digest. The
	// worker re-plans, swaps its session, and replies kindEpochDone with
	// its own digest — which must match, or the run aborts.
	kindEpoch     = "epoch"
	kindEpochDone = "epoch_done"
	// kindCollect (coordinator → worker) requests the worker's hosted
	// solution partitions; the reply kindSolution carries them as
	// concatenated record frames, plus the session's spans when traced.
	kindCollect  = "collect"
	kindSolution = "solution"
	// kindClose (coordinator → worker) ends the session; the worker tears
	// it down, replies kindClosed, and waits for the next kindOpen on the
	// same connection.
	kindClose  = "close"
	kindClosed = "closed"
	// kindError (worker → coordinator) answers a request that failed.
	kindError = "error"
)

// Msg is the single wire shape of every control message, the session
// protocol's and the hosted sessions' alike; Kind selects which fields
// are meaningful.
type Msg struct {
	Kind string `json:"kind"`
	// Job or View opens a session; HostID is the worker's host.
	Job    *JobSpec  `json:"job,omitempty"`
	View   *ViewSpec `json:"view,omitempty"`
	HostID int       `json:"host_id,omitempty"`
	// DataAddr (ready) and DataAddrs (start) assemble the data-plane mesh.
	DataAddr  string   `json:"data_addr,omitempty"`
	DataAddrs []string `json:"data_addrs,omitempty"`
	// Digest is a plan digest (ready, epoch, and the view verbs that
	// re-plan); Epoch the plan epoch (step, step_done, epoch).
	Digest string `json:"digest,omitempty"`
	Epoch  int    `json:"epoch,omitempty"`
	Count  int    `json:"count,omitempty"`
	// The view verbs' fields (see the live tier's verb table).
	Hosted int     `json:"hosted,omitempty"`
	Labels []int64 `json:"labels,omitempty"`
	Round  int     `json:"round,omitempty"`
	Full   bool    `json:"full,omitempty"`
	Found  bool    `json:"found,omitempty"`
	Key    int64   `json:"key,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
	// Frames is a verb's record payload in record frames (a solution
	// shard, a graph dump, a mutation batch, candidates); Sol a recovered
	// view's solution shard.
	Frames []byte `json:"frames,omitempty"`
	Sol    []byte `json:"sol,omitempty"`
	// Spans rides kindSolution: the worker's telemetry spans for the
	// session's trace ID, so the coordinator reassembles one
	// cross-process timeline (host IDs keep the origins apart).
	Spans []obs.Span `json:"spans,omitempty"`
	Err   string     `json:"err,omitempty"`
}

// PlanDigest fingerprints the structure the exchange layer routes by:
// dense node and edge identities, roles, strategies, shipping and cache
// flags. Two processes whose digests agree will compute identical
// superstep schedules and route every frame to the partition the sender
// meant.
func PlanDigest(p *optimizer.PhysPlan) string {
	h := sha256.New()
	fmt.Fprintf(h, "par=%d hosts=%d nodes=%d edges=%d\n",
		p.Parallelism, p.Hosts, len(p.Nodes), p.NumEdges)
	for _, n := range p.Nodes {
		logID := -1
		if n.Logical != nil {
			logID = n.Logical.ID
		}
		fmt.Fprintf(h, "n%d role=%d local=%d logical=%d\n", n.ID, n.Role, n.Local, logID)
		for _, e := range n.Inputs {
			fmt.Fprintf(h, " e%d from=%d ship=%d cache=%t\n", e.ID, e.From.ID, e.Ship, e.Cache)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
