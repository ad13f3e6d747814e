package distrib

import (
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
)

// buildGraph derives the job's graph. The generators are fully seeded, so
// every process reconstructs the identical edge list.
func buildGraph(js JobSpec) (*graphgen.Graph, error) {
	switch js.GraphKind {
	case "", "uniform":
		return graphgen.Uniform("distrib-uniform", js.GraphN, js.GraphM, js.Seed), nil
	case "pa":
		m := int(js.GraphM / max(1, js.GraphN))
		if m < 1 {
			m = 1
		}
		return graphgen.PreferentialAttachment("distrib-pa", js.GraphN, m, js.Seed), nil
	}
	return nil, fmt.Errorf("distrib: unknown graph kind %q", js.GraphKind)
}

// distWeight is the deterministic SSSP edge weight: a small integer
// derived from the endpoints, exact in float64, so path sums — and
// therefore the converged solution bytes — are identical on every process
// and every run.
func distWeight(src, dst int64) float64 {
	return float64(1 + (src*7+dst*13)%4)
}

// buildSpec derives the job's incremental spec, initial solution, and
// initial workset from the JobSpec.
func buildSpec(js JobSpec) (iterative.IncrementalSpec, []record.Record, []record.Record, error) {
	var (
		spec   iterative.IncrementalSpec
		s0, w0 []record.Record
	)
	g, err := buildGraph(js)
	if err != nil {
		return spec, nil, nil, err
	}
	switch js.Algorithm {
	case "cc":
		spec, s0, w0 = algorithms.CCIncrementalSpec(g, algorithms.CCMatch)
	case "cc-cogroup":
		spec, s0, w0 = algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
	case "sssp":
		und := g.Undirected()
		edges := make([]algorithms.WeightedEdge, len(und.Edges))
		for i, e := range und.Edges {
			edges[i] = algorithms.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: distWeight(e.Src, e.Dst)}
		}
		spec, s0, w0 = algorithms.SSSPSpec(edges, js.Source)
	default:
		return spec, nil, nil, fmt.Errorf("distrib: unknown algorithm %q", js.Algorithm)
	}
	// The same bounds and re-planning policy on every process — and on
	// the single-process oracle, which runs the identical spec.
	spec.MaxSupersteps = js.MaxSupersteps
	spec.Reoptimize = js.Reoptimize
	return spec, s0, w0, nil
}

// job is one process's share of a batch run: a Core over the JobSpec's
// deterministic spec. Its one verb beyond the session loop's is the
// plan-epoch swap.
type job struct {
	*Core
}

// openJob builds host's share of the job, counting into fresh counters.
func openJob(js JobSpec, host int, reg *obs.Registry) (*job, error) {
	js = js.normalized()
	spec, s0, w0, err := buildSpec(js)
	if err != nil {
		return nil, err
	}
	core, err := NewCore(spec, s0, w0, js.Config(host, reg, &metrics.Counters{}), nil)
	if err != nil {
		return nil, err
	}
	return &job{core}, nil
}

// Handle answers the coordinated plan swap: re-plan for the
// coordinator's global workset estimate, swap the session, and echo the
// new digest so the coordinator can verify the mesh stayed plan-agreed.
func (j *job) Handle(req Msg) (Msg, error) {
	if req.Kind != kindEpoch {
		return Msg{}, fmt.Errorf("distrib: unexpected control message %q in a job", req.Kind)
	}
	phys, err := j.Fx.ApplyEpoch(int64(req.Count))
	if err != nil {
		return Msg{}, err
	}
	j.Digest, j.epoch = PlanDigest(phys), req.Epoch
	return Msg{Kind: kindEpochDone, Epoch: req.Epoch, Digest: j.Digest}, nil
}
