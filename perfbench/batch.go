package main

import (
	"fmt"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graphgen"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/record"
)

// A batch workload runs one fixpoint repeatedly on a generated graph:
// untraced through the public entry point (iterative.RunIncremental or
// RunBulk), traced through trace.go's step-by-step driver.
type batchWorkload struct {
	graph   func(scale float64, seed int64) *graphgen.Graph
	prepare func(g *graphgen.Graph) fixpointJob
	// oracle computes the expected result once and returns its checker.
	oracle func(g *graphgen.Graph) func([]record.Record) error
	// agree compares the traced result with the untraced one.
	agree func(traced, untraced []record.Record) error
}

// fixpointJob is one prepared fixpoint (specs are built fresh per run:
// planning annotates the logical plan's estimates).
type fixpointJob struct {
	run    func(cfg iterative.Config) ([]record.Record, error)
	traced func(t *tracer, par int, m *metrics.Counters) ([]record.Record, tracedWork, error)
}

// tracedWork is what the traced driver counts beyond metrics.Counters.
type tracedWork struct {
	steps   int
	workset int64
}

const (
	parallelism  = 2
	prIterations = 20
	rankTol      = 1e-12
)

var batchWorkloads = map[string]batchWorkload{
	"batch-cc": {
		graph: webbaseGraph,
		prepare: func(g *graphgen.Graph) fixpointJob {
			spec, s0, w0 := algorithms.CCIncrementalSpec(g, algorithms.CCCoGroup)
			return fixpointJob{
				run: func(cfg iterative.Config) ([]record.Record, error) {
					res, err := iterative.RunIncremental(spec, s0, w0, cfg)
					if err != nil {
						return nil, err
					}
					return res.Solution, nil
				},
				traced: func(t *tracer, par int, m *metrics.Counters) ([]record.Record, tracedWork, error) {
					sol, steps, ws, err := tracedIncremental(t, spec, s0, w0, par, m)
					return sol, tracedWork{steps: steps, workset: ws}, err
				},
			}
		},
		oracle: func(g *graphgen.Graph) func([]record.Record) error {
			want := ccLabels(g.NumVertices, edgePairs(g))
			return func(sol []record.Record) error { return checkLabels(algorithms.ComponentsToMap(sol), want) }
		},
		agree: func(a, b []record.Record) error {
			return checkLabels(algorithms.ComponentsToMap(a), algorithms.ComponentsToMap(b))
		},
	},
	"batch-pagerank": {
		graph: wikipediaGraph,
		prepare: func(g *graphgen.Graph) fixpointJob {
			spec, initial := algorithms.PageRankSpec(g, prIterations, algorithms.DefaultDamping, 0)
			return fixpointJob{
				run: func(cfg iterative.Config) ([]record.Record, error) {
					res, err := iterative.RunBulk(spec, initial, cfg)
					if err != nil {
						return nil, err
					}
					return res.Solution, nil
				},
				traced: func(t *tracer, par int, m *metrics.Counters) ([]record.Record, tracedWork, error) {
					sol, err := tracedBulk(t, spec, initial, par, m)
					return sol, tracedWork{steps: prIterations}, err
				},
			}
		},
		oracle: func(g *graphgen.Graph) func([]record.Record) error {
			want := powerIteration(g.NumVertices, edgePairs(g), prIterations, algorithms.DefaultDamping)
			return func(sol []record.Record) error { return checkRanks(algorithms.RanksToMap(sol), want, rankTol) }
		},
		agree: func(a, b []record.Record) error {
			rb := algorithms.RanksToMap(b)
			want := make([]float64, len(rb))
			for v, x := range rb {
				if v < 0 || v >= int64(len(want)) {
					return fmt.Errorf("untraced result has vertex %d outside 0..%d", v, len(want)-1)
				}
				want[v] = x
			}
			return checkRanks(algorithms.RanksToMap(a), want, rankTol)
		},
	},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median of their CPU times, latency.setup_s of their wall times.
const setupReps = 5

func runBatch(o options, w batchWorkload) (*result, error) {
	r := newResult()
	var g *graphgen.Graph
	var setupCPU, setupWall []float64
	for i := 0; i < setupReps; i++ {
		goruntime.GC() // no collection of the last rep's garbage overlaps this one
		c0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		g = w.graph(o.scale, o.seed)
		w.prepare(g)
		setupWall = append(setupWall, time.Since(start).Seconds())
		c1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (c1 - c0).Seconds())
	}
	fmt.Printf("graph: V=%d E=%d\n", g.NumVertices, len(g.Edges))
	check := w.oracle(g)

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2 // half untraced (the overhead baseline), half traced
	}
	minRuns := 3
	if o.trace {
		minRuns = 1
	}

	// Untraced fixpoints through the public entry point.
	var times, allocs, cpus []float64
	var untraced []record.Record
	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	loop(budget, minRuns, func() {
		job := w.prepare(g)
		goruntime.GC()
		a0 := heapAllocated()
		c0, err0 := selfCPU()
		start := time.Now()
		sol, err := job.run(iterative.Config{Parallelism: parallelism})
		d := time.Since(start)
		c1, err1 := selfCPU()
		if err0 != nil || err1 != nil {
			r.fail("reading CPU time: %v %v", err0, err1)
		}
		cpus = append(cpus, ms(c1-c0))
		allocs = append(allocs, float64(heapAllocated()-a0)/1e6)
		times = append(times, ms(d))
		r.attempted++
		if err == nil {
			err = check(sol)
		}
		if err != nil {
			r.fail("fixpoint: %v", err)
			return
		}
		untraced = sol
	})

	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	r.set("host.steal_share", stolen, 1)
	r.set("latency.result_p50_ms", median(times), len(times))
	r.set("latency.result_p99_ms", quantile(times, 0.99), len(times))
	r.set("latency.request_p50_ms", median(times), len(times))
	r.set("latency.request_p99_ms", quantile(times, 0.99), len(times))
	r.set("system.cpu_ms", median(cpus), len(cpus))
	r.set("latency.setup_s", median(setupWall), len(setupWall))
	if !o.trace {
		rss, err := vmHWM("self")
		if err != nil {
			return nil, err
		}
		r.set("setup_s", median(setupCPU), len(setupCPU))
		r.set("alloc_mb", median(allocs), len(allocs))
		r.set("peak_rss_mb", rss/1e6, 1)
		return r, nil
	}

	// Traced fixpoints: per-layer numbers, each result checked against
	// the oracle and against the untraced result.
	var layers []map[string]float64
	var totals []float64
	var last *tracer
	loop(budget, minRuns, func() {
		job := w.prepare(g)
		goruntime.GC()
		var m metrics.Counters
		var gc0, gc1 goruntime.MemStats
		goruntime.ReadMemStats(&gc0)
		t := newTracer()
		sol, work, err := job.traced(t, parallelism, &m)
		goruntime.ReadMemStats(&gc1)
		r.attempted++
		if err == nil {
			err = check(sol)
		}
		if err == nil && untraced != nil {
			err = w.agree(sol, untraced)
		}
		if err != nil {
			r.fail("traced fixpoint: %v", err)
			return
		}
		lm := batchLayers(t, m.Snapshot(), work)
		lm["gc.cycles"] = float64(gc1.NumGC - gc0.NumGC)
		lm["gc.pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
		layers = append(layers, lm)
		totals = append(totals, ms(time.Duration(t.spans[0].DurNs)))
		last = t
	})
	for name, xs := range collectLayers(layers) {
		r.set(name, median(xs), len(xs))
	}
	if len(times) > 0 && len(totals) > 0 {
		r.set("trace.overhead_ratio", median(totals)/median(times), len(totals))
	}
	if last != nil {
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		if err := last.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %s (%d)\n", path, len(last.spans))
	}
	return r, nil
}

// loop calls f until the budget is spent, at least min times; it does not
// start a call it expects to overrun the budget by.
func loop(budget time.Duration, min int, f func()) {
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= min && (el >= budget || el+el/time.Duration(i) > budget) {
			return
		}
		f()
	}
}

// batchLayers folds one traced fixpoint's spans and counters into the
// per-layer metrics.
func batchLayers(t *tracer, c metrics.Snapshot, work tracedWork) map[string]float64 {
	lm := map[string]float64{}
	stepMs := map[int]float64{}
	var runMs, mergeMs []float64
	var child int64
	offered, merged := 0.0, 0.0
	for _, s := range t.spans[1:] {
		d := float64(s.DurNs) / 1e6
		child += s.DurNs
		if s.Step >= 0 {
			stepMs[s.Step] += d
		}
		switch {
		case s.Name == "optimizer.Optimize":
			lm["optimizer.plan_ms"] += d
		case s.Step < 0:
			lm["runtime.open_ms"] += d
		case s.Name == "runtime.Session.Run":
			lm["runtime.run_ms"] += d
			lm["runtime.run_alloc_mb"] += float64(s.AllocBytes) / 1e6
			runMs = append(runMs, d)
		case s.Name == "runtime.SolutionSet.MergeDelta":
			lm["runtime.merge_ms"] += d
			lm["runtime.merge_alloc_mb"] += float64(s.AllocBytes) / 1e6
			mergeMs = append(mergeMs, d)
			offered += float64(s.Records)
			merged += float64(s.Changed)
		default: // SetPlaceholderParts / SetPlaceholder between supersteps
			lm["runtime.feed_ms"] += d
		}
	}
	steps := make([]float64, 0, len(stepMs))
	for _, d := range stepMs {
		steps = append(steps, d)
	}
	lm["runtime.records_shipped"] = float64(c.RecordsShipped)
	lm["runtime.udf_calls"] = float64(c.UDFInvocations)
	lm["runtime.batches_allocated"] = float64(c.BatchesAllocated)
	if n := c.BatchesAllocated + c.BatchesRecycled; n > 0 {
		lm["runtime.batch_reuse_ratio"] = float64(c.BatchesRecycled) / float64(n)
	}
	lm["runtime.solution_updates"] = float64(c.SolutionUpdates)
	lm["runtime.solution_accesses"] = float64(c.SolutionAccesses)
	if offered > 0 {
		lm["runtime.merge_useful_ratio"] = merged / offered
	}
	lm["iterative.supersteps"] = float64(work.steps)
	lm["iterative.workset_records"] = float64(work.workset)
	lm["iterative.step_p50_ms"] = median(steps)
	lm["iterative.step_max_ms"] = maxOf(steps)
	lm["iterative.superstep_ms"] = mean(runMs)
	lm["iterative.merge_ms"] = mean(mergeMs)
	lm["iterative.self_ms"] = float64(t.spans[0].DurNs-child-t.statNs) / 1e6
	if work.workset > 0 {
		lm["iterative.effective_work_ratio"] = float64(c.SolutionUpdates) / float64(work.workset)
	}
	return lm
}

func collectLayers(runs []map[string]float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, lm := range runs {
		for k, v := range lm {
			out[k] = append(out[k], v)
		}
	}
	return out
}
