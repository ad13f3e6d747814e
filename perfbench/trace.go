package main

import (
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/runtime"
)

// The traced driver runs the same fixpoint as iterative.RunIncremental /
// RunBulk, but step by step through the layers' public calls, so the
// benchmark can put a span around each call without instrumenting the
// program. It mirrors internal/iterative/driver.go — incEngine.step and
// feed for incremental runs, bulkPolicy for bulk runs — for the paths
// the benchmark's specs take: no checkpoints, no mid-run re-optimization,
// no termination sink or convergence callback.

type span struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"` // index of the causing span; -1 for a root
	Step       int    `json:"step"`   // superstep, -1 outside the loop
	StartNs    int64  `json:"start_ns"`
	DurNs      int64  `json:"dur_ns"`
	AllocBytes int64  `json:"alloc_bytes,omitempty"`
	Records    int64  `json:"records,omitempty"` // records the call consumed
	Changed    int64  `json:"changed,omitempty"` // of those, records that changed state
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// statNs is the time spent reading MemStats for span bytes: tracing
	// overhead, kept out of every span and out of the driver's self time.
	statNs int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func heapAllocated() int64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// call runs f inside a span. With alloc set it also records the heap
// bytes allocated during f (a stop-the-world MemStats read either side).
func (t *tracer) call(name string, parent, step int, alloc bool, f func()) int {
	var a0 int64
	if alloc {
		read := time.Now()
		a0 = heapAllocated()
		t.statNs += int64(time.Since(read))
	}
	start := time.Now()
	f()
	s := span{Name: name, Parent: parent, Step: step,
		StartNs: int64(start.Sub(t.t0)), DurNs: int64(time.Since(start))}
	if alloc {
		read := time.Now()
		s.AllocBytes = heapAllocated() - a0
		t.statNs += int64(time.Since(read))
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Step: -1,
		StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].DurNs = int64(time.Since(t.t0)) - t.spans[i].StartNs
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// incrementalOptions mirrors iterative's planning options for an
// incremental spec's initial plan.
func incrementalOptions(spec *iterative.IncrementalSpec, par, expected int) optimizer.Options {
	return optimizer.Options{
		Parallelism:        par,
		ExpectedIterations: expected,
		PlaceholderProps: map[int]optimizer.Props{
			spec.Workset.ID: {Part: record.KeyID(spec.WorksetKey)},
		},
		SinkPartition: map[int]record.KeyFunc{
			spec.DeltaSink.ID:   spec.SolutionKey,
			spec.WorksetSink.ID: spec.WorksetKey,
		},
		Feedback:  map[int]int{spec.Workset.ID: spec.WorksetSink.ID},
		JoinHints: spec.JoinHints,
		Planner:   optimizer.PlannerCost,
		Fuse:      true,
	}
}

// tracedIncremental is RunIncremental step by step.
func tracedIncremental(t *tracer, spec iterative.IncrementalSpec, s0, w0 []record.Record, par int, m *metrics.Counters) ([]record.Record, int, int64, error) {
	root := t.open("fixpoint", -1)
	defer t.end(root)
	expected := spec.ExpectedIterations
	if expected <= 0 {
		expected = 10
	}
	maxSteps := spec.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	saved := spec.Workset.EstRecords
	if saved == 0 {
		spec.Workset.EstRecords = int64(len(w0))
	}
	var phys *optimizer.PhysPlan
	var err error
	t.call("optimizer.Optimize", root, -1, false, func() {
		phys, err = optimizer.Optimize(spec.Plan, incrementalOptions(&spec, par, expected))
	})
	spec.Workset.EstRecords = saved
	if err != nil {
		return nil, 0, 0, err
	}

	var exec *runtime.Executor
	var sess *runtime.Session
	t.call("runtime.OpenSession", root, -1, false, func() {
		sol := runtime.NewSolutionSetWith(par, spec.SolutionKey, spec.Comparator, m, runtime.SolutionOptions{})
		sol.Init(s0)
		exec = runtime.NewExecutor(runtime.Config{Metrics: m})
		exec.Solution = sol
		if _, verr := iterative.ValidateMicrostep(spec); verr == nil {
			exec.DirectMerge = true
		}
		sess = exec.OpenSession(phys)
	})
	defer func() { sess.Close(); exec.Close() }()
	t.call("runtime.SetPlaceholder", root, -1, false, func() {
		exec.SetPlaceholder(spec.Workset.ID, w0, spec.WorksetKey, par)
	})

	workset := int64(len(w0))
	steps := 0
	for step := 0; step < maxSteps; step++ {
		var res runtime.Result
		t.call("runtime.Session.Run", root, step, true, func() {
			sess.SetTraceStep(step)
			res, err = sess.Run()
		})
		if err != nil {
			return nil, steps, workset, err
		}
		steps = step + 1
		var delta []record.Record
		changed := 0
		i := t.call("runtime.SolutionSet.MergeDelta", root, step, true, func() {
			delta = res.Records(spec.DeltaSink.ID)
			changed = exec.Solution.MergeDelta(delta)
		})
		t.spans[i].Records, t.spans[i].Changed = int64(len(delta)), int64(changed)
		nextParts := res[spec.WorksetSink.ID]
		next := 0
		for _, p := range nextParts {
			next += len(p)
		}
		workset += int64(next)
		if next == 0 {
			return exec.Solution.Snapshot(), steps, workset, nil
		}
		t.call("runtime.SetPlaceholderParts", root, step, false, func() {
			exec.SetPlaceholderParts(spec.Workset.ID, nextParts)
		})
	}
	return nil, steps, workset, fmt.Errorf("no convergence within %d supersteps", maxSteps)
}

// tracedBulk is RunBulk step by step, for fixed-iteration specs.
func tracedBulk(t *tracer, spec iterative.BulkSpec, initial []record.Record, par int, m *metrics.Counters) ([]record.Record, error) {
	if spec.FixedIterations <= 0 || spec.Termination != nil || spec.Converged != nil {
		return nil, fmt.Errorf("traced bulk driver supports fixed-iteration specs only")
	}
	root := t.open("fixpoint", -1)
	defer t.end(root)
	saved := spec.Input.EstRecords
	if saved == 0 {
		spec.Input.EstRecords = int64(len(initial))
	}
	opts := optimizer.Options{
		Parallelism:        par,
		ExpectedIterations: spec.FixedIterations,
		Feedback:           map[int]int{spec.Input.ID: spec.Output.ID},
		JoinHints:          spec.JoinHints,
		Planner:            optimizer.PlannerCost,
		Fuse:               true,
	}
	var phys *optimizer.PhysPlan
	var err error
	t.call("optimizer.Optimize", root, -1, false, func() { phys, err = optimizer.Optimize(spec.Plan, opts) })
	spec.Input.EstRecords = saved
	if err != nil {
		return nil, err
	}

	var exec *runtime.Executor
	var sess *runtime.Session
	phKey := phys.PlaceholderKey(spec.Input.ID)
	t.call("runtime.OpenSession", root, -1, false, func() {
		exec = runtime.NewExecutor(runtime.Config{Metrics: m})
		exec.SetPlaceholder(spec.Input.ID, initial, phKey, par)
		sess = exec.OpenSession(phys)
	})
	defer func() { sess.Close(); exec.Close() }()

	var next []record.Record
	for step := 0; step < spec.FixedIterations; step++ {
		var res runtime.Result
		t.call("runtime.Session.Run", root, step, true, func() {
			sess.SetTraceStep(step)
			res, err = sess.Run()
		})
		if err != nil {
			return nil, err
		}
		nextParts := res[spec.Output.ID]
		next = res.Records(spec.Output.ID)
		if step+1 >= spec.FixedIterations {
			break
		}
		if phKey != nil {
			t.call("runtime.SetPlaceholderParts", root, step, false, func() {
				exec.SetPlaceholderParts(spec.Input.ID, nextParts)
			})
		} else {
			t.call("runtime.SetPlaceholder", root, step, false, func() {
				exec.SetPlaceholder(spec.Input.ID, next, nil, par)
			})
		}
	}
	return next, nil
}
