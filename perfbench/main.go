// Command perfbench is spinflow's benchmark: four seeded workloads run
// through the system's public entry points, measured end to end
// (untraced) or per layer (traced). See README.md in this directory.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --spinflow <binary>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A failed correctness gate prints that object with "correct": false and
// exits 1; an invalid run (the load generator, not the system, fell
// behind its schedule) prints no result and exits 3.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every workload's size: 1 is the benchmark, tests run smaller
	spinflow string  // the spinflow binary the serving workloads launch
	workdir  string  // scratch directory for data dirs and span dumps
}

var workloadNames = []string{"batch-cc", "batch-pagerank", "serve-local", "serve-sharded"}

// errInvalid marks a run the generator could not drive on schedule.
var errInvalid = errors.New("invalid run")

func main() {
	o := options{scale: 1}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: batch-cc, batch-pagerank, serve-local, serve-sharded")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.spinflow, "spinflow", "", "spinflow binary for the serving workloads")
	flag.StringVar(&o.workdir, "workdir", ".", "scratch directory")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 || o.seed < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}
	r, err := run(o)
	if errors.Is(err, errInvalid) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.print(o)
	if !r.correct() {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	abs, err := filepath.Abs(o.workdir)
	if err != nil {
		return nil, err
	}
	o.workdir = abs
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if w, ok := batchWorkloads[o.workload]; ok {
		return runBatch(o, w)
	}
	if sw, ok := servingWorkloads[o.workload]; ok {
		return runServing(o, sw)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

// result accumulates one run's metrics, sample counts and failures.
type result struct {
	attempted int
	failed    int
	failures  []string // the first few, for the report
	values    map[string]float64
	samples   map[string]int
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable table, then the JSON result line.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones beside the end-to-end metric each should move.
func (r *result) print(o options) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := resultOut{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricOut{}}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	if r.failed > len(r.failures) {
		fmt.Printf("FAILED: ... %d more\n", r.failed-len(r.failures))
	}
	attempted := math.Max(1, float64(r.attempted))
	fmt.Printf("workload %s seed %d trace %v: attempted %d failed %d failed_frac %.6f\n",
		o.workload, o.seed, o.trace, r.attempted, r.failed, float64(r.failed)/attempted)
	for _, d := range defs {
		v := r.values[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		if o.trace {
			fmt.Printf("  %-34s %14.4f %-8s n=%-6d -> %s\n", d.name, v, d.unit, r.samples[d.name], d.moves)
		} else {
			fmt.Printf("  %-34s %14.4f %-8s n=%d\n", d.name, v, d.unit, r.samples[d.name])
		}
	}
	var extra []string
	for name := range r.values {
		if !known(name, defs) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  (also) %-27s %14.4f n=%d\n", name, r.values[name], r.samples[name])
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings: a bug
	}
	fmt.Println(string(b))
}

func known(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
