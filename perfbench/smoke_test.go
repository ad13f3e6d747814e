package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at a tiny scale, untraced and
// traced, against a spinflow binary built from this checkout.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds spinflow and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spinflow")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/spinflow").CombinedOutput(); err != nil {
		t.Fatalf("building spinflow: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: heldOutSeed, seconds: 3, trace: trace,
				scale: 0.05, spinflow: bin, workdir: filepath.Join(dir, "run")}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !r.correct() || r.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", w, trace, r.attempted, r.failed, r.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := r.values[d.name]; !ok && !trace {
					t.Errorf("%s: no %s", w, d.name)
				}
				if !trace && r.values[d.name] <= 0 {
					t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w, d.name, r.values[d.name])
				}
			}
		}
	}
}
