package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain runs the suite with a private temp dir and fails it if any
// spill file outlives the run: every engine run under the spill budget
// must reset its solution set.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "difftest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	leaked, _ := filepath.Glob(filepath.Join(dir, "spinflow-spill-*.bin"))
	if code == 0 && len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "difftest: %d spill files survived the run\n", len(leaked))
		code = 1
	}
	os.RemoveAll(dir)
	os.Exit(code)
}
