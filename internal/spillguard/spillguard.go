// Package spillguard is the TestMain of every test package that spills:
// it runs the suite with a private temp dir and fails it if any spill
// file outlives the run, so a test (or the code under test) that forgets
// to reset a spilling solution set or cache fails instead of leaking
// files into the shared temp dir.
package spillguard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Main runs m under the guard and exits with its result.
func Main(m *testing.M) {
	dir, err := os.MkdirTemp("", "spillguard-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	leaked, _ := filepath.Glob(filepath.Join(dir, "spinflow-spill-*.bin"))
	if code == 0 && len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "spillguard: %d spill files survived the run\n", len(leaked))
		code = 1
	}
	os.RemoveAll(dir)
	os.Exit(code)
}
