package iterative

import (
	"testing"

	"repro/internal/spillguard"
)

func TestMain(m *testing.M) { spillguard.Main(m) }
