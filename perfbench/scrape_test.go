package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

const promBefore = `# TYPE spinflow_records_shipped gauge
spinflow_records_shipped 100
# TYPE spinflow_live_query_duration_seconds histogram
spinflow_live_query_duration_seconds_bucket{le="0.000131072"} 10
spinflow_live_query_duration_seconds_bucket{le="+Inf"} 10
spinflow_live_query_duration_seconds_sum 0.001
spinflow_live_query_duration_seconds_count 10
spinflow_view_flushes{view="bench"} 3
`

const promAfter = `# TYPE spinflow_records_shipped gauge
spinflow_records_shipped 350
# TYPE spinflow_live_query_duration_seconds histogram
spinflow_live_query_duration_seconds_bucket{le="0.000131072"} 30
spinflow_live_query_duration_seconds_bucket{le="+Inf"} 40
spinflow_live_query_duration_seconds_sum 0.007
spinflow_live_query_duration_seconds_count 40
spinflow_view_flushes{view="bench"} 9
`

func TestPrometheusHistogramDeltas(t *testing.T) {
	b, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.delta(b, "spinflow_records_shipped"); got != 250 {
		t.Errorf("counter delta %v", got)
	}
	if got := a.delta(b, `spinflow_view_flushes{view="bench"}`); got != 6 {
		t.Errorf("labelled series delta %v", got)
	}
	// 30 observations totalling 6ms between the scrapes
	if got := a.histMeanMs(b, "live_query_duration"); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("histogram mean %v ms, want 0.2", got)
	}
	if got := a.histSumMs(b, "live_query_duration"); math.Abs(got-6) > 1e-9 {
		t.Errorf("histogram sum %v ms, want 6", got)
	}
	if got := a.histMeanMs(b, "absent"); got != 0 {
		t.Errorf("absent histogram mean %v", got)
	}
	if _, err := parseProm(strings.NewReader("spinflow_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func memText(total uint64, numGC uint32, pauses map[int]uint64) string {
	var p [256]uint64
	for i, v := range pauses {
		p[i] = v
	}
	return fmt.Sprintf("heap profile: ...\n\n# runtime.MemStats\n# Alloc = 1\n# TotalAlloc = %d\n# PauseNs = %v\n# PauseEnd = %v\n# NumGC = %d\n", total, p, p, numGC)
}

func TestMemStatsPausesSinceBefore(t *testing.T) {
	b, err := parseMemStats(memText(1000, 2, map[int]uint64{0: 5, 1: 7}))
	if err != nil {
		t.Fatal(err)
	}
	// two more collections, recorded at ring slots 2 and 3
	a, err := parseMemStats(memText(5000, 4, map[int]uint64{0: 5, 1: 7, 2: 11, 3: 13}))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalAlloc-b.TotalAlloc != 4000 || a.NumGC != 4 {
		t.Errorf("parsed %+v", a)
	}
	if got := a.pauseSince(b); got != 24 {
		t.Errorf("pauses since %v ns, want 24", int64(got))
	}
	if _, err := parseMemStats("no stats here"); err == nil {
		t.Error("a profile without MemStats parsed")
	}
}
