package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantMetrics(defs []metricDef, bounded bool) []benchMetric {
	var out []benchMetric
	for _, d := range defs {
		m := benchMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if m.Better == "" {
			m.Better = "lower"
		}
		if bounded {
			b := d.bound
			m.Bound = &b
		}
		out = append(out, m)
	}
	return out
}

// TestBenchmarkFileMatchesCatalog keeps ../BENCHMARK.json and the metric
// catalogue the program reports from in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if got, want := f.EndToEnd, wantMetrics(endToEnd, true); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs from the catalogue:\n got %+v\nwant %+v", got, want)
	}
	if got, want := f.PerLayer, wantMetrics(perLayer, false); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs from the catalogue")
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program knows %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(f.EndToEnd, f.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}
