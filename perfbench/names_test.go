package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of ../BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestNamesMatchBenchmarkFile checks that BENCHMARK.json lists exactly the
// workloads and metrics the program produces, with the same units and
// directions, and that every name is well formed.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the program has %v", declared, workloadNames())
	}
	for _, w := range workloadNames() {
		if _, ok := specs[w]; !ok {
			t.Errorf("workload %s has no spec", w)
		}
	}
	if len(specs) != len(workloadNames()) {
		t.Errorf("%d specs for %d workload names", len(specs), len(workloadNames()))
	}
	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the program has %v", bf.EndToEnd, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the program has %v", bf.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, n := range append(declared, names(endToEnd, perLayer)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the form %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

// TestWorkloadsProduceEveryMetric runs every workload briefly in both
// modes: each run must check out and produce only names of the tables.
func TestWorkloadsProduceEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	known := map[string]bool{}
	for _, n := range names(endToEnd, perLayer) {
		known[n] = true
	}
	for _, w := range workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			r, metrics, err := execute(w, 1, 1, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			if r.failed != 0 {
				t.Errorf("%s trace=%d: %d of %d failed: %v", w, trace, r.failed, r.attempted, r.problems)
			}
			if len(metrics) != len(r.rep.defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(metrics), len(r.rep.defs))
			}
			for n := range r.rep.values {
				if !known[n] {
					t.Errorf("%s trace=%d produced %q, which BENCHMARK.json lacks", w, trace, n)
				}
			}
		}
	}
}

// TestReportEmitsEveryMetric checks that a report missing a metric of its
// table fails instead of printing a partial result.
func TestReportEmitsEveryMetric(t *testing.T) {
	rep := newReport(endToEnd)
	for _, d := range endToEnd[1:] {
		rep.set(d.Name, 1, 1)
	}
	if _, err := rep.finish(); err == nil {
		t.Fatalf("finish accepted a report without %s", endToEnd[0].Name)
	}
	rep.set(endToEnd[0].Name, 1, 1)
	out, err := rep.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(endToEnd) {
		t.Fatalf("%d metrics emitted, want %d", len(out), len(endToEnd))
	}
}

func names(tables ...[]metricDef) []string {
	var out []string
	for _, t := range tables {
		for _, d := range t {
			out = append(out, d.Name)
		}
	}
	return out
}
