package main

import (
	"math"
	"slices"
	"testing"
)

// TestContractMatchesTables pins the metric tables to BENCHMARK.json:
// same names, same units, same order; absolute bounds name end-to-end
// metrics.
func TestContractMatchesTables(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for n := range absBounds {
		if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == n }) {
			t.Errorf("absolute bound for %s, which is not an end-to-end metric", n)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsToy runs every workload at toy size, untraced and
// traced, through the same code as a real run, and checks that each
// emits exactly its mode's metrics with finite values and passes its
// checks.
func TestWorkloadsToy(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{seed: 3, seconds: 1, trace: trace, toy: true, workDir: dir, tracePath: dir + "/trace.json"}
				res, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("checks failed: %v", res.failures)
				}
				known := map[string]bool{}
				for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
					known[d.name] = true
				}
				for n, m := range res.metrics {
					if !known[n] {
						t.Errorf("metric %s is not in BENCHMARK.json", n)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", n, m.Value)
					}
				}
				for _, n := range c.names(trace) {
					if _, ok := res.metrics[n]; !ok {
						t.Errorf("metric %s not emitted", n)
					}
				}
			})
		}
	}
}
