package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, layers.json and
// the metrics the benchmark prints in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, d := range want {
			units[d.name] = d.unit
		}
		for _, d := range got {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, code has unit %q", kind, d.Name, d.Unit, u)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)

	var layers struct {
		PerLayer map[string]struct {
			Moves    []string `json:"moves"`
			On       []string `json:"on"`
			SteadyOn []string `json:"steady_on"`
		} `json:"per_layer"`
	}
	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, d := range perLayer {
		m, ok := layers.PerLayer[d.name]
		if !ok {
			t.Errorf("layers.json does not map %s", d.name)
			continue
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("layers.json: %s moves unknown metric %s", d.name, e)
			}
		}
		for _, w := range append(m.On, m.SteadyOn...) {
			if _, err := lookupWorkload(w); err != nil {
				t.Errorf("layers.json: %s: %v", d.name, err)
			}
		}
	}
	if len(layers.PerLayer) != len(perLayer) {
		t.Errorf("layers.json maps %d metrics, the code reports %d", len(layers.PerLayer), len(perLayer))
	}
}
