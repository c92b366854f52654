package main

import (
	"fmt"
	"strings"
)

// metricSet collects one run's numbers against a metric list of
// BENCHMARK.json, so a metric can neither be reported under a unit the list
// does not give it nor be left out: names the run never sets report 0 (a layer
// the workload does not reach). README.md says which end-to-end metric each
// per-layer metric should move.
type metricSet struct {
	specs    []metricSpec
	values   map[string]float64
	unlisted []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, values: map[string]float64{}}
}

func (ms *metricSet) set(name string, v float64) {
	for _, s := range ms.specs {
		if s.Name == name {
			ms.values[name] = v
			return
		}
	}
	ms.unlisted = append(ms.unlisted, name)
}

// result fails when the run measured something BENCHMARK.json does not list.
func (ms *metricSet) result() (map[string]measured, error) {
	if len(ms.unlisted) > 0 {
		return nil, fmt.Errorf("BENCHMARK.json does not list the metrics %s", strings.Join(ms.unlisted, ", "))
	}
	out := make(map[string]measured, len(ms.specs))
	for _, s := range ms.specs {
		out[s.Name] = measured{Value: ms.values[s.Name], Unit: s.Unit}
	}
	return out, nil
}
