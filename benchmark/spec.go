package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// The workloads this program can generate. The names are normative
// (ISSUE 11); BENCHMARK.json lists them with why each exists.
const (
	wlUnaryDistinct  = "unary_distinct"
	wlEditorSessions = "editor_sessions"
	wlBurstRepeats   = "burst_repeats"
	wlNgramDefault   = "ngram_default"
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
// Per-layer metrics carry no bound.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json, the one place that says which workloads
// run and which metrics are reported, in which unit, direction and bound.
// Every mode reads it; the command runs from the repository root.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks the result schema rules: well-formed unique names, and a
// unit, a direction and (end to end) a bound on every metric.
func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if _, ok := workloadSizes[w.Name]; !ok {
			return fmt.Errorf("no generator for workload %s", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s needs a why of at most 200 characters", w.Name)
		}
	}
	metric := func(m metricSpec, bounded bool) error {
		if err := name("metric", m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s has no valid unit", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s has direction %q", m.Name, m.Better)
		}
		switch {
		case bounded && (m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25):
			return fmt.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		case !bounded && m.Bound != nil:
			return fmt.Errorf("per-layer metric %s must not carry a bound", m.Name)
		}
		return nil
	}
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}

// measured is one reported number.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object the driver reads from the last line of stdout.
type runResult struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}
