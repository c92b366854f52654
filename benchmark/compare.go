package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// resultFile is what a full run (`go run ./benchmark`) writes: every
// workload's end-to-end and per-layer result under the run's parameters.
type resultFile struct {
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	GoVersion  string                    `json:"go_version"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer,omitempty"`
	Budget   string     `json:"budget,omitempty"`
}

func readResultFiles(list string) ([]resultFile, error) {
	var out []resultFile
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// Verdicts of one workload × end-to-end metric.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares the two sides' runs of one metric. worse is how far b's
// median is on the wrong side of a's, as a share of a's. A metric whose
// run-to-run spread on either side exceeds the bound cannot be told apart
// from noise: it is unresolved, never unchanged.
func judge(m metricSpec, a, b []float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	worse = share(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	spread = spreadShare(a)
	if s := spreadShare(b); s > spread {
		spread = s
	}
	switch {
	case worse > *m.Bound:
		return verdictRegression, worse, spread
	case spread > *m.Bound:
		return verdictUnresolved, worse, spread
	case worse < -*m.Bound:
		return verdictImproved, worse, spread
	}
	return verdictUnchanged, worse, spread
}

// compare prints one row per workload × end-to-end metric and returns the
// number of regressions; a failed correctness check on side b is one.
func compare(w io.Writer, spec *benchSpec, a, b []resultFile) int {
	regressions := 0
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, rf := range b {
			if r := rf.Workloads[wl.Name].EndToEnd; r != nil && !r.Correct {
				fmt.Fprintf(w, "%-16s a run of side b failed its correctness check  %s\n", wl.Name, verdictRegression)
				regressions++
				break
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-22s not present on both sides\n", wl.Name, m.Name)
				continue
			}
			verdict, worse, spread := judge(m, va, vb)
			if verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*spread, 100**m.Bound, verdict)
		}
	}
	return regressions
}

func values(files []resultFile, workload, metric string) []float64 {
	var out []float64
	for _, rf := range files {
		if r := rf.Workloads[workload].EndToEnd; r != nil {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
