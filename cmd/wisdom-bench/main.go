// Command wisdom-bench regenerates the paper's evaluation tables from the
// synthetic reproduction pipeline.
//
// Usage:
//
//	wisdom-bench [-quick] [-table 1|2|3|4|5|throughput|sensitivity|ablation|decoding|all] [-figure 2]
//	wisdom-bench -quick -trace -metrics   # per-stage timings + metrics dump
//
// Each run is fully deterministic for a given configuration; -trace and
// -metrics only observe, they never perturb results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wisdom/internal/dataset"
	"wisdom/internal/experiments"
	"wisdom/internal/observe"
)

func main() {
	quick := flag.Bool("quick", false, "use the reduced (smoke-test) configuration")
	table := flag.String("table", "all", "table to regenerate: "+strings.Join(tables, ", ")+", or all")
	figure := flag.Int("figure", 0, "figure to print (2 prints one sample per generation type)")
	metricsOn := flag.Bool("metrics", false, "dump collected metrics in Prometheus text format to stderr at exit")
	traceOn := flag.Bool("trace", false, "log stage span timings to stderr and print a stage summary at exit")
	flag.Parse()
	// Validate before building the suite, which takes minutes at the
	// default scale: an unknown table must not cost a build and print
	// nothing.
	run, err := selectTables(*table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wisdom-bench:", err)
		flag.Usage()
		os.Exit(2)
	}

	var reg *observe.Registry
	if *metricsOn {
		reg = observe.NewRegistry()
	}
	var tracer *observe.Tracer
	if *metricsOn || *traceOn {
		var logw io.Writer
		if *traceOn {
			logw = os.Stderr
		}
		tracer = observe.NewTracer(reg, logw)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	fmt.Printf("building suite (seed %d, vocab %d, galaxy %d files)...\n",
		cfg.Seed, cfg.VocabSize, cfg.GalaxyFiles)
	suite, err := experiments.NewSuiteTraced(cfg, tracer)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fine-tuning pipeline: %d train / %d valid / %d test samples\n\n",
		len(suite.Pipe.Train), len(suite.Pipe.Valid), len(suite.Pipe.Test))

	if *figure == 2 {
		printFigure2(suite)
		return
	}

	if run["1"] {
		fmt.Println("Table 1: extracted file count per data source")
		fmt.Printf("%-14s %10s %12s %-8s %-5s\n", "Source", "Files", "AfterDedup", "Type", "Usage")
		for _, r := range suite.Table1() {
			fmt.Printf("%-14s %10d %12d %-8s %-5s\n", r.Source, r.FileCount, r.AfterDedup, r.YAMLType, r.Usage)
		}
		fmt.Println()
	}
	if run["2"] {
		fmt.Println(experiments.FormatTable2(suite.Table2()))
	}
	if run["3"] {
		rows, err := suite.Table3()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Format("Table 3: few-shot evaluation", rows))
	}
	if run["4"] {
		rows, err := suite.Table4()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Format("Table 4: fine-tuned evaluation", rows))
	}
	if run["5"] {
		rows, err := suite.Table5()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable5(rows))
	}
	if run["sensitivity"] {
		rows, err := suite.Sensitivity()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatSensitivity(rows))
	}
	if run["ablation"] {
		rows, err := suite.InsertionPenaltyAblation()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatAblation(rows))
	}
	if run["decoding"] {
		rows, err := suite.DecodingAblation()
		if err != nil {
			fatal(err)
		}
		fmt.Println("Decoding ablation (greedy vs temperature sampling, fine-tuned CodeGen-Multi)")
		for _, r := range rows {
			fmt.Printf("%-16s Schema %6.2f  EM %6.2f  BLEU %6.2f  Aware %6.2f\n", r.Name,
				r.Report.SchemaCorrect, r.Report.ExactMatch, r.Report.BLEU, r.Report.AnsibleAware)
		}
		fmt.Println()
	}
	if run["throughput"] {
		res, err := suite.Throughput()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Throughput (pre-training section): small %.1f tok/s, large %.1f tok/s, ratio %.2fx\n",
			res.SmallTokensPerSec, res.LargeTokensPerSec, res.Ratio)
		fmt.Println("(the paper reports the 350M model ~1.9x faster than the 2.7B on one GPU)")
	}

	if *traceOn {
		if s := tracer.Summary(); s != "" {
			fmt.Fprintf(os.Stderr, "\nstage timings:\n%s", s)
		}
	}
	if *metricsOn {
		fmt.Fprintln(os.Stderr, "\ncollected metrics:")
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// tables are the values -table accepts besides "all", in print order.
var tables = []string{"1", "2", "3", "4", "5", "throughput", "sensitivity", "ablation", "decoding"}

// selectTables returns the set of tables a -table value names: every table
// for "all", else the one it names. Any other value is an error.
func selectTables(table string) (map[string]bool, error) {
	run := map[string]bool{}
	for _, t := range tables {
		if table == "all" || table == t {
			run[t] = true
		}
	}
	if len(run) == 0 {
		return nil, fmt.Errorf("unknown -table %q (want %s or all)", table, strings.Join(tables, ", "))
	}
	return run, nil
}

func printFigure2(suite *experiments.Suite) {
	samples := suite.Figure2()
	order := []dataset.GenType{dataset.PBNLtoT, dataset.NLtoPB, dataset.TNLtoT, dataset.NLtoT}
	for _, t := range order {
		s, ok := samples[t]
		if !ok {
			continue
		}
		fmt.Printf("=== Figure 2: %s ===\n", t)
		fmt.Printf("# NL prompt: %s\n", s.Prompt)
		fmt.Printf("# model input:\n%s", s.Input())
		fmt.Printf("# expected output:\n%s\n", s.Target)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wisdom-bench:", err)
	os.Exit(1)
}
