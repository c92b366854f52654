// Command benchmark is the repository's one end-to-end performance harness:
// it boots two wisdom-serve replicas behind a wisdom-router in-process on
// loopback sockets, drives four seeded workloads through them from two
// clients, checks every answer against a serial Predict, and
// reports the end-to-end and per-layer metrics BENCHMARK.json lists. See
// README.md in this directory.
//
//	go run ./benchmark                                   # every workload, untraced then traced
//	go run ./benchmark --workload unary_distinct --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//	go run ./benchmark -train-ref                        # regenerate testdata/ref-96x4.*
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print one result object (driver mode)")
	seed := fs.Int64("seed", 1, "workload input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	out := fs.String("out", "benchmark/out", "directory for result.json and trace-<workload>.jsonl")
	specPath := fs.String("spec", "BENCHMARK.json", "the workloads and the metrics with their units, directions and bounds")
	trainRefFlag := fs.Bool("train-ref", false, "regenerate benchmark/testdata/ref-96x4.* from the recipe and exit")
	compareFlag := fs.Bool("compare", false, "compare two comma-separated sets of result files: -compare a1,a2,a3 b1,b2,b3")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }

	if *trainRefFlag {
		if err := trainRef(filepath.Join("benchmark", refDir), defaultRecipe, func(s string) { logf("%s", s) }); err != nil {
			return fail(err)
		}
		return 0
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}

	switch {
	case *compareFlag:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two comma-separated lists of result files"))
		}
		a, err := readResultFiles(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResultFiles(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if n := compare(stdout, spec, a, b); n > 0 {
			fmt.Fprintf(stdout, "%d regression(s)\n", n)
			return 1
		}
		return 0

	case *workload != "":
		if !slices.Contains(spec.workloadNames(), *workload) {
			return fail(fmt.Errorf("unknown workload %q (have %v)", *workload, spec.workloadNames()))
		}
		o := defaultOpts(spec, *workload, *seed, *seconds)
		o.logf = logf
		if *trace == 1 {
			o.setups = 1
			o.outDir = *out
		}
		rep, err := measure(o, *trace != 1, *trace == 1)
		if err != nil {
			return fail(err)
		}
		if *trace == 1 {
			fmt.Fprintln(stdout, rep.budget)
			return emit(stdout, *workload, spec.PerLayer, rep.perLayer)
		}
		return emit(stdout, *workload, spec.EndToEnd, rep.endToEnd)
	}

	// Full run: every workload, end to end and then traced.
	file := resultFile{Seed: *seed, Seconds: *seconds, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]workloadResult{}}
	code := 0
	for _, name := range spec.workloadNames() {
		o := defaultOpts(spec, name, *seed, *seconds)
		o.logf = logf
		o.outDir = *out
		rep, err := measure(o, true, true)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "== %s\n", name)
		printMetrics(stdout, spec.EndToEnd, rep.endToEnd)
		printMetrics(stdout, spec.PerLayer, rep.perLayer)
		fmt.Fprintln(stdout, rep.budget)
		if !rep.endToEnd.Correct || !rep.perLayer.Correct {
			fmt.Fprintf(stdout, "%s: FAILED its correctness check\n", name)
			code = 1
		}
		file.Workloads[name] = workloadResult{EndToEnd: rep.endToEnd, PerLayer: rep.perLayer, Budget: rep.budget}
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	path := filepath.Join(*out, "result.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fail(err)
	}
	logf("wrote %s", path)
	return code
}

// emit prints one workload's metrics by name and unit and then, as the last
// line, the result object the driver reads. The exit code is non-zero when
// the run failed its correctness check.
func emit(w io.Writer, workload string, specs []metricSpec, res *runResult) int {
	fmt.Fprintf(w, "== %s\n", workload)
	printMetrics(w, specs, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, specs []metricSpec, res *runResult) {
	for _, s := range specs {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	fmt.Fprintf(w, "%-34s %14d of %d failed, correct=%v\n", "requests", res.Failed, res.Attempted, res.Correct)
}
