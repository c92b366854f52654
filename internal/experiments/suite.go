// Package experiments regenerates every table and figure of the paper's
// evaluation section at the reproduction's scale: Table 1 (dataset
// construction), Table 2 (model/dataset matrix), Table 3 (few-shot results),
// Table 4 (fine-tuned results and ablations), Table 5 (per-generation-type
// breakdown), Figure 2 (the four generation types) and the pre-training
// section's throughput comparison. The drivers are shared by the bench_test
// harness and the wisdom-bench command.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"wisdom/internal/corpus"
	"wisdom/internal/dataset"
	"wisdom/internal/metrics"
	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/tokenizer"
	"wisdom/internal/wisdom"
)

// Config sizes an experiment run. All generators are seeded, so a Config
// determines results exactly.
type Config struct {
	Seed int64
	// Corpora sizes the five pre-training corpora.
	Corpora wisdom.CorporaConfig
	// VocabSize of the shared BPE tokenizer.
	VocabSize int
	// GalaxyFiles is the raw size of the fine-tuning crawl.
	GalaxyFiles int
	// EvalLimit caps evaluated test samples per table row (0 = all).
	EvalLimit int
	// LeakEvery leaks every n-th test sample to the Codex-sim retrieval
	// channel (the "Codex likely saw large portions of Galaxy" effect);
	// 0 disables leakage.
	LeakEvery int
}

// Default returns the configuration used by the committed experiment runs:
// large enough for stable orderings, small enough that the full suite runs
// in minutes on a laptop.
func Default() Config {
	return Config{
		Seed: 7,
		Corpora: wisdom.CorporaConfig{
			Seed:      7,
			Pile:      800,
			BigQuery:  800,
			BigPython: 400,
			GitLab:    80,
			GitHub:    1200,
			Generic:   2400,
		},
		VocabSize:   2048,
		GalaxyFiles: 500,
		EvalLimit:   200,
		LeakEvery:   8,
	}
}

// Quick returns a reduced configuration for smoke tests and -short benches.
func Quick() Config {
	return Config{
		Seed: 7,
		Corpora: wisdom.CorporaConfig{
			Seed: 7, Pile: 250, BigQuery: 250, BigPython: 120,
			GitLab: 40, GitHub: 400, Generic: 800,
		},
		VocabSize:   2048,
		GalaxyFiles: 220,
		EvalLimit:   40,
		LeakEvery:   8,
	}
}

// Suite holds the shared fixtures of one experiment run.
type Suite struct {
	Cfg     Config
	Corpora *wisdom.Corpora
	Tok     *tokenizer.Tokenizer
	Pipe    *dataset.Pipeline
	// Trace, when non-nil, times every suite stage (corpora build,
	// tokenizer training, per-table model builds and evaluations). A nil
	// tracer is a no-op, so results are identical either way.
	Trace *observe.Tracer
	leak  []dataset.Sample
}

// NewSuite builds corpora, tokenizer and the fine-tuning pipeline.
func NewSuite(cfg Config) (*Suite, error) { return NewSuiteTraced(cfg, nil) }

// NewSuiteTraced is NewSuite with per-stage span timing on tr (which may be
// nil).
func NewSuiteTraced(cfg Config, tr *observe.Tracer) (*Suite, error) {
	s := &Suite{Cfg: cfg, Trace: tr}
	sp := tr.Start("suite.corpora")
	s.Corpora = wisdom.BuildCorpora(cfg.Corpora)
	sp.End()
	sp = tr.Start("suite.tokenizer")
	tok, err := wisdom.TrainTokenizer(s.Corpora, cfg.VocabSize)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: tokenizer: %w", err)
	}
	s.Tok = tok
	sp = tr.Start("suite.pipeline")
	s.Pipe = dataset.BuildPipeline(corpus.Galaxy(cfg.Seed+900, cfg.GalaxyFiles), cfg.Seed)
	sp.End()
	if cfg.LeakEvery > 0 {
		// Codex-sim "saw large portions" of Galaxy, diluted among billions
		// of other files: a slice of the training split plus a slice of
		// the test split leaks into its memory.
		for i, sm := range s.Pipe.Train {
			if i%5 == 0 {
				s.leak = append(s.leak, sm)
			}
		}
		for i, sm := range s.Pipe.Test {
			if i%cfg.LeakEvery == 0 {
				s.leak = append(s.leak, sm)
			}
		}
	}
	return s, nil
}

// Row is one table line: a model plus its four metric scores.
type Row struct {
	Model  string
	Size   string
	Window int
	Report metrics.Report
}

// Format renders rows as an aligned text table matching the paper's column
// order (Schema Correct, EM, BLEU, Ansible Aware).
func Format(title string, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-34s %-6s %-7s %7s %7s %7s %8s\n",
		"Model", "Size", "Window", "Schema", "EM", "BLEU", "Aware")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-34s %-6s %-7d %7.2f %7.2f %7.2f %8.2f\n",
			r.Model, r.Size, r.Window,
			r.Report.SchemaCorrect, r.Report.ExactMatch, r.Report.BLEU, r.Report.AnsibleAware)
	}
	return sb.String()
}

// ---- Table 1 ----

// Table1Row is one dataset-construction line.
type Table1Row struct {
	Source    string
	FileCount int
	// AfterDedup is the count surviving exact-match deduplication, an
	// extension over the paper's table (which reports raw counts).
	AfterDedup int
	YAMLType   string
	Usage      string
}

// Table1 regenerates the dataset-size table: file counts per source with
// the Table 1 ratios, at this run's scale.
func (s *Suite) Table1() []Table1Row {
	defer s.Trace.Start("table1").End()
	galaxy := corpus.Galaxy(s.Cfg.Seed+900, s.Cfg.GalaxyFiles)
	gitlab := corpus.GitLabAnsible(s.Cfg.Corpora.Seed+500, s.Cfg.Corpora.GitLab)
	github := corpus.GitHubGBQAnsible(s.Cfg.Corpora.Seed+600, s.Cfg.Corpora.GitHub)
	generic := corpus.GitHubGBQGeneric(s.Cfg.Corpora.Seed+400, s.Cfg.Corpora.Generic)
	row := func(name string, files []corpus.File, yamlType, usage string) Table1Row {
		return Table1Row{
			Source:     name,
			FileCount:  len(files),
			AfterDedup: len(dataset.DedupFiles(files)),
			YAMLType:   yamlType,
			Usage:      usage,
		}
	}
	return []Table1Row{
		row("Galaxy", galaxy, "Ansible", "FT"),
		row("GitLab", gitlab, "Ansible", "PT"),
		row("GitHub + GBQ", github, "Ansible", "PT"),
		row("GitHub + GBQ", generic, "Generic", "PT"),
	}
}

// ---- Table 2 ----

// Table2 returns the model/pre-training-dataset matrix.
func (s *Suite) Table2() []wisdom.Variant { return wisdom.Variants() }

// FormatTable2 renders the Table 2 checkmark matrix.
func FormatTable2(vs []wisdom.Variant) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2: model names and associated pre-training datasets\n")
	fmt.Fprintf(&sb, "%-22s %-5s %-8s %-9s %-12s %-12s\n",
		"Model", "Pile", "BigQuery", "BigPython", "AnsibleYAML", "GenericYAML")
	mark := func(b bool) string {
		if b {
			return "x"
		}
		return "-"
	}
	for _, v := range vs {
		fmt.Fprintf(&sb, "%-22s %-5s %-8s %-9s %-12s %-12s\n", v.Display,
			mark(v.Pile), mark(v.BigQuery), mark(v.BigPython), mark(v.AnsibleYAML), mark(v.GenericYAML))
	}
	return sb.String()
}

// ---- Table 3 ----

// table3Spec describes one few-shot row.
type table3Spec struct {
	id     wisdom.VariantID
	size   string
	order  int
	window int
}

// table3Rows lists the paper's Table 3 rows in order: the three CodeGen
// 350M checkpoints, the CodeGen-Multi scale sweep, Codex, and the four
// Wisdom variants. Larger "sizes" map to higher n-gram orders.
func table3Rows() []table3Spec {
	return []table3Spec{
		{wisdom.CodeGenNL, "350M", 0, 2048},
		{wisdom.CodeGenMono, "350M", 0, 2048},
		{wisdom.CodeGenMulti, "350M", 0, 2048},
		{wisdom.CodeGenMulti, "2.7B", 7, 2048},
		{wisdom.CodeGenMulti, "6B", 8, 2048},
		{wisdom.CodexDavinci, "175B", 0, 2048},
		{wisdom.WisdomAnsibleMulti, "350M", 0, 1024},
		{wisdom.WisdomYamlMulti, "350M", 0, 1024},
		{wisdom.WisdomAnsible, "350M", 0, 1024},
		{wisdom.WisdomYaml, "350M", 0, 1024},
	}
}

// Pretrained builds the few-shot model for a Table 3 row.
func (s *Suite) Pretrained(id wisdom.VariantID, size string, order, window int) (*wisdom.Model, error) {
	v, ok := wisdom.VariantByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown variant %q", id)
	}
	if order > 0 {
		v.Order = order
	}
	if size != "" {
		v.SizeLabel = size
	}
	var leak []dataset.Sample
	if v.Retrieval {
		leak = s.leak
	}
	defer s.Trace.Start("pretrain").End()
	return wisdom.Pretrain(v, s.Corpora, s.Tok, window, leak)
}

// Table3 evaluates every few-shot row.
func (s *Suite) Table3() ([]Row, error) {
	defer s.Trace.Start("table3").End()
	var rows []Row
	for _, spec := range table3Rows() {
		m, err := s.Pretrained(spec.id, spec.size, spec.order, spec.window)
		if err != nil {
			return nil, err
		}
		sp := s.Trace.Start("evaluate")
		res := wisdom.Evaluate(m, s.Pipe.Test, s.Cfg.EvalLimit)
		sp.End()
		rows = append(rows, Row{Model: displayName(spec.id), Size: spec.size, Window: spec.window, Report: res.Overall})
	}
	return rows, nil
}

func displayName(id wisdom.VariantID) string {
	v, _ := wisdom.VariantByID(id)
	return v.Display
}

// ---- Table 4 ----

// table4Spec describes one fine-tuned row.
type table4Spec struct {
	label    string
	id       wisdom.VariantID
	size     string
	order    int
	window   int
	style    dataset.PromptStyle
	fraction float64
}

func table4Rows() []table4Spec {
	return []table4Spec{
		{"CodeGen-Multi", wisdom.CodeGenMulti, "350M", 0, 512, dataset.NameCompletion, 0},
		{"CodeGen-Multi", wisdom.CodeGenMulti, "350M", 0, 1024, dataset.NameCompletion, 0},
		{"CodeGen-Multi", wisdom.CodeGenMulti, "350M", 0, 2048, dataset.NameCompletion, 0},
		{"CodeGen-Multi", wisdom.CodeGenMulti, "2.7B", 7, 1024, dataset.NameCompletion, 0},
		{"CodeGen-Multi-prefix", wisdom.CodeGenMulti, "350M", 0, 1024, dataset.PrefixPrompt, 0},
		{"Wisdom-Ansible-Multi", wisdom.WisdomAnsibleMulti, "350M", 0, 1024, dataset.NameCompletion, 0},
		{"Wisdom-Yaml-Multi", wisdom.WisdomYamlMulti, "350M", 0, 1024, dataset.NameCompletion, 0},
		{"Wisdom-Ansible", wisdom.WisdomAnsible, "350M", 0, 1024, dataset.NameCompletion, 0},
		{"Wisdom-Yaml", wisdom.WisdomYaml, "350M", 0, 1024, dataset.NameCompletion, 0},
		{"Wisdom-Ansible-Multi -50", wisdom.WisdomAnsibleMulti, "350M", 0, 1024, dataset.NameCompletion, 0.5},
		{"Wisdom-Ansible-Multi -20", wisdom.WisdomAnsibleMulti, "350M", 0, 1024, dataset.NameCompletion, 0.2},
		{"Wisdom-Ansible-Multi -10", wisdom.WisdomAnsibleMulti, "350M", 0, 1024, dataset.NameCompletion, 0.1},
	}
}

// Finetuned builds a fine-tuned model for one Table 4 configuration.
func (s *Suite) Finetuned(spec table4Spec) (*wisdom.Model, error) {
	pre, err := s.Pretrained(spec.id, spec.size, spec.order, spec.window)
	if err != nil {
		return nil, err
	}
	defer s.Trace.Start("finetune").End()
	return wisdom.Finetune(pre, s.Pipe.Train, wisdom.FinetuneConfig{
		Window:   spec.window,
		Style:    spec.style,
		Fraction: spec.fraction,
	})
}

// Table4 evaluates every fine-tuned row.
func (s *Suite) Table4() ([]Row, error) {
	defer s.Trace.Start("table4").End()
	var rows []Row
	for _, spec := range table4Rows() {
		m, err := s.Finetuned(spec)
		if err != nil {
			return nil, err
		}
		sp := s.Trace.Start("evaluate")
		res := wisdom.Evaluate(m, s.Pipe.Test, s.Cfg.EvalLimit)
		sp.End()
		rows = append(rows, Row{Model: spec.label, Size: spec.size, Window: spec.window, Report: res.Overall})
	}
	return rows, nil
}

// ---- Table 5 ----

// Table5Row is one generation-type line.
type Table5Row struct {
	Type   string
	Report metrics.Report
}

// Table5 fine-tunes CodeGen-Multi (the paper's Table 5 model) and breaks
// the evaluation down per generation type, evaluating the full test set.
func (s *Suite) Table5() ([]Table5Row, error) {
	defer s.Trace.Start("table5").End()
	m, err := s.Finetuned(table4Spec{
		id: wisdom.CodeGenMulti, size: "350M", window: 1024, style: dataset.NameCompletion,
	})
	if err != nil {
		return nil, err
	}
	sp := s.Trace.Start("evaluate")
	res := wisdom.Evaluate(m, s.Pipe.Test, 0)
	sp.End()
	rows := []Table5Row{{Type: "ALL", Report: res.Overall}}
	order := []dataset.GenType{dataset.NLtoPB, dataset.NLtoT, dataset.PBNLtoT, dataset.TNLtoT}
	for _, t := range order {
		if rep, ok := res.ByType[t]; ok {
			rows = append(rows, Table5Row{Type: t.String(), Report: rep})
		}
	}
	return rows, nil
}

// FormatTable5 renders the per-type breakdown.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 5: breakdown per generation type (CodeGen-Multi fine-tuned)\n")
	fmt.Fprintf(&sb, "%-10s %7s %7s %7s %7s %8s\n", "Type", "Count", "Schema", "EM", "BLEU", "Aware")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d %7.2f %7.2f %7.2f %8.2f\n",
			r.Type, r.Report.Count, r.Report.SchemaCorrect, r.Report.ExactMatch, r.Report.BLEU, r.Report.AnsibleAware)
	}
	return sb.String()
}

// ---- Figure 2 ----

// Figure2 returns one extracted sample per generation type, reproducing the
// paper's Fig. 2 listings from this run's own corpus.
func (s *Suite) Figure2() map[dataset.GenType]dataset.Sample {
	out := make(map[dataset.GenType]dataset.Sample, 4)
	for _, sm := range append(append([]dataset.Sample{}, s.Pipe.Train...), s.Pipe.Test...) {
		if _, ok := out[sm.Type]; !ok {
			out[sm.Type] = sm
		}
		if len(out) == 4 {
			break
		}
	}
	return out
}

// ---- throughput (pre-training section) ----

// ThroughputResult compares generation speed of a small and a large
// transformer, the basis of the paper's 350M-vs-2.7B model-size choice
// ("the 350M model was ~1.9x faster than the 2.7B").
type ThroughputResult struct {
	SmallTokensPerSec float64
	LargeTokensPerSec float64
	Ratio             float64
}

// Throughput builds two neural models in the paper's size relation and
// measures greedy-decoding tokens/second for each.
func (s *Suite) Throughput() (ThroughputResult, error) {
	defer s.Trace.Start("throughput").End()
	small, err := neural.NewModel(neural.Config{Vocab: 512, Ctx: 64, Dim: 96, Heads: 4, Layers: 4, Seed: 1})
	if err != nil {
		return ThroughputResult{}, err
	}
	large, err := neural.NewModel(neural.Config{Vocab: 512, Ctx: 64, Dim: 120, Heads: 4, Layers: 5, Seed: 1})
	if err != nil {
		return ThroughputResult{}, err
	}
	measure := func(m *neural.Model) float64 {
		prefix := []int{1, 2, 3, 4, 5, 6, 7, 8}
		const tokens = 48
		start := time.Now()
		out := m.GenerateCached(prefix, tokens, neural.GenOptions{StopToken: -1})
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			return 0
		}
		return float64(len(out)) / elapsed
	}
	res := ThroughputResult{
		SmallTokensPerSec: measure(small),
		LargeTokensPerSec: measure(large),
	}
	if res.LargeTokensPerSec > 0 {
		res.Ratio = res.SmallTokensPerSec / res.LargeTokensPerSec
	}
	return res, nil
}

// ---- decode engine (serving section) ----

// DecodeEngineRow reports the emitted-token throughput of one decode path
// on the benchmark model (the small Throughput configuration).
type DecodeEngineRow struct {
	Path         string
	TokensPerSec float64
}

// DecodeEngine measures every decode path of the engine on one model:
// the full-forward loop, the KV-cached loop, cached beam search, and eight
// sequences submitted together to a continuous-batching Engine. Beam
// reports emitted tokens/second (it does width× the internal work per
// emitted token); the engine row reports the aggregate across its
// sequences, which is the serving-relevant rate.
func (s *Suite) DecodeEngine() ([]DecodeEngineRow, error) {
	defer s.Trace.Start("decode_engine").End()
	m, err := neural.NewModel(neural.Config{Vocab: 512, Ctx: 64, Dim: 96, Heads: 4, Layers: 4, Seed: 1})
	if err != nil {
		return nil, err
	}
	prefix := []int{1, 2, 3, 4, 5, 6, 7, 8}
	const maxNew = 48
	rate := func(tokens int, elapsed time.Duration) float64 {
		if sec := elapsed.Seconds(); sec > 0 {
			return float64(tokens) / sec
		}
		return 0
	}
	var rows []DecodeEngineRow
	add := func(path string, f func() int) {
		start := time.Now()
		tokens := f()
		rows = append(rows, DecodeEngineRow{Path: path, TokensPerSec: rate(tokens, time.Since(start))})
	}
	add("generate full-forward", func() int {
		return len(m.Generate(prefix, maxNew, neural.GenOptions{StopToken: -1}))
	})
	add("generate kv-cached", func() int {
		return len(m.GenerateCached(prefix, maxNew, neural.GenOptions{StopToken: -1}))
	})
	add("beam w=4 kv-cached", func() int {
		return len(m.GenerateBeam(prefix, maxNew, neural.BeamOptions{Width: 4, StopToken: -1}))
	})
	add("engine x8 kv-cached", func() int {
		e := m.NewEngine(neural.EngineConfig{MaxBatch: 8})
		tickets := make([]*neural.Ticket, 8)
		for i := range tickets {
			p := append(append([]int(nil), prefix...), i+1)
			if tickets[i], err = e.Submit(context.Background(), p, maxNew, neural.GenOptions{StopToken: -1}); err != nil {
				break
			}
		}
		total := 0
		for _, tk := range tickets {
			if tk != nil {
				total += len(tk.Wait())
			}
		}
		if cerr := e.Close(context.Background()); err == nil {
			err = cerr
		}
		return total
	})
	return rows, err
}

// SortRowsByBLEU returns a copy of rows sorted by descending BLEU, a helper
// for shape assertions.
func SortRowsByBLEU(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Report.BLEU > out[j].Report.BLEU })
	return out
}
