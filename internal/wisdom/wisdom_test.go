package wisdom

import (
	"strings"
	"sync"
	"testing"

	"wisdom/internal/ansible"
	"wisdom/internal/corpus"
	"wisdom/internal/dataset"
	"wisdom/internal/tokenizer"
	"wisdom/internal/yaml"
)

// testRig caches the expensive shared fixtures across tests.
type testRig struct {
	corp  *Corpora
	tok   *tokenizer.Tokenizer
	pipe  *dataset.Pipeline
	limit int
}

var (
	rigOnce sync.Once
	rig     *testRig
)

func getRig(t *testing.T) *testRig {
	t.Helper()
	rigOnce.Do(func() {
		cfg := CorporaConfig{Seed: 3, Pile: 250, BigQuery: 250, BigPython: 120, GitLab: 40, GitHub: 400, Generic: 700}
		corp := BuildCorpora(cfg)
		tok, err := TrainTokenizer(corp, 2048)
		if err != nil {
			panic(err)
		}
		pipe := dataset.BuildPipeline(corpus.Galaxy(77, 220), 5)
		rig = &testRig{corp: corp, tok: tok, pipe: pipe, limit: 40}
	})
	if rig == nil {
		t.Fatal("rig init failed")
	}
	return rig
}

func pretrain(t *testing.T, r *testRig, id VariantID) *Model {
	t.Helper()
	v, ok := VariantByID(id)
	if !ok {
		t.Fatalf("unknown variant %s", id)
	}
	var leak []dataset.Sample
	if v.Retrieval {
		// Codex-sim "saw" a slice of Galaxy, including test-set files.
		leak = append(leak, rigLeak(r)...)
	}
	m, err := Pretrain(v, r.corp, r.tok, 2048, leak)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rigLeak exposes some of the pipeline's own samples (train + test) to the
// Codex-sim retrieval channel, the leakage the paper hypothesises.
func rigLeak(r *testRig) []dataset.Sample {
	var leak []dataset.Sample
	leak = append(leak, r.pipe.Train...)
	for i, s := range r.pipe.Test {
		if i%4 == 0 { // "large portions", not all
			leak = append(leak, s)
		}
	}
	return leak
}

func TestVariantsTable2(t *testing.T) {
	vs := Variants()
	if len(vs) != 8 {
		t.Fatalf("zoo has %d variants, want 8", len(vs))
	}
	byID := map[VariantID]Variant{}
	for _, v := range vs {
		byID[v.ID] = v
	}
	// Table 2 checkmark matrix.
	checks := []struct {
		id                             VariantID
		pile, bq, py, ansible, generic bool
	}{
		{CodeGenNL, true, false, false, false, false},
		{CodeGenMulti, true, true, false, false, false},
		{CodeGenMono, true, true, true, false, false},
		{WisdomAnsible, false, false, false, true, false},
		{WisdomYaml, false, false, false, true, true},
		{WisdomAnsibleMulti, true, true, false, true, false},
		{WisdomYamlMulti, true, true, false, true, true},
	}
	for _, c := range checks {
		v := byID[c.id]
		if v.Pile != c.pile || v.BigQuery != c.bq || v.BigPython != c.py ||
			v.AnsibleYAML != c.ansible || v.GenericYAML != c.generic {
			t.Errorf("%s dataset row = %+v, want %+v", c.id, v, c)
		}
	}
	if !byID[CodexDavinci].Retrieval {
		t.Error("codex-sim lacks the retrieval channel")
	}
}

func TestPipelineSamplesAvailable(t *testing.T) {
	r := getRig(t)
	if len(r.pipe.Train) < 100 || len(r.pipe.Test) < 20 {
		t.Fatalf("pipeline too small: train=%d test=%d", len(r.pipe.Train), len(r.pipe.Test))
	}
}

func TestFewShotWisdomBeatsNL(t *testing.T) {
	// The paper's central few-shot claim (Table 3): YAML pre-training
	// beats NL-only pre-training on every structural metric.
	r := getRig(t)
	nl := pretrain(t, r, CodeGenNL)
	wis := pretrain(t, r, WisdomAnsible)
	resNL := Evaluate(nl, r.pipe.Test, r.limit)
	resWis := Evaluate(wis, r.pipe.Test, r.limit)
	t.Logf("CodeGen-NL:     %+v", resNL.Overall)
	t.Logf("Wisdom-Ansible: %+v", resWis.Overall)
	if resWis.Overall.BLEU <= resNL.Overall.BLEU {
		t.Errorf("BLEU: wisdom %v <= nl %v", resWis.Overall.BLEU, resNL.Overall.BLEU)
	}
	if resWis.Overall.AnsibleAware <= resNL.Overall.AnsibleAware {
		t.Errorf("AnsibleAware: wisdom %v <= nl %v", resWis.Overall.AnsibleAware, resNL.Overall.AnsibleAware)
	}
	if resWis.Overall.SchemaCorrect < resNL.Overall.SchemaCorrect {
		t.Errorf("SchemaCorrect: wisdom %v < nl %v", resWis.Overall.SchemaCorrect, resNL.Overall.SchemaCorrect)
	}
}

func TestCodexHighExactMatch(t *testing.T) {
	// Table 3: Codex has the highest EM of the few-shot models (leakage).
	r := getRig(t)
	codex := pretrain(t, r, CodexDavinci)
	multi := pretrain(t, r, CodeGenMulti)
	resCodex := Evaluate(codex, r.pipe.Test, r.limit)
	resMulti := Evaluate(multi, r.pipe.Test, r.limit)
	t.Logf("Codex-sim EM=%v  Multi EM=%v", resCodex.Overall.ExactMatch, resMulti.Overall.ExactMatch)
	if resCodex.Overall.ExactMatch <= resMulti.Overall.ExactMatch {
		t.Errorf("codex EM %v <= codegen-multi EM %v", resCodex.Overall.ExactMatch, resMulti.Overall.ExactMatch)
	}
}

func TestFinetuningBoosts(t *testing.T) {
	// Table 4 vs Table 3: fine-tuning largely boosts every metric.
	r := getRig(t)
	pre := pretrain(t, r, CodeGenMulti)
	few := Evaluate(pre, r.pipe.Test, r.limit)
	ft, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tuned := Evaluate(ft, r.pipe.Test, r.limit)
	t.Logf("few-shot:   %+v", few.Overall)
	t.Logf("fine-tuned: %+v", tuned.Overall)
	if tuned.Overall.BLEU <= few.Overall.BLEU {
		t.Errorf("BLEU: tuned %v <= few-shot %v", tuned.Overall.BLEU, few.Overall.BLEU)
	}
	if tuned.Overall.AnsibleAware <= few.Overall.AnsibleAware {
		t.Errorf("AnsibleAware: tuned %v <= few-shot %v", tuned.Overall.AnsibleAware, few.Overall.AnsibleAware)
	}
	if tuned.Overall.ExactMatch < few.Overall.ExactMatch {
		t.Errorf("EM: tuned %v < few-shot %v", tuned.Overall.ExactMatch, few.Overall.ExactMatch)
	}
}

func TestDataFractionMonotone(t *testing.T) {
	// Table 4 bottom: more fine-tuning data, better scores.
	r := getRig(t)
	var last float64 = -1
	for _, frac := range []float64{0.1, 1.0} {
		pre := pretrain(t, r, CodeGenMulti)
		ft, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024, Fraction: frac})
		if err != nil {
			t.Fatal(err)
		}
		res := Evaluate(ft, r.pipe.Test, r.limit)
		t.Logf("fraction %v: BLEU %v", frac, res.Overall.BLEU)
		if res.Overall.BLEU < last {
			t.Errorf("BLEU decreased with more data: %v -> %v", last, res.Overall.BLEU)
		}
		last = res.Overall.BLEU
	}
}

func TestPrefixPromptWorse(t *testing.T) {
	// Table 4: the name-completion formulation beats the prefix baseline.
	r := getRig(t)
	pre := pretrain(t, r, CodeGenMulti)
	name, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pre2 := pretrain(t, r, CodeGenMulti)
	prefix, err := Finetune(pre2, r.pipe.Train, FinetuneConfig{Window: 1024, Style: dataset.PrefixPrompt})
	if err != nil {
		t.Fatal(err)
	}
	resName := Evaluate(name, r.pipe.Test, r.limit)
	resPrefix := Evaluate(prefix, r.pipe.Test, r.limit)
	t.Logf("name-completion BLEU=%v  prefix BLEU=%v", resName.Overall.BLEU, resPrefix.Overall.BLEU)
	if resName.Overall.BLEU <= resPrefix.Overall.BLEU {
		t.Errorf("prompt formulation effect missing: name %v <= prefix %v",
			resName.Overall.BLEU, resPrefix.Overall.BLEU)
	}
}

func TestPredictProducesValidTask(t *testing.T) {
	r := getRig(t)
	pre := pretrain(t, r, WisdomAnsibleMulti)
	ft, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	out := ft.Predict("", "Install nginx")
	if !strings.HasPrefix(out, "- name: Install nginx\n") {
		t.Fatalf("Predict output lacks name line:\n%s", out)
	}
	node, err := yaml.Parse(out)
	if err != nil {
		t.Fatalf("Predict output does not parse: %v\n%s", err, out)
	}
	v := ansible.NewValidator()
	if errs := v.ValidateTaskList(node); len(errs) != 0 {
		t.Errorf("Predict output fails schema: %v\n%s", errs, out)
	}
	if !strings.Contains(out, "nginx") || !strings.Contains(out, ":") {
		t.Errorf("suspicious prediction:\n%s", out)
	}
}

func TestEvaluatePerTypeBreakdown(t *testing.T) {
	r := getRig(t)
	pre := pretrain(t, r, CodeGenMulti)
	ft, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(ft, r.pipe.Test, 0)
	total := 0
	for _, rep := range res.ByType {
		total += rep.Count
	}
	if total != res.Overall.Count {
		t.Errorf("per-type counts %d != overall %d", total, res.Overall.Count)
	}
	if res.Overall.Count != len(r.pipe.Test) {
		t.Errorf("evaluated %d, want all %d", res.Overall.Count, len(r.pipe.Test))
	}
}

func TestStopFuncStopsAtDedent(t *testing.T) {
	r := getRig(t)
	m := &Model{Tok: r.tok}
	stop := m.stopFunc(dataset.TNLtoT, 0)
	// A completion that dedents to a new task must stop (checked at a
	// multiple of 8 tokens).
	ids := r.tok.Encode("  mod:\n    a: 1\n- name: next\n  x:\n    b: 2\n    c: 3\n    d: 4\n")
	for len(ids)%8 != 0 {
		ids = append(ids, r.tok.Encode(" ")...)
	}
	if !stop(ids) {
		t.Error("stopFunc did not stop after dedent")
	}
	short := r.tok.Encode("  mod:")
	if stop(short) && len(short)%8 == 0 {
		t.Error("stopFunc stopped before any complete line")
	}
}

func TestFinetuneRequiresNgram(t *testing.T) {
	r := getRig(t)
	m := &Model{Tok: r.tok, LM: &NeuralLM{}}
	if _, err := Finetune(m, r.pipe.Train, FinetuneConfig{}); err == nil {
		t.Error("Finetune accepted a neural base")
	}
	empty := &Model{Tok: r.tok, LM: &blendLM{}}
	if _, err := Finetune(empty, r.pipe.Train, FinetuneConfig{}); err == nil {
		t.Error("Finetune accepted an empty blend base")
	}
}

func TestFinetuneWithValidation(t *testing.T) {
	r := getRig(t)
	pre := pretrain(t, r, CodeGenMulti)
	m, validBLEU, err := FinetuneWithValidation(pre, r.pipe.Train, r.pipe.Valid,
		FinetuneConfig{Window: 1024}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || validBLEU <= 0 {
		t.Fatalf("selection failed: %v %v", m, validBLEU)
	}
	// The selected model must be at least as good on validation as a fixed
	// default fine-tune.
	fixed, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fixedBLEU := Evaluate(fixed, r.pipe.Valid, 30).Overall.BLEU
	if validBLEU < fixedBLEU-1e-9 {
		t.Errorf("selected valid BLEU %.2f below fixed %.2f", validBLEU, fixedBLEU)
	}
	// And it still works on test.
	res := Evaluate(m, r.pipe.Test, 20)
	if res.Overall.BLEU <= 0 {
		t.Error("selected model scores zero on test")
	}
}

// TestPredictSampleIndent pins the name-line indent decision: only a line
// whose key is exactly tasks, pre_tasks or post_tasks nests the new task
// under a play. A role task file that merely includes other task files
// stays at column 0 (the substring "tasks:" used to flip it to 4).
func TestPredictSampleIndent(t *testing.T) {
	cases := []struct {
		name    string
		context string
		indent  int
		typ     dataset.GenType
	}{
		{"empty context", "", 0, dataset.NLtoT},
		{"include_tasks at column 0", "- include_tasks: setup.yml\n", 0, dataset.TNLtoT},
		{"import_tasks at column 2", "- name: Pull in the common tasks\n  import_tasks: common.yml\n", 0, dataset.TNLtoT},
		{"play with tasks", "- hosts: all\n  tasks:\n    - name: Ping\n      ansible.builtin.ping:\n", 4, dataset.TNLtoT},
		{"play with pre_tasks", "- hosts: web\n  pre_tasks:\n    - name: Ping\n      ansible.builtin.ping:\n", 4, dataset.TNLtoT},
		{"tasks as the play's first key", "- tasks:\n    - name: Ping\n      ansible.builtin.ping:\n", 4, dataset.TNLtoT},
		{"tasks only inside a value", "- name: Run the tasks: all of them\n  ansible.builtin.ping:\n", 0, dataset.TNLtoT},
	}
	var m Model
	for _, c := range cases {
		s, nameLine, indent := m.predictSample(c.context, "Install nginx")
		if indent != c.indent || s.Type != c.typ {
			t.Errorf("%s: indent %d type %v, want %d %v", c.name, indent, s.Type, c.indent, c.typ)
		}
		if want := strings.Repeat(" ", c.indent) + "- name: Install nginx"; nameLine != want || s.NameLine != want {
			t.Errorf("%s: name line %q, want %q", c.name, nameLine, want)
		}
	}
}
