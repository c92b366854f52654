package experiments

import (
	"strings"
	"sync"
	"testing"

	"wisdom/internal/dataset"
	"wisdom/internal/wisdom"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(Quick())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestTable1RatiosAndDedup(t *testing.T) {
	s := quickSuite(t)
	rows := s.Table1()
	if len(rows) != 4 {
		t.Fatalf("table 1 has %d rows, want 4", len(rows))
	}
	byUsage := map[string]int{}
	for _, r := range rows {
		if r.FileCount <= 0 {
			t.Errorf("%s: zero files", r.Source)
		}
		if r.AfterDedup > r.FileCount {
			t.Errorf("%s: dedup grew the corpus", r.Source)
		}
		if r.FileCount >= 100 && r.AfterDedup == r.FileCount {
			t.Errorf("%s: dedup removed nothing (dups exist by construction)", r.Source)
		}
		byUsage[r.Usage] += r.FileCount
	}
	if byUsage["FT"] == 0 || byUsage["PT"] == 0 {
		t.Errorf("usages = %v", byUsage)
	}
	// Table 1 shape: generic YAML ~2x the GitHub Ansible slice.
	if rows[3].FileCount != 2*rows[2].FileCount {
		t.Errorf("generic (%d) != 2x github ansible (%d)", rows[3].FileCount, rows[2].FileCount)
	}
	// GitHub >> GitLab.
	if rows[2].FileCount <= rows[1].FileCount {
		t.Errorf("github (%d) <= gitlab (%d)", rows[2].FileCount, rows[1].FileCount)
	}
}

func TestTable2Matrix(t *testing.T) {
	s := quickSuite(t)
	out := FormatTable2(s.Table2())
	for _, want := range []string{"CodeGen-NL", "Codex-Davinci-002", "Wisdom-Yaml-Multi", "BigPython"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 output missing %q:\n%s", want, out)
		}
	}
	if len(s.Table2()) != 8 {
		t.Errorf("zoo size = %d", len(s.Table2()))
	}
}

func TestTable3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full table 3 in short mode")
	}
	s := quickSuite(t)
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Format("Table 3 (few-shot)", rows))
	if len(rows) != 10 {
		t.Fatalf("table 3 has %d rows, want 10", len(rows))
	}
	byModel := map[string]Row{}
	for _, r := range rows {
		key := r.Model + " " + r.Size
		byModel[key] = r
		if r.Report.Count == 0 {
			t.Errorf("%s: empty evaluation", key)
		}
	}
	nl := byModel["CodeGen-NL 350M"]
	multi := byModel["CodeGen-Multi 350M"]
	codex := byModel["Codex-Davinci-002 175B"]
	wam := byModel["Wisdom-Ansible-Multi 350M"]

	// Paper shape: NL is the weakest on BLEU and Ansible Aware.
	for key, r := range byModel {
		if key == "CodeGen-NL 350M" {
			continue
		}
		if r.Report.AnsibleAware < nl.Report.AnsibleAware {
			t.Errorf("%s AnsibleAware %.2f < CodeGen-NL %.2f", key, r.Report.AnsibleAware, nl.Report.AnsibleAware)
		}
	}
	// Every Wisdom variant beats every CodeGen variant on Ansible Aware
	// (the paper's central few-shot claim); Codex is excluded since its
	// leak-driven score tops the paper's own Table 3 as well.
	for key, r := range byModel {
		if !strings.HasPrefix(key, "Wisdom") {
			continue
		}
		for ckey, cr := range byModel {
			if !strings.HasPrefix(ckey, "CodeGen") {
				continue
			}
			// A small tolerance absorbs quick-scale sampling noise; the
			// committed default-scale run shows the strict ordering.
			if r.Report.AnsibleAware < cr.Report.AnsibleAware-2 {
				t.Errorf("%s AnsibleAware %.2f below %s %.2f", key, r.Report.AnsibleAware, ckey, cr.Report.AnsibleAware)
			}
		}
	}
	_ = wam
	// Codex has the highest EM (leakage signature).
	for key, r := range byModel {
		if key == "Codex-Davinci-002 175B" {
			continue
		}
		if r.Report.ExactMatch > codex.Report.ExactMatch {
			t.Errorf("%s EM %.2f exceeds Codex %.2f", key, r.Report.ExactMatch, codex.Report.ExactMatch)
		}
	}
	// Multi beats NL (code pre-training helps).
	if multi.Report.BLEU <= nl.Report.BLEU {
		t.Errorf("CodeGen-Multi BLEU %.2f <= CodeGen-NL %.2f", multi.Report.BLEU, nl.Report.BLEU)
	}
}

func TestTable4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full table 4 in short mode")
	}
	s := quickSuite(t)
	rows, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Format("Table 4 (fine-tuned)", rows))
	if len(rows) != 12 {
		t.Fatalf("table 4 has %d rows, want 12", len(rows))
	}
	find := func(label string, window int) Row {
		for _, r := range rows {
			if r.Model == label && r.Window == window {
				return r
			}
		}
		t.Fatalf("row %q/%d missing", label, window)
		return Row{}
	}
	w512 := find("CodeGen-Multi", 512)
	w1024 := find("CodeGen-Multi", 1024)
	prefix := find("CodeGen-Multi-prefix", 1024)
	wam := find("Wisdom-Ansible-Multi", 1024)
	f50 := find("Wisdom-Ansible-Multi -50", 1024)
	f10 := find("Wisdom-Ansible-Multi -10", 1024)

	// Context window: 512 no better than 1024.
	if w512.Report.BLEU > w1024.Report.BLEU+2 {
		t.Errorf("window 512 BLEU %.2f notably exceeds 1024 %.2f", w512.Report.BLEU, w1024.Report.BLEU)
	}
	// Prompt formulation: name-completion beats the prefix baseline.
	if prefix.Report.BLEU >= w1024.Report.BLEU {
		t.Errorf("prefix BLEU %.2f >= name-completion %.2f", prefix.Report.BLEU, w1024.Report.BLEU)
	}
	if prefix.Report.ExactMatch > w1024.Report.ExactMatch {
		t.Errorf("prefix EM %.2f > name-completion %.2f", prefix.Report.ExactMatch, w1024.Report.ExactMatch)
	}
	// Data fraction monotone (with slack for noise): 10% <= 50% <= 100%.
	if f10.Report.BLEU > f50.Report.BLEU+2 || f50.Report.BLEU > wam.Report.BLEU+2 {
		t.Errorf("data fraction not monotone: 10%%=%.2f 50%%=%.2f 100%%=%.2f",
			f10.Report.BLEU, f50.Report.BLEU, wam.Report.BLEU)
	}
	// Wisdom-Ansible-Multi is the best fine-tuned variant on BLEU.
	for _, r := range rows {
		if strings.HasPrefix(r.Model, "Wisdom") && !strings.Contains(r.Model, "-Multi") {
			if r.Report.BLEU > wam.Report.BLEU+2 {
				t.Errorf("%s BLEU %.2f exceeds Wisdom-Ansible-Multi %.2f", r.Model, r.Report.BLEU, wam.Report.BLEU)
			}
		}
	}
}

func TestTable4BeatsTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-table comparison in short mode")
	}
	s := quickSuite(t)
	pre, err := s.Pretrained(wisdom.CodeGenMulti, "350M", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	few := wisdom.Evaluate(pre, s.Pipe.Test, s.Cfg.EvalLimit)
	ft, err := s.Finetuned(table4Spec{id: wisdom.CodeGenMulti, size: "350M", window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tuned := wisdom.Evaluate(ft, s.Pipe.Test, s.Cfg.EvalLimit)
	// "both BLEU and Ansible Aware scores increase by ~30 points": demand
	// at least a 15-point boost at this scale.
	if tuned.Overall.BLEU < few.Overall.BLEU+15 {
		t.Errorf("fine-tuning boost too small: %.2f -> %.2f", few.Overall.BLEU, tuned.Overall.BLEU)
	}
	if tuned.Overall.AnsibleAware < few.Overall.AnsibleAware+15 {
		t.Errorf("aware boost too small: %.2f -> %.2f", few.Overall.AnsibleAware, tuned.Overall.AnsibleAware)
	}
}

func TestTable5Breakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 in short mode")
	}
	s := quickSuite(t)
	rows, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatTable5(rows))
	if rows[0].Type != "ALL" {
		t.Fatalf("first row = %q", rows[0].Type)
	}
	byType := map[string]Table5Row{}
	for _, r := range rows[1:] {
		byType[r.Type] = r
	}
	// Count shape (Table 5): T+NL->T dominates; NL->PB is the rarest.
	tn := byType["T+NL->T"]
	pb := byType["NL->PB"]
	nt := byType["NL->T"]
	if tn.Report.Count <= nt.Report.Count {
		t.Errorf("T+NL->T count %d <= NL->T %d", tn.Report.Count, nt.Report.Count)
	}
	if pb.Report.Count >= tn.Report.Count {
		t.Errorf("NL->PB count %d >= T+NL->T %d", pb.Report.Count, tn.Report.Count)
	}
	// Quality shapes are asserted only for types with enough samples to be
	// statistically meaningful at this scale; the committed default-scale
	// run in EXPERIMENTS.md covers the full ordering.
	const minCount = 8
	for name, r := range byType {
		if name == "NL->PB" || r.Report.Count < minCount || pb.Report.Count < minCount {
			continue
		}
		if r.Report.BLEU < pb.Report.BLEU {
			t.Errorf("%s BLEU %.2f below NL->PB %.2f", name, r.Report.BLEU, pb.Report.BLEU)
		}
	}
	// Context helps: the dominant context-conditioned type beats NL->T, or
	// at least comes close (sampling noise allowed at quick scale).
	if tn.Report.Count >= minCount && nt.Report.Count >= minCount {
		if tn.Report.BLEU < nt.Report.BLEU-12 {
			t.Errorf("context did not help: T+NL->T %.2f far below NL->T %.2f",
				tn.Report.BLEU, nt.Report.BLEU)
		}
	}
}

func TestFigure2CoversAllTypes(t *testing.T) {
	s := quickSuite(t)
	samples := s.Figure2()
	for _, typ := range []dataset.GenType{dataset.NLtoPB, dataset.NLtoT, dataset.PBNLtoT, dataset.TNLtoT} {
		sm, ok := samples[typ]
		if !ok {
			t.Errorf("no sample for %v", typ)
			continue
		}
		if sm.Prompt == "" || sm.Target == "" {
			t.Errorf("%v: incomplete sample %+v", typ, sm)
		}
	}
}

// TestThroughputSmallFaster checks the counted form of the model-size
// claim: the small model does less work per generated token than the large
// one, by a plausible factor. The timed tok/s ratio depends on host load (a
// single 48-token decode per model), so it is logged, not asserted.
func TestThroughputSmallFaster(t *testing.T) {
	s := quickSuite(t)
	res, err := s.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("small %.1f tok/s, large %.1f tok/s, ratio %.2fx", res.SmallTokensPerSec, res.LargeTokensPerSec, res.Ratio)
	ratio := float64(res.LargeParams) / float64(res.SmallParams)
	t.Logf("small %d params, large %d params, ratio %.2fx", res.SmallParams, res.LargeParams, ratio)
	if ratio <= 1 {
		t.Errorf("small model not smaller: %d params vs %d", res.SmallParams, res.LargeParams)
	}
	if ratio > 6 {
		t.Errorf("size ratio implausibly large: %.2f", ratio)
	}
}

func TestFormatRows(t *testing.T) {
	out := Format("Title", []Row{{Model: "m", Size: "350M", Window: 1024}})
	if !strings.Contains(out, "Title") || !strings.Contains(out, "350M") {
		t.Errorf("format output: %s", out)
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	d, q := Default(), Quick()
	if d.Corpora.Pile <= q.Corpora.Pile {
		t.Error("default should be larger than quick")
	}
	if d.VocabSize < 259 || q.VocabSize < 259 {
		t.Error("vocab too small")
	}
	if d.Corpora.Generic != 2*d.Corpora.GitHub+0 {
		t.Errorf("default corpora break the Table 1 generic:ansible ratio: %d vs %d", d.Corpora.Generic, d.Corpora.GitHub)
	}
}

func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity in short mode")
	}
	s := quickSuite(t)
	rows, err := s.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatSensitivity(rows))
	if len(rows) < 5 || rows[0].Perturbation != "baseline" {
		t.Fatalf("rows = %+v", rows)
	}
	base := rows[0].Report
	if base.BLEU <= 0 {
		t.Fatal("baseline BLEU is zero")
	}
	for _, r := range rows[1:] {
		// No perturbation should *improve* the model materially, and none
		// should zero it out: robustness sits in between.
		if r.Report.BLEU > base.BLEU+5 {
			t.Errorf("%s improved BLEU from %.2f to %.2f", r.Perturbation, base.BLEU, r.Report.BLEU)
		}
		if r.Report.BLEU < base.BLEU*0.3 {
			t.Errorf("%s collapsed BLEU from %.2f to %.2f", r.Perturbation, base.BLEU, r.Report.BLEU)
		}
	}
}

func TestInsertionPenaltyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in short mode")
	}
	s := quickSuite(t)
	rows, err := s.InsertionPenaltyAblation()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatAblation(rows))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ansible Aware must be monotonically non-increasing with the penalty;
	// the controls (Schema, EM, BLEU) must be identical across settings.
	base := rows[0].Report
	prev := base.AnsibleAware
	for _, r := range rows[1:] {
		if r.Report.AnsibleAware > prev+1e-9 {
			t.Errorf("%s increased Ansible Aware: %.2f -> %.2f", r.Name, prev, r.Report.AnsibleAware)
		}
		prev = r.Report.AnsibleAware
		if r.Report.BLEU != base.BLEU || r.Report.ExactMatch != base.ExactMatch || r.Report.SchemaCorrect != base.SchemaCorrect {
			t.Errorf("%s changed a penalty-independent metric", r.Name)
		}
	}
	if rows[len(rows)-1].Report.AnsibleAware >= base.AnsibleAware {
		t.Error("the strongest penalty had no effect at all")
	}
}

func TestDecodingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("decoding ablation in short mode")
	}
	s := quickSuite(t)
	rows, err := s.DecodingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Name != "greedy" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		t.Logf("%-16s BLEU %.2f Schema %.2f", r.Name, r.Report.BLEU, r.Report.SchemaCorrect)
		if r.Report.Count == 0 || r.Report.BLEU <= 0 {
			t.Errorf("%s: empty evaluation", r.Name)
		}
	}
	// At this scale greedy should not be dramatically worse than sampling.
	if rows[1].Report.BLEU > rows[0].Report.BLEU+10 {
		t.Errorf("sampling unexpectedly dominant: %v vs %v", rows[1].Report.BLEU, rows[0].Report.BLEU)
	}
}
