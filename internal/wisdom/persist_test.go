package wisdom

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"wisdom/internal/lexical"
	"wisdom/internal/neural"
	"wisdom/internal/ngram"
)

// reload sends m through Save and LoadModel.
func reload(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSaveLoadPretrained(t *testing.T) {
	r := getRig(t)
	m := pretrain(t, r, WisdomAnsible) // plain NgramLM
	// Budgets short enough to cut every body: a reload that fell back to
	// the defaults would generate past them.
	m.MaxNewTask, m.MaxNewPlaybook = 7, 11
	back := reload(t, m)
	if back.Name != m.Name || back.CtxWindow != m.CtxWindow || back.FewShotHint != m.FewShotHint ||
		back.MaxNewTask != 7 || back.MaxNewPlaybook != 11 {
		t.Errorf("policy fields changed: %+v vs %+v", back, m)
	}
	for _, s := range r.pipe.Test[:5] {
		a, b := m.GenerateSample(s), back.GenerateSample(s)
		if a != b {
			t.Fatalf("generation changed after reload:\n%q\n%q", a, b)
		}
	}
}

func TestSaveLoadFinetuned(t *testing.T) {
	r := getRig(t)
	pre := pretrain(t, r, WisdomAnsibleMulti) // blend-backed
	ft, err := Finetune(pre, r.pipe.Train, FinetuneConfig{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	back := reload(t, ft)
	if back.Retr == nil || back.Retr.Len() != ft.Retr.Len() {
		t.Fatalf("memory lost: %v", back.Retr)
	}
	if back.RetrThreshold != ft.RetrThreshold {
		t.Errorf("threshold changed: %v vs %v", back.RetrThreshold, ft.RetrThreshold)
	}
	for _, s := range r.pipe.Test[:5] {
		a, b := ft.GenerateSample(s), back.GenerateSample(s)
		if a != b {
			t.Fatalf("fine-tuned generation changed after reload:\n%q\n%q", a, b)
		}
	}
	// Predict path works end to end on the reloaded model.
	out := back.Predict("", "Install nginx")
	if out != ft.Predict("", "Install nginx") {
		t.Error("Predict changed after reload")
	}
}

// memoryTransformer is the tiny trained transformer with a retrieval memory
// whose direct-hit threshold is out of reach: every request decodes, and the
// memory only backs the invalid-body fallback.
func memoryTransformer(t *testing.T) *Model {
	t.Helper()
	m := streamTestModel(t)
	m.Retr = NewMemory()
	m.Retr.Add(memoryKey(m.Tok, "Install nginx"), m.Tok.Encode("- name: Install nginx\n"),
		m.Tok.Encode("  ansible.builtin.apt:\n    name: nginx\n"), 0)
	m.Retr.Build()
	m.RetrThreshold = 2
	return m
}

// TestSaveLoadEveryKind: one checkpoint carries every LM kind, and the
// reloaded model answers byte-identically, unary and streamed.
func TestSaveLoadEveryKind(t *testing.T) {
	r := getRig(t)
	prompts := [][2]string{ // context, prompt
		{"", "Install nginx"},
		{"", "restart the postgresql service"},
		{"- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n", "Start nginx"},
	}
	for name, m := range map[string]*Model{
		"ngram":       pretrain(t, r, WisdomAnsible),
		"blend":       pretrain(t, r, WisdomAnsibleMulti), // continued pre-training: interpolated, baseMargin 2
		"transformer": memoryTransformer(t),
	} {
		back := reload(t, m)
		if reflect.TypeOf(back.LM) != reflect.TypeOf(m.LM) {
			t.Fatalf("%s: reloaded LM is %T, saved %T", name, back.LM, m.LM)
		}
		for _, p := range prompts {
			want := m.Predict(p[0], p[1])
			if got := back.Predict(p[0], p[1]); got != want {
				t.Errorf("%s: Predict(%q) after reload = %q, want %q", name, p[1], got, want)
			}
			var wantDeltas, gotDeltas strings.Builder
			wantFinal := m.PredictStream(context.Background(), p[0], p[1], func(d string) { wantDeltas.WriteString(d) })
			gotFinal := back.PredictStream(context.Background(), p[0], p[1], func(d string) { gotDeltas.WriteString(d) })
			if gotFinal != wantFinal || gotDeltas.String() != wantDeltas.String() {
				t.Errorf("%s: PredictStream(%q) after reload = %q / deltas %q, want %q / %q",
					name, p[1], gotFinal, gotDeltas.String(), wantFinal, wantDeltas.String())
			}
		}
		// The standalone weights file is the same snapshot the checkpoint embeds.
		if nl, ok := m.LM.(*NeuralLM); ok {
			var buf bytes.Buffer
			if err := nl.Model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			alone, err := neural.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(alone.Snapshot(), back.LM.(*NeuralLM).Model.Snapshot()) {
				t.Error("neural.Load of the standalone form differs from the embedded section")
			}
		}
	}
}

// preVersionSnapshot is the layout Save wrote before checkpoints carried a
// version: what a file saved by an older build decodes from.
type preVersionSnapshot struct {
	Name       string
	Kind       string
	CtxWindow  int
	Tokenizer  []byte
	Primary    []byte
	LexPrimary []byte
	Weight     float64
	MemKeys    [][]int
}

// TestLoadModelGarbage: whatever is wrong with the file, LoadModel returns
// an error naming it and does not panic.
func TestLoadModelGarbage(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var saved bytes.Buffer
	if err := memoryTransformer(t).Save(&saved); err != nil {
		t.Fatal(err)
	}
	// edited returns the valid transformer checkpoint after edit changed it.
	edited := func(edit func(cp *checkpoint)) []byte {
		var cp checkpoint
		if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&cp); err != nil {
			t.Fatal(err)
		}
		edit(&cp)
		return encode(cp)
	}
	ng, err := ngram.Train([][]int{{1, 2, 3, 4}}, 3, 300)
	if err != nil {
		t.Fatal(err)
	}
	tableSnap := ng.Snapshot()
	table := &tableSnap

	for _, row := range []struct {
		name, wantErr string
		file          []byte
	}{
		{"not gob", "decode", []byte("nope")},
		{"truncated", "decode", saved.Bytes()[:saved.Len()/2]},
		{"pre-version layout", "checkpoint version 0, want 1 — re-save with wisdom-train -save",
			encode(preVersionSnapshot{Name: "old", Kind: "ngram", CtxWindow: 1024, Tokenizer: []byte("{}"),
				Primary: []byte("gob"), LexPrimary: []byte("gob"), Weight: 1, MemKeys: [][]int{{1}}})},
		{"later version", "checkpoint version 2, want 1", edited(func(cp *checkpoint) { cp.Version = 2 })},
		{"tokenizer cut", "tokenizer", edited(func(cp *checkpoint) { cp.Tokenizer = []byte(`{"vocab":["a"]}`) })},
		{"unknown kind", `kind "rnn"`, edited(func(cp *checkpoint) { cp.Kind = "rnn" })},
		{"transformer without weights", "transformer=false", edited(func(cp *checkpoint) { cp.Transformer = nil })},
		{"transformer with a stray table", "ngram=true", edited(func(cp *checkpoint) { cp.Ngram = table })},
		{"ngram without table", "ngram=false", edited(func(cp *checkpoint) { cp.Kind, cp.Transformer = kindNgram, nil })},
		{"blend without base", "base=false", edited(func(cp *checkpoint) {
			cp.Kind, cp.Transformer, cp.Ngram = kindBlend, nil, table
		})},
		{"ngram levels missing", "levels", edited(func(cp *checkpoint) {
			short := *table
			short.Levels = short.Levels[:1]
			cp.Kind, cp.Transformer, cp.Ngram = kindNgram, nil, &short
		})},
		{"lexical channel without vocabulary", "vocabulary", edited(func(cp *checkpoint) {
			cp.Kind, cp.Transformer, cp.Ngram, cp.Lex = kindNgram, nil, table, &lexical.Snapshot{}
		})},
		{"tensor missing", "tensors", edited(func(cp *checkpoint) {
			cp.Transformer.Weights = cp.Transformer.Weights[:len(cp.Transformer.Weights)-1]
		})},
		{"tensor cut", "weights, want", edited(func(cp *checkpoint) {
			cp.Transformer.Weights[3] = cp.Transformer.Weights[3][:5]
		})},
		{"architecture invalid", "heads", edited(func(cp *checkpoint) { cp.Transformer.Cfg.Heads = 0 })},
		{"transformer smaller than tokenizer", "embeds", edited(func(cp *checkpoint) {
			small, _ := neural.NewModel(neural.Config{Vocab: 8, Ctx: 8, Dim: 4, Heads: 1, Layers: 1})
			snap := small.Snapshot()
			cp.Transformer = &snap
		})},
	} {
		m, err := LoadModel(bytes.NewReader(row.file))
		if err == nil {
			t.Errorf("%s: accepted as %q", row.name, m.Name)
		} else if !strings.Contains(err.Error(), row.wantErr) {
			t.Errorf("%s: error %q does not mention %q", row.name, err, row.wantErr)
		}
	}
}
