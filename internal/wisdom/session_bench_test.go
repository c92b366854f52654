package wisdom

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"wisdom/internal/dataset"
	"wisdom/internal/neural"
	"wisdom/internal/tokenizer"
)

// The session benchmarks time the same keystroke exchange —
// an editor with a playbook already in the buffer, the user finishing a task
// name — once against a warm session (the previous keystroke's decode state
// is resident, only the newly typed suffix re-steps) and once stateless
// (every keystroke re-primes the whole rendered context). first-body-ns/op,
// the wait for the first generated delta, is the number an editor user feels.

var (
	benchSessionOnce  sync.Once
	benchSessionModel *Model
	benchSessionCtx   string
)

// sessionBenchModel is streamTestModel with a 256-token window, so the
// realistic case — a playbook of several accepted tasks above the cursor —
// fits in the context a cold request must re-prime.
func sessionBenchModel(b *testing.B) (*Model, string) {
	b.Helper()
	benchSessionOnce.Do(func() {
		task := "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n"
		texts := []string{task, task, task, task}
		tok, err := tokenizer.Train(texts, 300)
		if err != nil {
			b.Fatal(err)
		}
		const ctx = 256
		nm, err := neural.NewModel(neural.Config{
			Vocab: tok.VocabSize(), Ctx: ctx, Dim: 32, Heads: 2, Layers: 2, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		nm.Train(dataset.PackFiles(tok, texts, ctx), neural.TrainConfig{Epochs: 120, LR: 3e-3, BatchSize: 4, Seed: 1})
		benchSessionModel = &Model{
			Name:       "neural-session-bench",
			Tok:        tok,
			LM:         &NeuralLM{Model: nm},
			CtxWindow:  ctx,
			Style:      dataset.NameCompletion,
			MaxNewTask: 28,
		}
		benchSessionModel.EnableSessions(neural.SessionCacheConfig{})
		// The buffer above the cursor: three tasks already accepted, shaped
		// like the training corpus (bare task list) so the decode produces a
		// multi-line body for first-body-ns/op to observe.
		benchSessionCtx = strings.Repeat(task, 3)
	})
	return benchSessionModel, benchSessionCtx
}

// sessionBenchStep runs one streamed completion of the final keystroke,
// returning the waits for the first delta and the first generated delta.
func sessionBenchStep(m *Model, yamlCtx, sessionID string) (ttft, firstBody time.Duration) {
	start := time.Now()
	n := 0
	m.PredictStreamSession(context.Background(), sessionID, yamlCtx, "Install nginx", func(string) {
		n++
		switch n {
		case 1:
			ttft = time.Since(start)
		case 2:
			firstBody = time.Since(start)
		}
	})
	return ttft, firstBody
}

// BenchmarkPredictSessionWarm measures the keystroke a session exists for:
// the previous request ("Install ngin") left its decode state in the
// session, so completing "Install nginx" re-steps only the typed suffix.
// The priming keystroke runs outside the timer each iteration.
func BenchmarkPredictSessionWarm(b *testing.B) {
	m, yamlCtx := sessionBenchModel(b)
	var ttft, firstBody time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.PredictSession("bench-editor", yamlCtx, "Install ngin") // previous keystroke
		b.StartTimer()
		t1, t2 := sessionBenchStep(m, yamlCtx, "bench-editor")
		ttft += t1
		firstBody += t2
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(ttft.Nanoseconds())/float64(b.N), "ttft-ns/op")
		b.ReportMetric(float64(firstBody.Nanoseconds())/float64(b.N), "first-body-ns/op")
	}
}

// BenchmarkPredictSessionCold is the same final keystroke without a session:
// the whole rendered context re-primes before the first generated token.
func BenchmarkPredictSessionCold(b *testing.B) {
	m, yamlCtx := sessionBenchModel(b)
	var ttft, firstBody time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1, t2 := sessionBenchStep(m, yamlCtx, "")
		ttft += t1
		firstBody += t2
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(ttft.Nanoseconds())/float64(b.N), "ttft-ns/op")
		b.ReportMetric(float64(firstBody.Nanoseconds())/float64(b.N), "first-body-ns/op")
	}
}
