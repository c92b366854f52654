package wisdom_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wisdom/internal/dataset"
	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/serve"
	"wisdom/internal/tokenizer"
	"wisdom/internal/wisdom"
)

// schedStressModel trains the tiny memorisable transformer the streaming
// tests use, as a wisdom.Model the serving stack can wrap.
func schedStressModel(t *testing.T) *wisdom.Model {
	t.Helper()
	task := "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n"
	texts := []string{task, task, task, task}
	tok, err := tokenizer.Train(texts, 300)
	if err != nil {
		t.Fatal(err)
	}
	const ctx = 64
	nm, err := neural.NewModel(neural.Config{
		Vocab: tok.VocabSize(), Ctx: ctx, Dim: 32, Heads: 2, Layers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nm.Train(dataset.PackFiles(tok, texts, ctx), neural.TrainConfig{Epochs: 120, LR: 3e-3, BatchSize: 4, Seed: 1})
	return &wisdom.Model{
		Name:       "neural-sched-stress",
		Tok:        tok,
		LM:         &wisdom.NeuralLM{Model: nm},
		CtxWindow:  ctx,
		Style:      dataset.NameCompletion,
		MaxNewTask: 28,
	}
}

// TestSchedStressHTTP drives the whole serving stack — HTTP handler, worker
// pool, response cache off, continuous-batching engine, transformer decode —
// with mixed concurrent unary and streamed traffic over a real transformer.
// Every answer must be a well-formed task identical to the serial Predict,
// the engine (not the serial path) must have decoded the traffic, and the
// scheduler metrics must be exported. TestE2ETransformerCheckpoint covers the
// same engine behind the real binary.
func TestSchedStressHTTP(t *testing.T) {
	model := schedStressModel(t)
	want := model.Predict("", "Install nginx")
	if !strings.HasPrefix(want, "- name:") {
		t.Fatalf("serial Predict = %q", want)
	}
	if !model.EnableScheduler(neural.EngineConfig{MaxBatch: 4}) {
		t.Fatal("EnableScheduler returned false on a neural model")
	}
	defer model.CloseScheduler(context.Background())

	// Cache off so every request reaches the engine; 8 workers so the pool
	// admits two full step batches of traffic at once.
	srv := serve.NewServerWithOptions(model, model.Name, serve.Options{Workers: 8, CacheSize: 0})
	reg := observe.NewRegistry()
	srv.Instrument(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 24
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.Request{Prompt: "Install nginx"})
			if i%3 == 2 {
				// Streamed leg: deltas must concatenate to the unary answer
				// (or the done event must flag the rewrite).
				resp, err := http.Post(ts.URL+"/v1/completions/stream", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err.Error()
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != 200 {
					errs[i] = fmt.Sprintf("stream status %d", resp.StatusCode)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				if !strings.Contains(string(raw), "event: done") {
					errs[i] = "stream ended without a done event"
				}
				return
			}
			resp, err := http.Post(ts.URL+"/v1/completions", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			var out serve.Response
			data, _ := io.ReadAll(resp.Body)
			if err := json.Unmarshal(data, &out); err != nil {
				errs[i] = fmt.Sprintf("bad response %q", data)
				return
			}
			if resp.StatusCode != 200 {
				errs[i] = fmt.Sprintf("status %d: %s", resp.StatusCode, out.Error)
				return
			}
			if out.Suggestion != want {
				errs[i] = fmt.Sprintf("suggestion %q, want %q", out.Suggestion, want)
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("request %d: %s", i, e)
		}
	}

	// The engine, not the serial path, decoded the traffic.
	st := srv.Stats()
	if !st.SchedEnabled || st.SchedMaxBatch != 4 {
		t.Fatalf("stats sched shape = %+v", st)
	}
	if st.SchedAdmitted == 0 || st.SchedAdmitted != st.SchedRetired {
		t.Errorf("sched admitted=%d retired=%d, want equal and nonzero", st.SchedAdmitted, st.SchedRetired)
	}
	if st.SchedActive != 0 || st.SchedQueued != 0 {
		t.Errorf("sched active=%d queued=%d after drain, want 0/0", st.SchedActive, st.SchedQueued)
	}
	if st.SchedOccupancy <= 0 || st.SchedOccupancy > 1 {
		t.Errorf("SchedOccupancy = %v, want in (0, 1]", st.SchedOccupancy)
	}
	t.Logf("sched stress: %d admitted, cumulative occupancy %.2f", st.SchedAdmitted, st.SchedOccupancy)
	if got := srv.Pool().Active(); got != 0 {
		t.Errorf("pool.Active = %d after drain, want 0 (slot leak)", got)
	}

	// The scheduler metrics are exported.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"wisdom_sched_batch_occupancy", "wisdom_sched_queue_depth",
		"wisdom_sched_admitted_total", "wisdom_sched_retired_total",
		"wisdom_sched_queue_wait_seconds",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}
