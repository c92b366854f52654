package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"wisdom/internal/observe"
)

// schedOverloadErr mimics the engine's queue-full rejection: an error that
// classifies itself Overloaded() without the serve package importing neural.
type schedOverloadErr struct{}

func (schedOverloadErr) Error() string    { return "decode engine admission queue full" }
func (schedOverloadErr) Overloaded() bool { return true }

// schedEchoModel implements the scheduled predictor surface and records
// which path each request took.
type schedEchoModel struct {
	enabled bool

	mu               sync.Mutex
	plainCalls       int
	streamCalls      int
	schedCalls       int
	schedStreamCalls int
	queueWaitObs     func(float64)
}

func (m *schedEchoModel) answer(prompt string) string {
	return "- name: " + prompt + "\n  ansible.builtin.debug:\n"
}

func (m *schedEchoModel) Predict(_, prompt string) string {
	m.mu.Lock()
	m.plainCalls++
	m.mu.Unlock()
	return m.answer(prompt)
}

func (m *schedEchoModel) PredictStream(_ context.Context, _, prompt string, emit func(string)) string {
	m.mu.Lock()
	m.streamCalls++
	m.mu.Unlock()
	v := m.answer(prompt)
	emit(v)
	return v
}

func (m *schedEchoModel) PredictSched(_ context.Context, _, prompt string) (string, error) {
	m.mu.Lock()
	m.schedCalls++
	m.mu.Unlock()
	return m.answer(prompt), nil
}

func (m *schedEchoModel) PredictStreamSched(_ context.Context, _, prompt string, emit func(string)) (string, error) {
	m.mu.Lock()
	m.schedStreamCalls++
	m.mu.Unlock()
	v := m.answer(prompt)
	emit(v)
	return v, nil
}

func (m *schedEchoModel) SchedStats() (bool, int, int, int, uint64, uint64, uint64, uint64) {
	// active 2 of maxBatch 4, 1 queued; 320 row-steps over 100 steps of a
	// 4-slot batch = 0.8 cumulative occupancy.
	return m.enabled, 4, 2, 1, 10, 8, 100, 320
}

func (m *schedEchoModel) SetSchedQueueWaitObserver(fn func(float64)) {
	m.mu.Lock()
	m.queueWaitObs = fn
	m.mu.Unlock()
}

func (m *schedEchoModel) calls() (plain, stream, sched, schedStream int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plainCalls, m.streamCalls, m.schedCalls, m.schedStreamCalls
}

// TestSchedRoutedThroughEngine checks a server over a scheduler-enabled
// model routes unary requests through PredictSched and still caches the
// answer.
func TestSchedRoutedThroughEngine(t *testing.T) {
	model := &schedEchoModel{enabled: true}
	s := NewServerWithOptions(model, "sched-test", Options{Workers: 2, CacheSize: 8})

	resp, err := s.predict(context.Background(), Request{Prompt: "p"}, "http")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Suggestion != model.answer("p") {
		t.Errorf("suggestion = %q", resp.Suggestion)
	}
	plain, _, sched, _ := model.calls()
	if sched != 1 || plain != 0 {
		t.Errorf("calls plain=%d sched=%d, want only sched=1", plain, sched)
	}

	// The answer must have landed in the cache: a repeat is a cache hit that
	// never reaches the engine.
	resp, err = s.predict(context.Background(), Request{Prompt: "p"}, "http")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("repeat request missed the cache")
	}
	if _, _, sched, _ = model.calls(); sched != 1 {
		t.Errorf("cached repeat reached the engine: sched=%d", sched)
	}
}

// TestSchedMetricsAndStats checks the scheduler gauges/counters registered
// by Instrument (including the queue-wait histogram hook) and the sched
// fields of /v1/stats.
func TestSchedMetricsAndStats(t *testing.T) {
	model := &schedEchoModel{enabled: true}
	srv := NewServerWithOptions(model, "m", Options{Workers: 1})
	reg := observe.NewRegistry()
	srv.Instrument(reg)

	if model.queueWaitObs == nil {
		t.Fatal("queue-wait observer not wired by Instrument")
	}
	model.queueWaitObs(0.25) // one histogram sample

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, buf.String())
	if got := samples["wisdom_sched_batch_occupancy"]; got != 0.5 {
		t.Errorf("wisdom_sched_batch_occupancy = %v, want 0.5 (2 of 4 slots)", got)
	}
	if got := samples["wisdom_sched_queue_depth"]; got != 1 {
		t.Errorf("wisdom_sched_queue_depth = %v, want 1", got)
	}
	if got := samples["wisdom_sched_admitted_total"]; got != 10 {
		t.Errorf("wisdom_sched_admitted_total = %v, want 10", got)
	}
	if got := samples["wisdom_sched_retired_total"]; got != 8 {
		t.Errorf("wisdom_sched_retired_total = %v, want 8", got)
	}
	if got := samples["wisdom_sched_queue_wait_seconds_count"]; got != 1 {
		t.Errorf("wisdom_sched_queue_wait_seconds_count = %v, want 1", got)
	}

	st := srv.Stats()
	if !st.SchedEnabled || st.SchedMaxBatch != 4 || st.SchedActive != 2 || st.SchedQueued != 1 {
		t.Errorf("stats sched shape fields = %+v", st)
	}
	if st.SchedAdmitted != 10 || st.SchedRetired != 8 {
		t.Errorf("stats sched counters = %+v", st)
	}
	if st.SchedOccupancy != 0.8 {
		t.Errorf("SchedOccupancy = %v, want 0.8 (320 row-steps / 100 steps * 4 slots)", st.SchedOccupancy)
	}
}
