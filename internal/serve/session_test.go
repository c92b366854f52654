package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"wisdom/internal/observe"
)

// sessionEchoModel implements the full session predictor surface and records
// which path each request took and under which session id.
type sessionEchoModel struct {
	enabled bool

	mu          sync.Mutex
	sessionIDs  []string // ids seen by PredictSession/PredictStreamSession
	plainCalls  int      // Predict invocations
	streamCalls int      // PredictStream invocations
	evictions   atomic.Uint64
}

func (m *sessionEchoModel) answer(prompt string) string {
	return "- name: " + prompt + "\n  ansible.builtin.debug:\n"
}

func (m *sessionEchoModel) Predict(_, prompt string) string {
	m.mu.Lock()
	m.plainCalls++
	m.mu.Unlock()
	return m.answer(prompt)
}

func (m *sessionEchoModel) PredictSession(sessionID, _, prompt string) string {
	m.mu.Lock()
	m.sessionIDs = append(m.sessionIDs, sessionID)
	m.mu.Unlock()
	return m.answer(prompt)
}

func (m *sessionEchoModel) PredictStream(_ context.Context, _, prompt string, emit func(string)) string {
	m.mu.Lock()
	m.streamCalls++
	m.mu.Unlock()
	v := m.answer(prompt)
	emit(v)
	return v
}

func (m *sessionEchoModel) PredictStreamSession(_ context.Context, sessionID, _, prompt string, emit func(string)) string {
	m.mu.Lock()
	m.sessionIDs = append(m.sessionIDs, sessionID)
	m.mu.Unlock()
	v := m.answer(prompt)
	emit(v)
	return v
}

func (m *sessionEchoModel) SessionStats() (bool, int, uint64, float64) {
	return m.enabled, 3, m.evictions.Load(), 0.5
}

func (m *sessionEchoModel) seenSessions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.sessionIDs...)
}

// TestSessionHeaderHTTP checks both carriers of the session key over HTTP:
// the X-Wisdom-Session header fills an empty JSON field, and the JSON field
// wins when both are present.
func TestSessionHeaderHTTP(t *testing.T) {
	model := &sessionEchoModel{enabled: true}
	srv := NewServerWithOptions(model, "m", Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte, header string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/completions", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(SessionHeader, header)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}

	body, _ := json.Marshal(Request{Prompt: "p"})
	post(body, "from-header")
	body, _ = json.Marshal(Request{Prompt: "p2", SessionID: "from-body"})
	post(body, "ignored-header")

	want := []string{"from-header", "from-body"}
	got := model.seenSessions()
	if len(got) != len(want) {
		t.Fatalf("sessions seen = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("session %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSessionMetricsAndStats checks the session gauges/counters registered
// by Instrument and the session fields of /v1/stats.
func TestSessionMetricsAndStats(t *testing.T) {
	model := &sessionEchoModel{enabled: true}
	model.evictions.Store(7)
	srv := NewServerWithOptions(model, "m", Options{Workers: 1})
	reg := observe.NewRegistry()
	srv.Instrument(reg)

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
	if got := samples["wisdom_session_active"]; got != 3 {
		t.Errorf("wisdom_session_active = %v, want 3", got)
	}
	if got := samples["wisdom_session_prefix_reuse_ratio"]; got != 0.5 {
		t.Errorf("wisdom_session_prefix_reuse_ratio = %v, want 0.5", got)
	}
	if got := samples["wisdom_session_evictions_total"]; got != 7 {
		t.Errorf("wisdom_session_evictions_total = %v, want 7", got)
	}
	if _, ok := samples["wisdom_coalesce_abandoned_total"]; !ok {
		t.Error("wisdom_coalesce_abandoned_total not registered")
	}

	st := srv.Stats()
	if !st.SessionsEnabled || st.SessionsActive != 3 || st.SessionEvictions != 7 || st.SessionReuseRatio != 0.5 {
		t.Errorf("stats session fields = %+v", st)
	}
}
