package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisdom/internal/observe"
)

// degradingModel is a test DegradingPredictor whose health is a switch:
// healthy answers come from the "primary", degraded ones from the
// "fallback", mirroring a wisdom.Chain without the timeout machinery.
type degradingModel struct {
	degraded atomic.Bool
	calls    atomic.Int64
	gate     chan struct{} // when gateOn, PredictDegraded blocks on it
	gateOn   atomic.Bool
}

func newDegradingModel() *degradingModel {
	return &degradingModel{gate: make(chan struct{})}
}

func (m *degradingModel) Predict(context, prompt string) string {
	out, _ := m.PredictDegraded(context, prompt)
	return out
}

func (m *degradingModel) PredictDegraded(context, prompt string) (string, bool) {
	m.calls.Add(1)
	if m.gateOn.Load() {
		<-m.gate
	}
	if m.degraded.Load() {
		return "fallback: " + prompt, true
	}
	return "primary: " + prompt, false
}

// TestServerDegradedFlagAndCacheBypass: a degraded answer is tagged in the
// response, counted on wisdom_degraded_responses_total, and kept out of the
// cache — so the primary's recovery is visible on the very next request.
func TestServerDegradedFlagAndCacheBypass(t *testing.T) {
	model := newDegradingModel()
	srv := NewServerWithOptions(model, "m", Options{CacheSize: 16})
	reg := observe.NewRegistry()
	srv.Instrument(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Degraded phase: flag set, nothing cached, model called every time.
	model.degraded.Store(true)
	first := postCompletion(t, ts, "install nginx")
	if !first.Degraded || first.Suggestion != "fallback: install nginx" {
		t.Fatalf("degraded response = %+v", first)
	}
	second := postCompletion(t, ts, "install nginx")
	if second.Cached {
		t.Fatal("degraded answer was served from cache")
	}
	if model.calls.Load() != 2 {
		t.Fatalf("model calls = %d, want 2 (no caching while degraded)", model.calls.Load())
	}

	// Recovery: the next request reaches the healthy primary (no stale
	// degraded cache entry in the way) and its answer does get cached.
	model.degraded.Store(false)
	third := postCompletion(t, ts, "install nginx")
	if third.Degraded || third.Suggestion != "primary: install nginx" {
		t.Fatalf("post-recovery response = %+v", third)
	}
	fourth := postCompletion(t, ts, "install nginx")
	if !fourth.Cached || fourth.Degraded {
		t.Fatalf("post-recovery cached response = %+v", fourth)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wisdom_degraded_responses_total 2") {
		t.Errorf("metrics missing degraded count:\n%s", buf.String())
	}
}

// streamDegradingModel adds the streaming faces of a degradation chain to
// degradingModel: the answering tier's text goes out as one delta.
type streamDegradingModel struct{ *degradingModel }

func (m streamDegradingModel) PredictStream(ctx context.Context, yamlCtx, prompt string, emit func(string)) string {
	out, _ := m.PredictStreamDegraded(ctx, yamlCtx, prompt, emit)
	return out
}

func (m streamDegradingModel) PredictStreamDegraded(_ context.Context, yamlCtx, prompt string, emit func(string)) (string, bool) {
	out, degraded := m.PredictDegraded(yamlCtx, prompt)
	emit(out)
	return out, degraded
}

// TestServerStreamDegradedFlagAndCacheBypass is the streaming twin of
// TestServerDegradedFlagAndCacheBypass, over both protocols: a stream
// answered by a fallback tier carries "degraded":true on its terminal
// frame, counts on wisdom_degraded_responses_total, and stays out of the
// cache.
func TestServerStreamDegradedFlagAndCacheBypass(t *testing.T) {
	for _, proto := range []string{"sse", "rpc"} {
		t.Run(proto, func(t *testing.T) {
			model := streamDegradingModel{newDegradingModel()}
			srv := NewServerWithOptions(model, "m", Options{CacheSize: 16})
			reg := observe.NewRegistry()
			srv.Instrument(reg)

			var stream func() Response
			if proto == "sse" {
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				stream = func() Response {
					resp := postStream(t, ts, Request{Prompt: "install nginx"})
					defer resp.Body.Close()
					evs := readSSE(t, resp.Body)
					var final Response
					if last := evs[len(evs)-1]; last.event != StreamDone {
						t.Fatalf("terminal event = %+v, want done", last)
					} else if err := json.Unmarshal([]byte(last.data), &final); err != nil {
						t.Fatal(err)
					}
					return final
				}
			} else {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				go srv.ServeRPC(ln)
				c, err := Dial(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				stream = func() Response {
					final, err := c.PredictStream(Request{Prompt: "install nginx"}, func(string) {})
					if err != nil {
						t.Fatal(err)
					}
					return final
				}
			}

			// Degraded phase: flag set, nothing cached, model called every time.
			model.degraded.Store(true)
			if first := stream(); !first.Degraded || first.Suggestion != "fallback: install nginx" {
				t.Fatalf("degraded stream = %+v", first)
			}
			if second := stream(); second.Cached || !second.Degraded {
				t.Fatalf("second degraded stream = %+v, want degraded and uncached", second)
			}
			if model.calls.Load() != 2 {
				t.Fatalf("model calls = %d, want 2 (no caching while degraded)", model.calls.Load())
			}

			// Recovery: the next stream reaches the healthy primary and its
			// answer does get cached.
			model.degraded.Store(false)
			if third := stream(); third.Degraded || third.Cached || third.Suggestion != "primary: install nginx" {
				t.Fatalf("post-recovery stream = %+v", third)
			}
			if fourth := stream(); !fourth.Cached || fourth.Degraded {
				t.Fatalf("post-recovery cached stream = %+v", fourth)
			}

			var buf strings.Builder
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "wisdom_degraded_responses_total 2") {
				t.Errorf("metrics missing degraded count:\n%s", buf.String())
			}
		})
	}
}

// TestServerDegradedFlagFansOutToCoalesced: when concurrent identical
// requests coalesce onto one degraded model call, every waiter sees
// "degraded":true, not just the leader.
func TestServerDegradedFlagFansOutToCoalesced(t *testing.T) {
	model := newDegradingModel()
	model.degraded.Store(true)
	model.gateOn.Store(true)
	srv := NewServerWithOptions(model, "m", Options{CacheSize: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 6
	var wg sync.WaitGroup
	results := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postCompletion(t, ts, "shared")
		}(i)
	}

	// Release the leader once the stragglers have had time to coalesce.
	key := "\x00" + "shared"
	deadline := time.Now().Add(2 * time.Second)
	for srv.flight.Pending(key) < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	model.gateOn.Store(false)
	close(model.gate)
	wg.Wait()

	var coalesced int
	for i := 0; i < n; i++ {
		if !results[i].Degraded {
			t.Errorf("request %d lost the degraded flag (coalesced=%v)", i, results[i].Coalesced)
		}
		if results[i].Coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no request coalesced; fan-out untested")
	}
	if model.calls.Load() != 1 {
		t.Errorf("model calls = %d, want 1", model.calls.Load())
	}
}

// TestRetryAfterScalesWithQueue: the Retry-After guidance grows from ~1s on
// an idle queue to the admission deadline on a saturated one, instead of
// the old hardcoded "1".
func TestRetryAfterScalesWithQueue(t *testing.T) {
	model := newDegradingModel()
	srv := NewServerWithOptions(model, "m", Options{
		Workers:      1,
		QueueDepth:   4,
		QueueTimeout: 9 * time.Second,
	})
	if got := srv.retryAfter(); got != "1" {
		t.Errorf("idle retryAfter = %q, want 1", got)
	}

	// Saturate: one request holds the worker, four more fill the queue.
	// Distinct contexts keep the requests from coalescing.
	model.gateOn.Store(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(Request{Prompt: "p", Context: string(rune('a' + i))})
			resp, err := ts.Client().Post(ts.URL+"/v1/completions", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.pool.Queued() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if q := srv.pool.Queued(); q != 4 {
		t.Fatalf("queued = %d, want 4", q)
	}
	// frac=1, deadline=9s: 1 + 1*(9-1) = 9.
	if got := srv.retryAfter(); got != "9" {
		t.Errorf("saturated retryAfter = %q, want 9", got)
	}
	model.gateOn.Store(false)
	close(model.gate)
	wg.Wait()

	// No queue at all: advise the admission deadline — the bound on how
	// long the running work can take.
	srv2 := NewServerWithOptions(newDegradingModel(), "m", Options{
		Workers:      1,
		QueueDepth:   -1,
		QueueTimeout: 5 * time.Second,
	})
	if got := srv2.retryAfter(); got != "5" {
		t.Errorf("queueless retryAfter = %q, want 5", got)
	}
}
