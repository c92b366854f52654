package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// recorder is the shared core of the backend-selection fakes: it records
// which interface method answered each request and, when gated, parks every
// call inside the model until released, so a test can see whether two
// identical requests both reached the model or one joined the other's
// flight. fail makes the error-returning methods reject before emitting.
type recorder struct {
	mu      sync.Mutex
	calls   []string
	entered chan struct{} // non-nil: every call signals here, then waits on release
	release chan struct{}
	fail    error
}

func (r *recorder) answer(method, prompt string, emit func(string)) string {
	r.mu.Lock()
	r.calls = append(r.calls, method)
	r.mu.Unlock()
	if r.entered != nil {
		r.entered <- struct{}{}
		<-r.release
	}
	head, body := "- name: "+prompt+"\n", "  ansible.builtin.debug:\n"
	if emit != nil {
		emit(head)
		emit(body)
	}
	return head + body
}

func (r *recorder) ran() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

// plainFake implements Predictor only.
type plainFake struct{ *recorder }

func (m plainFake) Predict(_, prompt string) string { return m.answer("Predict", prompt, nil) }

// modelFake has *wisdom.Model's surface: plain, streaming, and the session
// and scheduler faces behind their enabled switches.
type modelFake struct {
	plainFake
	sessions, sched bool
}

func (m modelFake) PredictStream(_ context.Context, _, prompt string, emit func(string)) string {
	return m.answer("PredictStream", prompt, emit)
}
func (m modelFake) PredictSession(_, _, prompt string) string {
	return m.answer("PredictSession", prompt, nil)
}
func (m modelFake) PredictStreamSession(_ context.Context, _, _, prompt string, emit func(string)) string {
	return m.answer("PredictStreamSession", prompt, emit)
}
func (m modelFake) SessionStats() (bool, int, uint64, float64) { return m.sessions, 0, 0, 0 }
func (m modelFake) PredictSched(_ context.Context, _, prompt string) (string, error) {
	if m.fail != nil {
		return "", m.fail
	}
	return m.answer("PredictSched", prompt, nil), nil
}
func (m modelFake) PredictStreamSched(_ context.Context, _, prompt string, emit func(string)) (string, error) {
	if m.fail != nil {
		return "", m.fail
	}
	return m.answer("PredictStreamSched", prompt, emit), nil
}
func (m modelFake) SchedStats() (bool, int, int, int, uint64, uint64, uint64, uint64) {
	return m.sched, 4, 0, 0, 0, 0, 0, 0
}

// chainFake has *wisdom.Chain's surface.
type chainFake struct{ plainFake }

func (m chainFake) PredictStream(_ context.Context, _, prompt string, emit func(string)) string {
	return m.answer("PredictStream", prompt, emit)
}
func (m chainFake) PredictDegraded(_, prompt string) (string, bool) {
	return m.answer("PredictDegraded", prompt, nil), false
}
func (m chainFake) PredictStreamDegraded(_ context.Context, _, prompt string, emit func(string)) (string, bool) {
	return m.answer("PredictStreamDegraded", prompt, emit), false
}

// routeFake has *router.Router's prediction surface.
type routeFake struct{ plainFake }

func (m routeFake) PredictRoute(_ context.Context, req Request) (Response, error) {
	if m.fail != nil {
		return Response{}, m.fail
	}
	return Response{Suggestion: m.answer("PredictRoute", req.Prompt, nil)}, nil
}
func (m routeFake) PredictStreamRoute(_ context.Context, req Request, emit func(string)) (Response, error) {
	if m.fail != nil {
		return Response{}, m.fail
	}
	return Response{Suggestion: m.answer("PredictStreamRoute", req.Prompt, emit)}, nil
}

// TestBackendSelection pins, for every capability set a model can present,
// which interface method answers a unary and a streamed request with and
// without a session id, and whether the request goes through singleflight:
// two identical requests are held inside the model together, so either both
// reach it or the second joins the first one's flight. Every path must hand
// its worker slot back.
func TestBackendSelection(t *testing.T) {
	models := map[string]func(*recorder) Predictor{
		"plain":          func(r *recorder) Predictor { return plainFake{r} },
		"model":          func(r *recorder) Predictor { return modelFake{plainFake: plainFake{r}} },
		"model+sessions": func(r *recorder) Predictor { return modelFake{plainFake: plainFake{r}, sessions: true} },
		"model+sched":    func(r *recorder) Predictor { return modelFake{plainFake: plainFake{r}, sched: true} },
		"model+both":     func(r *recorder) Predictor { return modelFake{plainFake{r}, true, true} },
		"chain":          func(r *recorder) Predictor { return chainFake{plainFake{r}} },
		"router":         func(r *recorder) Predictor { return routeFake{plainFake{r}} },
	}
	cases := []struct {
		model       string
		stream, sid bool
		method      string
		coalesced   bool
	}{
		// A model that cannot stream answers stream requests as unary ones.
		{"plain", false, false, "Predict", true},
		{"plain", false, true, "Predict", true},
		{"plain", true, false, "Predict", true},
		{"plain", true, true, "Predict", true},
		// Session and scheduler faces switched off: the stateless pipeline.
		{"model", false, false, "Predict", true},
		{"model", false, true, "Predict", true},
		{"model", true, false, "PredictStream", false},
		{"model", true, true, "PredictStream", false},
		{"model+sessions", false, false, "Predict", true},
		{"model+sessions", false, true, "PredictSession", false},
		{"model+sessions", true, false, "PredictStream", false},
		{"model+sessions", true, true, "PredictStreamSession", false},
		{"model+sched", false, false, "PredictSched", true},
		{"model+sched", false, true, "PredictSched", true},
		{"model+sched", true, false, "PredictStreamSched", false},
		{"model+sched", true, true, "PredictStreamSched", false},
		// A request naming a session takes the session arm, not the engine.
		{"model+both", false, false, "PredictSched", true},
		{"model+both", false, true, "PredictSession", false},
		{"model+both", true, false, "PredictStreamSched", false},
		{"model+both", true, true, "PredictStreamSession", false},
		{"chain", false, false, "PredictDegraded", true},
		{"chain", false, true, "PredictDegraded", true},
		{"chain", true, false, "PredictStreamDegraded", false},
		{"chain", true, true, "PredictStreamDegraded", false},
		{"router", false, false, "PredictRoute", true},
		{"router", false, true, "PredictRoute", false},
		{"router", true, false, "PredictStreamRoute", false},
		{"router", true, true, "PredictStreamRoute", false},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/stream=%v/sid=%v", tc.model, tc.stream, tc.sid)
		t.Run(name, func(t *testing.T) {
			rec := &recorder{entered: make(chan struct{}, 2), release: make(chan struct{})}
			srv := NewServerWithOptions(models[tc.model](rec), "m", Options{Workers: 2, CacheSize: 8})
			req := Request{Prompt: "p"}
			if tc.sid {
				req.SessionID = "sid"
			}

			type result struct {
				resp   Response
				deltas string
				err    error
			}
			results := make(chan result, 2)
			issue := func() {
				var res result
				if tc.stream {
					res.resp, res.err = srv.predictStream(context.Background(), req, "http",
						func(d string) error { res.deltas += d; return nil })
				} else {
					res.resp, res.err = srv.predict(context.Background(), req, "http")
				}
				results <- res
			}
			go issue()
			<-rec.entered // the first request is inside the model
			go issue()
			deadline := time.After(5 * time.Second)
			for joined := false; !joined; {
				select {
				case <-rec.entered: // the second reached the model too
					joined = true
				case <-deadline:
					t.Fatal("second request neither reached the model nor joined the flight")
				default:
					joined = srv.flight.Pending("\x00p") == 1
					time.Sleep(100 * time.Microsecond)
				}
			}
			close(rec.release)

			const want = "- name: p\n  ansible.builtin.debug:\n"
			var coalesced int
			for i := 0; i < 2; i++ {
				res := <-results
				if res.err != nil {
					t.Fatal(res.err)
				}
				if res.resp.Suggestion != want || (tc.stream && res.deltas != want) {
					t.Errorf("suggestion %q, deltas %q, want %q", res.resp.Suggestion, res.deltas, want)
				}
				if res.resp.Coalesced {
					coalesced++
				}
			}
			wantCalls, wantCoalesced := []string{tc.method, tc.method}, 0
			if tc.coalesced {
				wantCalls, wantCoalesced = []string{tc.method}, 1
			}
			if got := rec.ran(); !reflect.DeepEqual(got, wantCalls) {
				t.Errorf("model methods run = %q, want %q", got, wantCalls)
			}
			if coalesced != wantCoalesced {
				t.Errorf("%d responses coalesced, want %d", coalesced, wantCoalesced)
			}
			if srv.Pool().Active() != 0 || srv.ActiveStreams() != 0 {
				t.Errorf("pool active = %d, streams active = %d after completion, want 0",
					srv.Pool().Active(), srv.ActiveStreams())
			}
		})
	}
}

// TestBackendErrorExits drives the pipeline's error exits: each must hand
// the worker slot back, deliver nothing it should not, and leave nothing in
// the cache.
func TestBackendErrorExits(t *testing.T) {
	noBackend := errors.New("router: no backend answered")
	cases := []struct {
		name     string
		model    func(*recorder) Predictor
		fail     error
		stream   bool
		sendFail int // fail the nth delta write (1-based); 0 = never
		reason   string
		deltas   int
	}{
		{"sched rejection/unary", func(r *recorder) Predictor { return modelFake{plainFake: plainFake{r}, sched: true} },
			schedOverloadErr{}, false, 0, "overloaded", 0},
		{"sched rejection/stream", func(r *recorder) Predictor { return modelFake{plainFake: plainFake{r}, sched: true} },
			schedOverloadErr{}, true, 0, "overloaded", 0},
		{"route error/unary", func(r *recorder) Predictor { return routeFake{plainFake{r}} },
			noBackend, false, 0, "unavailable", 0},
		{"route error before the first delta", func(r *recorder) Predictor { return routeFake{plainFake{r}} },
			noBackend, true, 0, "unavailable", 0},
		{"send failure mid-stream", func(r *recorder) Predictor { return modelFake{plainFake: plainFake{r}} },
			nil, true, 2, "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{fail: tc.fail}
			srv := NewServerWithOptions(tc.model(rec), "m", Options{Workers: 1, CacheSize: 8})
			deltas := 0
			send := func(string) error {
				if deltas+1 == tc.sendFail {
					return errors.New("client gone")
				}
				deltas++
				return nil
			}
			var err error
			if tc.stream {
				_, err = srv.predictStream(context.Background(), Request{Prompt: "p"}, "http", send)
			} else {
				_, err = srv.predict(context.Background(), Request{Prompt: "p"}, "http")
			}
			switch {
			case err == nil:
				t.Fatal("failed request returned no error")
			case tc.sendFail > 0:
				if !errors.Is(err, errStreamCancelled) || srv.CancelledStreams() != 1 {
					t.Errorf("err = %v, cancelled streams = %d; want one cancelled stream", err, srv.CancelledStreams())
				}
			case !errors.Is(err, tc.fail) || shedReason(err) != tc.reason:
				t.Errorf("err = %v (reason %q), want %v (reason %q)", err, shedReason(err), tc.fail, tc.reason)
			}
			if deltas != tc.deltas {
				t.Errorf("%d deltas delivered, want %d", deltas, tc.deltas)
			}
			if srv.Pool().Active() != 0 || srv.ActiveStreams() != 0 {
				t.Errorf("pool active = %d, streams active = %d after the error exit, want 0",
					srv.Pool().Active(), srv.ActiveStreams())
			}

			// Nothing was cached: once the fault clears, the same request
			// reaches the model again.
			rec.fail = nil
			before := len(rec.ran())
			resp, err := srv.predict(context.Background(), Request{Prompt: "p"}, "http")
			if err != nil || resp.Cached || len(rec.ran()) != before+1 {
				t.Errorf("after the fault cleared: resp = %+v, err = %v, model calls %d -> %d; want an uncached answer",
					resp, err, before, len(rec.ran()))
			}
		})
	}
}

// TestShedReason pins the error-counter label of every error shape that can
// keep a request from being served: only a client that hung up is
// "canceled"; an outage is "unavailable".
func TestShedReason(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{ErrOverloaded, "overloaded"},
		{fmt.Errorf("router: backend a: %w", schedOverloadErr{}), "overloaded"},
		{ErrQueueTimeout, "queue_timeout"},
		{context.DeadlineExceeded, "queue_timeout"},
		{context.Canceled, "canceled"},
		{errors.New("router: no backend answered"), "unavailable"},
		{errors.New("router: backend a: resilience: circuit breaker open"), "unavailable"},
		{errors.New("neural: engine closed"), "unavailable"},
	}
	for _, tc := range cases {
		if got := shedReason(tc.err); got != tc.want {
			t.Errorf("shedReason(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
