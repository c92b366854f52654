package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisdom/internal/observe"
)

// gateModel blocks every Predict until release is closed, and counts calls
// per prompt.
type gateModel struct {
	mu      sync.Mutex
	calls   map[string]int
	started chan string
	release chan struct{}
}

func newGateModel(buf int) *gateModel {
	return &gateModel{
		calls:   make(map[string]int),
		started: make(chan string, buf),
		release: make(chan struct{}),
	}
}

func (m *gateModel) Predict(_, prompt string) string {
	m.mu.Lock()
	m.calls[prompt]++
	m.mu.Unlock()
	m.started <- prompt
	<-m.release
	return "- name: " + prompt + "\n  ansible.builtin.debug:\n    msg: ok\n"
}

func (m *gateModel) callsFor(prompt string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls[prompt]
}

// trackModel sleeps per call and records per-key call counts plus the peak
// number of concurrent Predict invocations.
type trackModel struct {
	delay     time.Duration
	mu        sync.Mutex
	calls     map[string]int
	cur, peak int
}

func newTrackModel(delay time.Duration) *trackModel {
	return &trackModel{delay: delay, calls: make(map[string]int)}
}

func (m *trackModel) Predict(_, prompt string) string {
	m.mu.Lock()
	m.cur++
	if m.cur > m.peak {
		m.peak = m.cur
	}
	m.calls[prompt]++
	m.mu.Unlock()
	time.Sleep(m.delay)
	m.mu.Lock()
	m.cur--
	m.mu.Unlock()
	return "- name: " + prompt + "\n  ansible.builtin.debug:\n    msg: ok\n"
}

func postRaw(t *testing.T, ts *httptest.Server, req Request) (int, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestCoalescing64 is the acceptance scenario: 64 concurrent identical
// requests produce exactly one Predict invocation, one leader response and
// 63 coalesced responses, proven by the coalesced counter.
func TestCoalescing64(t *testing.T) {
	model := newGateModel(1)
	srv := NewServerWithOptions(model, "m", Options{
		CacheSize: 16, Workers: 2, QueueDepth: 16, QueueTimeout: -1,
	})
	srv.Instrument(observe.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 64
	prompt := "install nginx"
	key := "\x00" + prompt // empty context + separator + prompt

	results := make(chan Response, n)
	for i := 0; i < n; i++ {
		go func() {
			_, out := postRaw(t, ts, Request{Prompt: prompt})
			results <- out
		}()
	}

	// The leader is inside the model now; wait for the other 63 to join
	// its flight so none of them can race ahead to a cache hit.
	<-model.started
	deadline := time.Now().Add(10 * time.Second)
	for srv.flight.Pending(key) != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters joined the flight", srv.flight.Pending(key), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(model.release)

	var leaders, coalesced, cached int
	for i := 0; i < n; i++ {
		out := <-results
		switch {
		case out.Cached:
			cached++
		case out.Coalesced:
			coalesced++
		default:
			leaders++
		}
	}
	if model.callsFor(prompt) != 1 {
		t.Errorf("model calls = %d, want 1", model.callsFor(prompt))
	}
	if leaders != 1 || coalesced != n-1 || cached != 0 {
		t.Errorf("leaders/coalesced/cached = %d/%d/%d, want 1/%d/0", leaders, coalesced, cached, n-1)
	}
	samples := scrapeMetrics(t, ts)
	if got := samples["wisdom_coalesced_requests_total"]; got != n-1 {
		t.Errorf("wisdom_coalesced_requests_total = %v, want %d", got, n-1)
	}
	if got := samples[`wisdom_requests_total{proto="http"}`]; got != n {
		t.Errorf("wisdom_requests_total = %v, want %d", got, n)
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parsePromText(t, string(text))
}

// TestOverloadSheds fills the one-worker pool with queueing disabled and
// checks that excess HTTP requests get 503 + Retry-After, excess RPC
// requests get an error response, and the server recovers afterwards.
func TestOverloadSheds(t *testing.T) {
	model := newGateModel(4)
	srv := NewServerWithOptions(model, "m", Options{
		Workers: 1, QueueDepth: -1, QueueTimeout: -1,
	})
	srv.Instrument(observe.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.ServeRPC(ln) }()

	// Occupy the only worker.
	occupied := make(chan struct{})
	go func() {
		status, _ := postRaw(t, ts, Request{Prompt: "hold"})
		if status != http.StatusOK {
			t.Errorf("holder status = %d", status)
		}
		close(occupied)
	}()
	<-model.started

	// Distinct key: coalescing cannot save it, the pool must shed it.
	status, out := postRaw(t, ts, Request{Prompt: "shed me"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if !strings.Contains(out.Error, "overloaded") {
		t.Errorf("error = %q", out.Error)
	}

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Predict(Request{Prompt: "shed me too"}); err == nil ||
		!strings.Contains(err.Error(), "overloaded") {
		t.Errorf("rpc shed error = %v", err)
	}

	close(model.release)
	<-occupied
	// Recovered: the same client connection still works.
	if _, err := client.Predict(Request{Prompt: "after recovery"}); err != nil {
		t.Errorf("post-recovery predict: %v", err)
	}
	samples := scrapeMetrics(t, ts)
	if got := samples[`wisdom_shed_requests_total{proto="http"}`]; got != 1 {
		t.Errorf(`shed{http} = %v, want 1`, got)
	}
	if got := samples[`wisdom_shed_requests_total{proto="rpc"}`]; got != 1 {
		t.Errorf(`shed{rpc} = %v, want 1`, got)
	}
	if st := srv.Stats(); st.ShedRequests != 2 || st.PoolWorkers != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestQueueTimeout parks a request behind a busy worker long enough to hit
// the admission deadline.
func TestQueueTimeout(t *testing.T) {
	model := newGateModel(4)
	srv := NewServerWithOptions(model, "m", Options{
		Workers: 1, QueueDepth: 8, QueueTimeout: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		postRaw(t, ts, Request{Prompt: "hold"})
		close(done)
	}()
	<-model.started

	start := time.Now()
	status, out := postRaw(t, ts, Request{Prompt: "queued"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if !strings.Contains(out.Error, "deadline") && !strings.Contains(out.Error, "overloaded") {
		t.Errorf("error = %q", out.Error)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("shed took %v, deadline not enforced", waited)
	}
	close(model.release)
	<-done
}

// TestConcurrentStress hammers one server over HTTP and RPC simultaneously
// with duplicate-heavy keys. Under -race it proves the serving path and the
// predictor contract: exactly one model call per unique key (cache +
// singleflight), pool occupancy never above the worker bound, and a
// consistent Requests() count.
func TestConcurrentStress(t *testing.T) {
	const (
		workers    = 4
		uniqueKeys = 8
		clients    = 8
		perClient  = 24
	)
	model := newTrackModel(200 * time.Microsecond)
	srv := NewServerWithOptions(model, "m", Options{
		CacheSize: 64, Workers: workers, QueueDepth: 1024, QueueTimeout: -1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.ServeRPC(ln) }()

	var wg sync.WaitGroup
	errs := make(chan error, 2*clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) { // HTTP client
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := Request{Prompt: fmt.Sprintf("task %d", (c+i)%uniqueKeys)}
				status, out := postRaw(t, ts, req)
				if status != http.StatusOK {
					errs <- fmt.Errorf("http status %d: %s", status, out.Error)
					return
				}
				if !strings.Contains(out.Suggestion, req.Prompt) {
					errs <- fmt.Errorf("cross-talk: %q for %q", out.Suggestion, req.Prompt)
					return
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) { // RPC client
			defer wg.Done()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				prompt := fmt.Sprintf("task %d", (c*3+i)%uniqueKeys)
				out, err := cl.Predict(Request{Prompt: prompt})
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(out.Suggestion, prompt) {
					errs <- fmt.Errorf("cross-talk: %q for %q", out.Suggestion, prompt)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	model.mu.Lock()
	peak := model.peak
	for key, n := range model.calls {
		if n != 1 {
			t.Errorf("model called %d times for %q, want 1", n, key)
		}
	}
	model.mu.Unlock()
	if peak > workers {
		t.Errorf("peak model concurrency = %d, want <= %d", peak, workers)
	}
	if got, want := srv.Requests(), 2*clients*perClient; got != want {
		t.Errorf("Requests() = %d, want %d", got, want)
	}
}

// TestShutdownMidBurst drains the RPC side while a duplicate-heavy burst is
// in flight: Shutdown must return cleanly within its deadline and every
// client must see either a valid response or a closed connection — never a
// hang or a desynced frame.
func TestShutdownMidBurst(t *testing.T) {
	model := newTrackModel(500 * time.Microsecond)
	srv := NewServerWithOptions(model, "m", Options{
		CacheSize: 8, Workers: 2, QueueDepth: 64, QueueTimeout: time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeRPC(ln) }()

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(ln.Addr().String())
			if err != nil {
				return // listener already closed
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				if _, err := cl.Predict(Request{Prompt: fmt.Sprintf("burst %d", i%4)}); err != nil {
					return // connection drained away mid-burst: expected
				}
			}
		}(c)
	}

	time.Sleep(5 * time.Millisecond) // let the burst get going
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still hanging after shutdown")
	}
}

// TestClientBrokenAfterIOError verifies the fail-fast client: after a
// failed exchange the connection's framing state is undefined, so every
// later call must return ErrClientBroken instead of desyncing.
func TestClientBrokenAfterIOError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the request frame, answer with a partial header, vanish.
		hdr := make([]byte, 4)
		if _, err := readFull(conn, hdr); err == nil {
			n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
			_, _ = readFull(conn, make([]byte, n))
		}
		_, _ = conn.Write([]byte{0x00, 0x00}) // half a length prefix
		conn.Close()
	}()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Predict(Request{Prompt: "x"}); err == nil {
		t.Fatal("predict on a dying connection succeeded")
	}
	if _, err := client.Predict(Request{Prompt: "y"}); err != ErrClientBroken {
		t.Errorf("second call error = %v, want ErrClientBroken", err)
	}
	if _, err := client.Health(); err != ErrClientBroken {
		t.Errorf("health on broken client = %v, want ErrClientBroken", err)
	}
}

// TestMaxBodyRejected checks the request-size cap on the HTTP handler.
func TestMaxBodyRejected(t *testing.T) {
	srv := NewServerWithOptions(newTrackModel(0), "m", Options{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big, _ := json.Marshal(Request{Prompt: "x", Context: strings.Repeat("a", 4096)})
	resp, err := ts.Client().Post(ts.URL+"/v1/completions", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	// A small request still works.
	status, out := postRaw(t, ts, Request{Prompt: "small"})
	if status != http.StatusOK || !strings.Contains(out.Suggestion, "small") {
		t.Errorf("small request: status %d, %+v", status, out)
	}
}

// TestCoalescingReducesModelWork puts duplicate-heavy concurrent load on a
// cacheless server — every request is a miss — and counts model calls
// directly: singleflight must answer all n requests with strictly fewer
// than n invocations (one per request is what the seed path, a miss going
// straight to the model, would run).
func TestCoalescingReducesModelWork(t *testing.T) {
	model := newTrackModel(time.Millisecond)
	srv := NewServerWithOptions(model, "m", Options{
		Workers: 4, QueueDepth: 4096, QueueTimeout: -1,
	})
	const n, keys = 96, 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{Prompt: fmt.Sprintf("dup %d", i%keys)}
			if _, err := srv.predict(context.Background(), req, "http"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	model.mu.Lock()
	defer model.mu.Unlock()
	var calls int
	for _, c := range model.calls {
		calls += c
	}
	if calls >= n {
		t.Errorf("%d requests ran %d model calls — expected strictly fewer", n, calls)
	}
}

// ---- pool and singleflight unit tests ----

func TestPoolBounds(t *testing.T) {
	p := NewPool(2, 1, 50*time.Millisecond)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Active() != 2 || p.Workers() != 2 {
		t.Errorf("active/workers = %d/%d", p.Active(), p.Workers())
	}

	// One waiter fits the queue and times out; a second is shed instantly.
	errc := make(chan error, 2)
	go func() { errc <- p.Acquire(ctx) }()
	for p.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := p.Acquire(ctx); err != ErrOverloaded {
		t.Errorf("queue overflow error = %v, want ErrOverloaded", err)
	}
	if err := <-errc; err != ErrQueueTimeout {
		t.Errorf("queued waiter error = %v, want ErrQueueTimeout", err)
	}
	if p.Shed() != 2 {
		t.Errorf("shed = %d, want 2", p.Shed())
	}

	// Releasing lets a fresh waiter in.
	p.Release()
	if err := p.Acquire(ctx); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
}

func TestPoolContextCancel(t *testing.T) {
	p := NewPool(1, 4, 0) // no deadline: only ctx can end the wait
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.Acquire(ctx) }()
	for p.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestFlightGroupSequentialCallsDoNotCoalesce(t *testing.T) {
	g := NewFlight()
	calls := 0
	for i := 0; i < 3; i++ {
		v, coalesced, err := g.Do(context.Background(), "k", func() (string, error) {
			calls++
			return "v", nil
		})
		if v != "v" || coalesced || err != nil {
			t.Errorf("call %d: %q/%v/%v", i, v, coalesced, err)
		}
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (sequential calls each run fn)", calls)
	}
}

func TestFlightGroupErrorFansOut(t *testing.T) {
	g := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := fmt.Errorf("boom")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, coalesced, err := g.Do(context.Background(), "k", func() (string, error) {
			close(started)
			<-release
			return "", leaderErr
		})
		if coalesced || err != leaderErr {
			t.Errorf("leader: coalesced=%v err=%v", coalesced, err)
		}
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, coalesced, err := g.Do(context.Background(), "k", func() (string, error) {
			t.Error("waiter ran fn")
			return "", nil
		})
		if !coalesced || err != leaderErr {
			t.Errorf("waiter: coalesced=%v err=%v", coalesced, err)
		}
	}()
	for g.Pending("k") != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
}

func TestFlightGroupWaiterContext(t *testing.T) {
	g := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	go g.Do(context.Background(), "k", func() (string, error) {
		close(started)
		<-release
		return "v", nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// An expired waiter leaves without the shared answer: it is abandoned,
	// not coalesced (see TestFlightAbandonedWaiterNotCoalesced).
	_, coalesced, err := g.Do(ctx, "k", func() (string, error) { return "", nil })
	if coalesced || err != context.Canceled {
		t.Errorf("coalesced=%v err=%v, want false/context.Canceled", coalesced, err)
	}
	close(release)
}

// BenchmarkDuplicateHeavyLoad measures throughput of concurrent load on four
// hot keys, which singleflight coalesces, against the same load on distinct
// keys, which runs one model call per request. The model simulates a 1ms
// generation; caching is off so every request is a miss, which is the worst
// case the singleflight layer exists for.
func BenchmarkDuplicateHeavyLoad(b *testing.B) {
	for _, mode := range []string{"distinct", "duplicate"} {
		b.Run(mode, func(b *testing.B) {
			model := newTrackModel(time.Millisecond)
			srv := NewServerWithOptions(model, "m", Options{
				Workers: 4, QueueDepth: 1 << 20, QueueTimeout: -1,
			})
			var n atomic.Int64
			// GOMAXPROCS goroutines would serialise on one core; the load
			// this layer exists for is many in-flight duplicates, so force a
			// wide client fan-in regardless of core count.
			b.SetParallelism(32)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(n.Add(1))
					if mode == "duplicate" {
						i %= 4
					}
					req := Request{Prompt: fmt.Sprintf("dup %d", i)}
					if _, err := srv.predict(context.Background(), req, "http"); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
