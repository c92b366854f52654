package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"wisdom/internal/observe"
	"wisdom/internal/router"
	"wisdom/internal/serve"
	"wisdom/internal/wisdom"
)

// The traced run records one span per layer boundary, from the benchmark's
// own wrappers around the calls into each layer:
//
//	client.request → router.front → router.forward → serve.handle → wisdom.predict
//
// Spans inside the program are a later issue (ROADMAP's request timeline).
const (
	layerClient = iota
	layerFront
	layerForward
	layerHandle
	layerPredict
	layerCount
)

var layerNames = [layerCount]string{"client.request", "router.front", "router.forward", "serve.handle", "wisdom.predict"}

// spanRec is one line of trace-<workload>.jsonl. A request's spans share req;
// span ids are req*8+layer+1, so a span's parent is the id one below it.
type spanRec struct {
	Req    int64  `json:"req"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	layer int
}

// reqHeader carries the client's request id to the front's HTTP middleware.
// The program ignores it. Deeper wrappers see no headers and find the id by
// the request's content instead.
const reqHeader = "X-Bench-Req"

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []spanRec
	inflight map[string]int64 // request key → id of the client request in flight
	emits    []emitTimes
	waits    []float64 // scheduler queue waits, seconds
	ngram    []float64 // n-gram Complete calls, seconds
}

// emitTimes is what the model wrapper sees of one streamed prediction.
type emitTimes struct {
	nameLine  time.Duration // predict start → first emit
	firstBody time.Duration // predict start → second emit; 0 if there was none
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: map[string]int64{}}
}

func requestKey(context, prompt, session string) string {
	return context + "\x00" + prompt + "\x00" + session
}

// begin and end bracket a client request, so wrappers deeper in the stack can
// attribute their spans to it by key.
func (t *tracer) begin(key string, req int64) {
	t.mu.Lock()
	t.inflight[key] = req
	t.mu.Unlock()
}

func (t *tracer) end(key string) {
	t.mu.Lock()
	delete(t.inflight, key)
	t.mu.Unlock()
}

// add records a span. req 0 (a caller the loadgen did not announce, such as
// warm-up) is dropped.
func (t *tracer) add(req int64, layer int, start, end time.Time) {
	if req == 0 {
		return
	}
	id := req*8 + int64(layer) + 1
	parent := id - 1
	if layer == layerClient {
		parent = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		Req: req, Span: id, Parent: parent, Name: layerNames[layer], layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// reqFor finds the client request in flight under key; 0 if none is.
func (t *tracer) reqFor(key string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight[key]
}

// addReported records a span whose duration the program reported itself
// (Response.LatencyMS) and whose position no wrapper saw. It is placed at its
// parent's start: dispatch takes microseconds, while what follows the
// handling (an RPC stream's watchdog hand-back) can take tens of
// milliseconds, and the child span it must cover sits at the start too.
func (t *tracer) addReported(req int64, layer int, parentStart, parentEnd time.Time, latencyMS float64) {
	d := time.Duration(latencyMS * float64(time.Millisecond))
	if outer := parentEnd.Sub(parentStart); d > outer {
		d = outer
	}
	t.add(req, layer, parentStart, parentStart.Add(d))
}

// reset drops what warm-up recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.emits, t.waits, t.ngram = nil, nil, nil, nil
	t.mu.Unlock()
}

// write dumps the spans as JSON lines, ordered by request then layer.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Span < spans[j].Span })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []spanRec) map[int64]int64 {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.Span] = s.End - s.Start - covered
	}
	return self
}

// middleware spans the front's HTTP handler.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(req, layerFront, start, time.Now())
	})
}

// tracedRouter spans the forward to a replica, and places the replica's own
// handling time (the latency_ms it reports) inside it as serve.handle.
type tracedRouter struct {
	*router.Router
	tr *tracer
}

func (r *tracedRouter) record(req serve.Request, start time.Time, resp serve.Response, err error) {
	end := time.Now()
	id := r.tr.reqFor(requestKey(req.Context, req.Prompt, req.SessionID))
	r.tr.add(id, layerForward, start, end)
	if err == nil {
		r.tr.addReported(id, layerHandle, start, end, resp.LatencyMS)
	}
}

func (r *tracedRouter) PredictRoute(ctx context.Context, req serve.Request) (serve.Response, error) {
	start := time.Now()
	resp, err := r.Router.PredictRoute(ctx, req)
	r.record(req, start, resp, err)
	return resp, err
}

func (r *tracedRouter) PredictStreamRoute(ctx context.Context, req serve.Request, emit func(string)) (serve.Response, error) {
	start := time.Now()
	resp, err := r.Router.PredictStreamRoute(ctx, req, emit)
	r.record(req, start, resp, err)
	return resp, err
}

// tracedModel spans the six Predict entry points a replica can take and
// timestamps each emit of the streamed ones.
type tracedModel struct {
	*wisdom.Model
	tr *tracer
}

func (m *tracedModel) span(context, prompt, session string) func() {
	start := time.Now()
	return func() { m.tr.add(m.tr.reqFor(requestKey(context, prompt, session)), layerPredict, start, time.Now()) }
}

// timedEmit wraps emit to note when the name line and the first body delta
// left the model; the returned func files the times.
func (m *tracedModel) timedEmit(emit func(string)) (func(string), func()) {
	start := time.Now()
	var et emitTimes
	n := 0
	wrapped := func(d string) {
		switch n++; n {
		case 1:
			et.nameLine = time.Since(start)
		case 2:
			et.firstBody = time.Since(start)
		}
		emit(d)
	}
	return wrapped, func() {
		m.tr.mu.Lock()
		m.tr.emits = append(m.tr.emits, et)
		m.tr.mu.Unlock()
	}
}

func (m *tracedModel) Predict(context, prompt string) string {
	defer m.span(context, prompt, "")()
	return m.Model.Predict(context, prompt)
}

func (m *tracedModel) PredictSession(session, context, prompt string) string {
	defer m.span(context, prompt, session)()
	return m.Model.PredictSession(session, context, prompt)
}

func (m *tracedModel) PredictSched(ctx context.Context, yamlCtx, prompt string) (string, error) {
	defer m.span(yamlCtx, prompt, "")()
	return m.Model.PredictSched(ctx, yamlCtx, prompt)
}

func (m *tracedModel) PredictStream(ctx context.Context, yamlCtx, prompt string, emit func(string)) string {
	defer m.span(yamlCtx, prompt, "")()
	emit, done := m.timedEmit(emit)
	defer done()
	return m.Model.PredictStream(ctx, yamlCtx, prompt, emit)
}

func (m *tracedModel) PredictStreamSession(ctx context.Context, session, yamlCtx, prompt string, emit func(string)) string {
	defer m.span(yamlCtx, prompt, session)()
	emit, done := m.timedEmit(emit)
	defer done()
	return m.Model.PredictStreamSession(ctx, session, yamlCtx, prompt, emit)
}

func (m *tracedModel) PredictStreamSched(ctx context.Context, yamlCtx, prompt string, emit func(string)) (string, error) {
	defer m.span(yamlCtx, prompt, "")()
	emit, done := m.timedEmit(emit)
	defer done()
	return m.Model.PredictStreamSched(ctx, yamlCtx, prompt, emit)
}

// timedLM times the n-gram LM's Complete. It cannot wrap the transformer:
// wisdom type-asserts *NeuralLM to find sessions and the scheduler.
type timedLM struct {
	wisdom.Generator
	tr *tracer
}

func (g *timedLM) Complete(prefix, prompt []int, maxNew int, stop func([]int) bool, stopToken int) []int {
	start := time.Now()
	out := g.Generator.Complete(prefix, prompt, maxNew, stop, stopToken)
	d := time.Since(start).Seconds()
	g.tr.mu.Lock()
	g.tr.ngram = append(g.tr.ngram, d)
	g.tr.mu.Unlock()
	return out
}

// observeQueueWait takes over the scheduler's queue-wait hook to keep raw
// samples (the server's histogram starts at 100 µs), and still feeds the
// histogram serve.Instrument pointed the hook at.
func (t *tracer) observeQueueWait(model *wisdom.Model, reg *observe.Registry) {
	h := reg.Histogram("wisdom_sched_queue_wait_seconds",
		"Wait between a request's submission and its admission into the step batch.", observe.DefBuckets)
	model.SetSchedQueueWaitObserver(func(s float64) {
		h.Observe(s)
		t.mu.Lock()
		t.waits = append(t.waits, s)
		t.mu.Unlock()
	})
}
