// Package serve implements the inference service of the paper's Demo/Plugin
// section: model predictions exposed over a JSON REST API and a compact
// binary RPC protocol (the stdlib substitute for the paper's GRPC
// interface), plus the response cache the paper lists as its latency
// roadmap item. The examples/editor-plugin program drives this service the
// way the paper's Visual Studio Code plugin drives theirs.
//
// # Concurrency model
//
// A unary request is a streamed request without a sink, so both protocols
// and both shapes run one pipeline (predictStream) with explicit stages:
//
//  1. The LRU response cache. A hit is served at once — to a stream as a
//     single delta.
//  2. A singleflight group coalesces concurrent identical requests (same
//     context+prompt) into one model invocation whose result fans out to all
//     waiters. Without it, N simultaneous misses on one key would each run a
//     full generation with the last writer winning the cache slot. Requests
//     that own their output skip it: live streams (their deltas belong to
//     one client) and session requests (their decode state is exclusive).
//  3. Admission (admit): a bounded worker pool admits at most
//     Options.Workers concurrent predictions, with a bounded wait queue and
//     a per-request admission deadline; inside the slot the request reaches
//     the backend and a first-class answer is put in the cache. Requests
//     beyond pool+queue capacity are shed with HTTP 503 (Retry-After) or an
//     RPC error response instead of piling up goroutines without bound.
//  4. The backend: one function built once, at construction, from the
//     interfaces the model implements — routing, else session (for requests
//     naming one), else scheduler, else degradation chain, else the plain
//     model — each calling the unary or the streaming method of its
//     interface according to whether the request has a sink.
//
// The model itself must be safe for concurrent Predict calls; *wisdom.Model
// and every Generator in this repository are (inference reads frozen counts
// and weights only — see the concurrency stress tests in each package).
//
// # Observability
//
// Instrument attaches an observe.Registry; from then on the server records
// per-request latency histograms and request/error counters per protocol,
// cache hit/miss/eviction rates, coalesced and shed request counters,
// worker-pool occupancy and queue depth gauges, and served-token
// throughput, and exposes everything at GET /metrics in the Prometheus text
// format. GET /healthz answers liveness probes whether or not metrics are
// enabled. The same metrics text is available over the RPC listener via the
// "metrics" op (Client.Metrics), so a deployment that only exposes the RPC
// port can still be scraped.
//
// # Streaming
//
// Both protocols have a streaming variant that delivers the suggestion
// incrementally while the decode loop is still running: POST
// /v1/completions/stream answers with Server-Sent Events (delta events as
// text is produced, a terminal done event carrying the full Response), and
// the RPC op "stream" answers one request frame with a sequence of
// StreamFrame frames. A stream differs from a unary request in two rules
// only: it skips the singleflight group, and the admission deadline bounds
// its wait for a worker slot, not the stream itself (a unary request is
// bounded end to end). Admission happens before the first byte is written,
// so overload sheds a stream as a clean 503/error frame, never a torn
// half-stream. A client that disconnects mid-stream cancels the decode loop
// within one token, freeing its worker slot. See predictStream and
// docs/PROTOCOL.md.
//
// # Wire protocol
//
// The RPC transport is length-prefixed JSON frames over TCP: a 4-byte
// big-endian payload length followed by that many bytes of JSON, in both
// directions, with a 1 MiB frame cap. A unary exchange is one Request frame
// answered by one Response (or OpResponse) frame; a streaming exchange is
// one Request frame answered by delta StreamFrames and exactly one terminal
// frame. Frames never interleave between requests — a connection carries
// one exchange at a time. docs/PROTOCOL.md is the normative specification;
// writeFrame/readFrame are the only codec implementation and are fuzzed
// (FuzzDecodeFrame).
//
// # Lifecycle
//
// Shutdown drains the RPC side gracefully: listeners stop accepting,
// in-flight requests finish within the context's deadline, and persistent
// connections are then closed. The HTTP side is drained by the caller's
// http.Server.Shutdown (see cmd/wisdom-serve).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisdom/internal/observe"
)

// Predictor is the model-side interface the server needs; *wisdom.Model
// satisfies it. Implementations must be safe for concurrent Predict calls:
// the server runs up to Options.Workers of them in parallel.
type Predictor interface {
	Predict(context, prompt string) string
}

// DegradingPredictor is implemented by predictors that can degrade under
// failure (*wisdom.Chain): PredictDegraded reports whether the answer came
// from a fallback tier rather than the primary model. The server surfaces
// the flag as "degraded":true, counts it on
// wisdom_degraded_responses_total, and keeps degraded answers out of the
// response cache so a recovered primary is not shadowed by stale
// best-effort suggestions.
type DegradingPredictor interface {
	Predictor
	PredictDegraded(context, prompt string) (suggestion string, degraded bool)
}

// SessionPredictor is implemented by predictors that keep per-session
// prefix KV decode state (*wisdom.Model over a transformer with sessions
// enabled): PredictSession answers exactly like Predict but reuses the
// named session's retained state, and SessionStats exposes the cache's
// health for metrics. enabled is false until sessions have been switched on
// (wisdom.Model.EnableSessions), in which case the server routes session
// requests through the ordinary unary path.
type SessionPredictor interface {
	Predictor
	PredictSession(sessionID, context, prompt string) string
	SessionStats() (enabled bool, active int, evictions uint64, reuseRatio float64)
}

// SessionResetter is implemented by session predictors that can discard
// one session's retained decode state on demand (*wisdom.Model over a
// neural session cache): ResetSession forgets whatever the server holds
// under sessionID, so the next request of that session decodes from
// scratch. The server calls it when a request arrives with SessionReset
// set — the router's ownership-epoch check injects that flag when a
// session's ring owner changed, because the state this replica retains
// (if any) belongs to a conversation that continued elsewhere. Resetting
// an unknown session is a no-op.
type SessionResetter interface {
	ResetSession(sessionID string)
}

// SessionStreamingPredictor is the streaming face of a session predictor:
// PredictStreamSession follows PredictStream's emission contract while
// reusing the named session's decode state.
type SessionStreamingPredictor interface {
	SessionPredictor
	PredictStreamSession(ctx context.Context, sessionID, context, prompt string, emit func(delta string)) string
}

// SchedPredictor is implemented by predictors that can decode through a
// continuous-batching scheduler (*wisdom.Model over a transformer with the
// scheduler enabled): PredictSched answers exactly like Predict but joins
// the engine's shared step batch instead of decoding alone, failing fast
// with an error classified Overloaded() when the admission queue is full.
// SchedStats exposes the engine's scheduling counters for metrics. enabled
// is false until the scheduler has been switched on
// (wisdom.Model.EnableScheduler), in which case the server keeps the
// ordinary pipeline.
type SchedPredictor interface {
	Predictor
	PredictSched(ctx context.Context, context, prompt string) (string, error)
	SchedStats() (enabled bool, maxBatch, active, queued int, admitted, retired, steps, rowSteps uint64)
}

// SchedStreamingPredictor is the streaming face of a scheduled predictor:
// PredictStreamSched follows PredictStream's emission contract while
// decoding through the continuous-batching engine. An error before any
// delta has been emitted (queue full, engine closed) lets the server shed
// the stream cleanly.
type SchedStreamingPredictor interface {
	SchedPredictor
	PredictStreamSched(ctx context.Context, context, prompt string, emit func(delta string)) (string, error)
}

// RoutingPredictor is implemented by predictors that answer a request by
// forwarding it to another tier instead of decoding locally
// (*router.Router): PredictRoute receives the full Request — including
// SessionID, which a sharded frontend hashes for replica affinity — and
// returns the backend's response or an error when no backend could serve it
// (every candidate dead, breaker-open, or shedding). Routing errors are
// shed-shaped: the server answers 503 with Retry-After, never a torn
// response. When the model implements this interface the server routes every
// prediction through it — after the cache and singleflight group, so
// duplicate traffic coalesces before it crosses the network, and through the
// worker pool, so a slow backend cannot absorb unbounded concurrency.
type RoutingPredictor interface {
	Predictor
	PredictRoute(ctx context.Context, req Request) (Response, error)
}

// StatsAggregator is implemented by models that can widen the /v1/stats
// snapshot beyond this process (*router.Router aggregates its whole backend
// fleet): AggregateStats receives the server's local Stats and returns the
// value to encode instead. The RPC stats op keeps returning the local
// snapshot — it is what a frontend sums over its backends.
type StatsAggregator interface {
	AggregateStats(local Stats) any
}

// schedQueueWaitObservable is the optional hook wiring the engine's
// per-request queue-wait samples into a histogram; *wisdom.Model implements
// it. Unexported: it is a metrics seam, not part of the serving contract.
type schedQueueWaitObservable interface {
	SetSchedQueueWaitObserver(fn func(waitSeconds float64))
}

// Request is one completion request: the natural-language intent plus the
// optional Ansible context preceding the cursor.
type Request struct {
	// Prompt is the task description the user typed after "- name:".
	Prompt string `json:"prompt"`
	// Context is the file content above the prompt (may be empty).
	Context string `json:"context,omitempty"`
	// Op selects the RPC operation: "" (unary predict), "stream" (streamed
	// predict, answered with StreamFrames), "metrics" (Prometheus text
	// dump) or "health". HTTP ignores it — the REST API routes by path.
	// docs/PROTOCOL.md is the normative op table.
	Op string `json:"op,omitempty"`
	// SessionID is an opaque client-chosen key naming a decode session.
	// When set (and the model holds per-session prefix KV state), the
	// request reuses the session's retained state so only the token suffix
	// that changed since the session's last request is re-decoded. Over
	// HTTP the X-Wisdom-Session header sets it when the JSON field is
	// empty. It doubles as the affinity key a sharded frontend hashes to
	// route the session to the replica holding its state. Unknown to old
	// servers, which ignore it (see docs/PROTOCOL.md versioning).
	SessionID string `json:"session_id,omitempty"`
	// SessionReset, when set on a session request, discards whatever state
	// the server retains under SessionID before answering, forcing a cold
	// start. A router injects it when the session's ring owner changed —
	// the new replica either never saw the session or holds a prefix the
	// conversation has since outgrown elsewhere, so resuming would be
	// silently wrong. Meaningless without SessionID; unknown to old
	// servers, which ignore it (the answer is byte-identical either way).
	SessionReset bool `json:"session_reset,omitempty"`
	// Admin carries a fleet-administration request when Op is OpAdmin (see
	// admin.go and docs/PROTOCOL.md §7); nil for every other op.
	Admin *AdminRequest `json:"admin,omitempty"`
}

// Response carries the suggestion back to the editor.
type Response struct {
	// Suggestion is the completed task (name line plus body).
	Suggestion string `json:"suggestion"`
	// Cached reports whether the suggestion came from the response cache.
	Cached bool `json:"cached"`
	// Coalesced reports whether the suggestion was shared from a
	// concurrent identical request's model invocation.
	Coalesced bool `json:"coalesced,omitempty"`
	// Degraded reports that the suggestion came from a fallback tier of the
	// degradation chain (the primary model timed out or its circuit breaker
	// is open); it is best-effort quality and never cached.
	Degraded bool `json:"degraded,omitempty"`
	// LatencyMS is the server-side handling time in milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// Model names the serving model.
	Model string `json:"model"`
	// Replaced is set on streamed responses whose final post-processing
	// rewrote already-streamed text (the schema-validation fallback): the
	// concatenated deltas are stale and the client should re-render from
	// Suggestion. Unary responses never set it.
	Replaced bool `json:"replaced,omitempty"`
	// Error is set (and Suggestion empty) when the request was rejected,
	// e.g. shed under overload. RPC clients surface it as an error.
	Error string `json:"error,omitempty"`
}

// OpResponse answers the non-prediction RPC ops.
type OpResponse struct {
	Status  string `json:"status,omitempty"`
	Model   string `json:"model,omitempty"`
	Metrics string `json:"metrics,omitempty"`
	// Stats carries the server's counter snapshot (op "stats"). Always the
	// local process's view — a router frontend sums this field over its
	// backends to build the fleet aggregate (see docs/PROTOCOL.md).
	Stats *Stats `json:"stats,omitempty"`
	// Admin carries the admin exchange's outcome (op "admin"); nil for
	// every other op and on admin rejections (Error is set instead).
	Admin *AdminResponse `json:"admin,omitempty"`
	Error string         `json:"error,omitempty"`
}

// OpStats is the Request.Op requesting the server's Stats snapshot over RPC
// (Client.Stats). It is how a router frontend scrapes replica counters for
// fleet-wide aggregation when replicas only expose their RPC port. Unknown
// to pre-PR9 servers, which answer it with an unknown-op error (see
// docs/PROTOCOL.md versioning).
const OpStats = "stats"

// Options configure the concurrent serving path. The zero value of each
// field selects the documented default.
type Options struct {
	// CacheSize is the LRU response-cache capacity; <= 0 disables caching.
	CacheSize int
	// Workers bounds concurrent model Predict calls (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker (0: 4x Workers;
	// < 0: no queue — a busy pool sheds immediately).
	QueueDepth int
	// QueueTimeout bounds how long one request may wait for admission
	// (0: 2s; < 0: no deadline, wait until the client gives up).
	QueueTimeout time.Duration
	// MaxBodyBytes caps an HTTP request body (<= 0: 1 MiB, matching the
	// RPC frame limit).
	MaxBodyBytes int64
	// ConnHook, when set, wraps every accepted RPC connection before the
	// server reads from it — the transport seam the resilience package's
	// fault injector plugs into (resilience.Injector.WrapConn). Production
	// deployments leave it nil.
	ConnHook func(net.Conn) net.Conn
	// AdminToken authenticates fleet-administration requests (op "admin",
	// /admin/backends). Empty disables the whole admin surface — there is
	// no unauthenticated mode. Only meaningful when the model implements
	// AdminHandler (the router); replicas ignore it.
	AdminToken string
}

// DefaultQueueTimeout is the admission deadline used when Options leave
// QueueTimeout zero.
const DefaultQueueTimeout = 2 * time.Second

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	case o.QueueDepth == 0:
		o.QueueDepth = 4 * o.Workers
	}
	switch {
	case o.QueueTimeout < 0:
		o.QueueTimeout = 0
	case o.QueueTimeout == 0:
		o.QueueTimeout = DefaultQueueTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = maxFrame
	}
	return o
}

// Server serves predictions over HTTP and the binary RPC protocol.
type Server struct {
	// backend answers one admitted request; streams reports whether it can
	// deliver deltas while decoding (otherwise a stream request is answered
	// as a unary one and delivered as a single delta), and sessions whether
	// requests naming a session own exclusive state behind it and so bypass
	// the singleflight group. All three are fixed by bindBackend.
	backend  backend
	streams  bool
	sessions bool
	session  SessionPredictor // stats source; non-nil when model has sessions enabled
	sched    SchedPredictor   // stats source; non-nil when model has the scheduler enabled

	statsAgg   StatsAggregator // non-nil when model widens /v1/stats
	admin      AdminHandler    // non-nil when model exposes fleet membership
	adminToken string          // "" disables the admin surface
	modelName  string
	cache      *Cache
	requests   atomic.Int64 // predictions served, both protocols
	connHook   func(net.Conn) net.Conn

	// Streaming accounting (live regardless of instrumentation, so tests
	// and /v1/stats can observe stream lifecycles directly).
	activeStreams    atomic.Int64
	cancelledStreams atomic.Uint64

	// Concurrency control: flight coalesces identical in-flight requests,
	// pool bounds concurrent Predict calls. reqTimeout bounds one
	// request's admission wait (queueing plus coalesced waiting).
	flight     *Flight
	pool       *Pool
	reqTimeout time.Duration
	maxBody    int64

	reg *observe.Registry
	met *serverMetrics

	// RPC lifecycle: lifeMu guards the listener/connection sets and the
	// draining flag; inflight counts requests between frame-read and
	// frame-write so Shutdown can wait for them.
	lifeMu   sync.Mutex
	draining bool
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	inflight sync.WaitGroup
}

// NewServer wraps a predictor with default concurrency options.
// cacheSize <= 0 disables the cache.
func NewServer(model Predictor, modelName string, cacheSize int) *Server {
	return NewServerWithOptions(model, modelName, Options{CacheSize: cacheSize})
}

// NewServerWithOptions wraps a predictor with explicit serving options.
func NewServerWithOptions(model Predictor, modelName string, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		modelName:  modelName,
		connHook:   opts.ConnHook,
		flight:     NewFlight(),
		pool:       NewPool(opts.Workers, opts.QueueDepth, opts.QueueTimeout),
		reqTimeout: opts.QueueTimeout,
		maxBody:    opts.MaxBodyBytes,
		lns:        make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	s.bindBackend(model)
	if sa, ok := model.(StatsAggregator); ok {
		s.statsAgg = sa
	}
	// The admin surface engages only for models with membership to
	// administer, and stays dark without a configured token (fail closed).
	if ah, ok := model.(AdminHandler); ok {
		s.admin = ah
		s.adminToken = opts.AdminToken
	}
	if opts.CacheSize > 0 {
		s.cache = NewCache(opts.CacheSize)
	}
	return s
}

// Requests returns the number of predictions served (both protocols).
func (s *Server) Requests() int {
	return int(s.requests.Load())
}

// Pool returns the server's admission pool (occupancy introspection).
func (s *Server) Pool() *Pool { return s.pool }

// ActiveStreams returns how many streamed predictions are in flight.
func (s *Server) ActiveStreams() int { return int(s.activeStreams.Load()) }

// CancelledStreams returns how many streams were abandoned before their
// terminal frame (client disconnects and failed writes).
func (s *Server) CancelledStreams() uint64 { return s.cancelledStreams.Load() }

// ---- metrics ----

// serverMetrics holds the instruments recorded on the request hot path.
// The struct is nil when the server is not instrumented, so the disabled
// path costs one pointer test per request.
type serverMetrics struct {
	http, rpc      protoMetrics
	cachedTotal    *observe.Counter
	coalescedTotal *observe.Counter
	servedTokens   *observe.Counter
	tokensPerSec   *observe.Gauge
	degradedTotal  *observe.Counter
	streamTTFT     *observe.Histogram
}

// protoMetrics holds the instruments labelled by serving protocol.
type protoMetrics struct {
	requests        *observe.Counter
	duration        *observe.Histogram
	shed            *observe.Counter
	streamRequests  *observe.Counter
	streamCancelled *observe.Counter
}

func newProtoMetrics(reg *observe.Registry, proto string) protoMetrics {
	l := observe.Label{Key: "proto", Value: proto}
	return protoMetrics{
		requests: reg.Counter("wisdom_requests_total",
			"Prediction requests served.", l),
		duration: reg.Histogram("wisdom_request_duration_seconds",
			"Server-side prediction latency.", observe.DefBuckets, l),
		shed: reg.Counter("wisdom_shed_requests_total",
			"Requests rejected by overload shedding.", l),
		streamRequests: reg.Counter("wisdom_stream_requests_total",
			"Streamed prediction requests started.", l),
		streamCancelled: reg.Counter("wisdom_stream_cancelled_total",
			"Streams abandoned before completion (client disconnect or failed write).", l),
	}
}

// by returns the instruments of one protocol ("rpc", else HTTP).
func (m *serverMetrics) by(proto string) *protoMetrics {
	if proto == "rpc" {
		return &m.rpc
	}
	return &m.http
}

// Instrument registers the server's metrics on reg and makes Handler serve
// reg at /metrics. Call it once, before traffic starts; a nil registry is
// a no-op and leaves metrics disabled.
func (s *Server) Instrument(reg *observe.Registry) {
	if reg == nil {
		return
	}
	m := &serverMetrics{
		http: newProtoMetrics(reg, "http"),
		rpc:  newProtoMetrics(reg, "rpc"),
		cachedTotal: reg.Counter("wisdom_cached_responses_total",
			"Predictions answered from the response cache."),
		coalescedTotal: reg.Counter("wisdom_coalesced_requests_total",
			"Predictions shared from a concurrent identical request's model call."),
		servedTokens: reg.Counter("wisdom_served_tokens_total",
			"Whitespace-delimited tokens in served suggestions."),
		tokensPerSec: reg.Gauge("wisdom_served_tokens_per_second",
			"Generation rate of the most recent uncached prediction."),
		degradedTotal: reg.Counter("wisdom_degraded_responses_total",
			"Predictions answered by a degradation-chain fallback tier."),
		streamTTFT: reg.Histogram("wisdom_stream_ttft_seconds",
			"Time from stream request arrival to its first delta (time to first token).",
			observe.DefBuckets),
	}
	reg.GaugeFunc("wisdom_stream_active",
		"Streamed predictions currently in flight.",
		func() float64 { return float64(s.activeStreams.Load()) })
	fg := s.flight
	reg.CounterFunc("wisdom_coalesce_abandoned_total",
		"Singleflight waiters whose context expired before the leader finished (never received a shared answer).",
		func() float64 { return float64(fg.Abandoned()) })
	if sp := s.session; sp != nil {
		reg.GaugeFunc("wisdom_session_active",
			"Live decode sessions (resident prefix KV states plus states checked out by in-flight generations).",
			func() float64 { _, active, _, _ := sp.SessionStats(); return float64(active) })
		reg.GaugeFunc("wisdom_session_prefix_reuse_ratio",
			"Fraction of prefix positions served from retained session state instead of re-decoded.",
			func() float64 { _, _, _, ratio := sp.SessionStats(); return ratio })
		reg.CounterFunc("wisdom_session_evictions_total",
			"Session states evicted (LRU bound, memory cap, or idle TTL).",
			func() float64 { _, _, ev, _ := sp.SessionStats(); return float64(ev) })
	}
	if sp := s.sched; sp != nil {
		reg.GaugeFunc("wisdom_sched_batch_occupancy",
			"Fraction of the decode engine's step-batch slots holding a live sequence.",
			func() float64 {
				_, maxBatch, active, _, _, _, _, _ := sp.SchedStats()
				if maxBatch == 0 {
					return 0
				}
				return float64(active) / float64(maxBatch)
			})
		reg.GaugeFunc("wisdom_sched_queue_depth",
			"Requests waiting in the decode engine's admission queue.",
			func() float64 { _, _, _, queued, _, _, _, _ := sp.SchedStats(); return float64(queued) })
		reg.CounterFunc("wisdom_sched_admitted_total",
			"Sequences admitted into the decode engine's step batch.",
			func() float64 { _, _, _, _, admitted, _, _, _ := sp.SchedStats(); return float64(admitted) })
		reg.CounterFunc("wisdom_sched_retired_total",
			"Sequences retired from the decode engine's step batch (finished, stopped or cancelled).",
			func() float64 { _, _, _, _, _, retired, _, _ := sp.SchedStats(); return float64(retired) })
		if qo, ok := sp.(schedQueueWaitObservable); ok {
			h := reg.Histogram("wisdom_sched_queue_wait_seconds",
				"Wait between a request's submission and its admission into the step batch.",
				observe.DefBuckets)
			qo.SetSchedQueueWaitObserver(h.Observe)
		}
	}
	p := s.pool
	reg.GaugeFunc("wisdom_pool_workers",
		"Size of the inference worker pool.", func() float64 { return float64(p.Workers()) })
	reg.GaugeFunc("wisdom_pool_active_workers",
		"Predict calls currently running.", func() float64 { return float64(p.Active()) })
	reg.GaugeFunc("wisdom_pool_queue_depth",
		"Requests currently waiting for a worker.", func() float64 { return float64(p.Queued()) })
	if s.cache != nil {
		c := s.cache
		reg.CounterFunc("wisdom_cache_hits_total",
			"Response-cache hits.", func() float64 { h, _, _ := c.Stats(); return float64(h) })
		reg.CounterFunc("wisdom_cache_misses_total",
			"Response-cache misses.", func() float64 { _, m, _ := c.Stats(); return float64(m) })
		reg.CounterFunc("wisdom_cache_evictions_total",
			"Response-cache LRU evictions.", func() float64 { _, _, e := c.Stats(); return float64(e) })
		reg.GaugeFunc("wisdom_cache_entries",
			"Response-cache resident entries.", func() float64 { return float64(c.Len()) })
	}
	s.reg = reg
	s.met = m
}

// countError increments the per-protocol error counter for reason. Error
// paths are rare, so the registry's get-or-create lookup is fine here.
func (s *Server) countError(proto, reason string) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("wisdom_request_errors_total", "Rejected requests.",
		observe.Label{Key: "proto", Value: proto},
		observe.Label{Key: "reason", Value: reason}).Inc()
}

// shedReason maps the error that kept a request from being served to the
// error-counter reason label: the two overload shapes, a client that gave
// up, and — everything else — a backend that could not answer (no live
// replica, open breaker, engine shutting down).
func shedReason(err error) string {
	var ov interface{ Overloaded() bool }
	switch {
	case errors.Is(err, ErrOverloaded), errors.As(err, &ov) && ov.Overloaded():
		// The worker pool's or the scheduler's admission queue rejected the
		// request — same overload semantics, different layer.
		return "overloaded"
	case errors.Is(err, ErrQueueTimeout), errors.Is(err, context.DeadlineExceeded):
		return "queue_timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "unavailable"
	}
}

// shed accounts one request rejected before anything was delivered, and
// returns err for the caller to surface.
func (s *Server) shed(proto string, err error) error {
	if m := s.met; m != nil {
		m.by(proto).shed.Inc()
	}
	s.countError(proto, shedReason(err))
	return err
}

// streamCancelled accounts one stream abandoned before its terminal frame
// (the client went away or a delta write failed).
func (s *Server) streamCancelled(proto string, err error) error {
	s.cancelledStreams.Add(1)
	if m := s.met; m != nil {
		m.by(proto).streamCancelled.Inc()
	}
	s.countError(proto, "stream_cancelled")
	return errors.Join(errStreamCancelled, err)
}

// served stamps and accounts one response about to be delivered.
func (s *Server) served(resp Response, proto string, start time.Time) Response {
	s.requests.Add(1)
	resp.LatencyMS = ms(start)
	resp.Model = s.modelName
	if m := s.met; m != nil {
		elapsed := time.Since(start).Seconds()
		pm := m.by(proto)
		pm.requests.Inc()
		pm.duration.Observe(elapsed)
		toks := len(strings.Fields(resp.Suggestion))
		m.servedTokens.Add(toks)
		if resp.Degraded {
			m.degradedTotal.Inc()
		}
		switch {
		case resp.Cached:
			m.cachedTotal.Inc()
		case resp.Coalesced:
			m.coalescedTotal.Inc()
		default:
			if elapsed > 0 && toks > 0 {
				m.tokensPerSec.Set(float64(toks) / elapsed)
			}
		}
	}
	return resp
}

// predict answers one unary request: a stream without a sink.
func (s *Server) predict(ctx context.Context, req Request, proto string) (Response, error) {
	return s.predictStream(ctx, req, proto, nil)
}

// predictStream is the one request pipeline (see the package comment for
// its stages). send is nil for a unary request; for a stream it delivers
// each delta. The contract with callers:
//
//   - A non-nil error with no delta sent means the request was shed (or its
//     client gave up) before the first byte — the caller can still answer
//     with a clean protocol-level rejection.
//   - send failures and ctx cancellation cancel the decode loop (freeing
//     the worker slot) and surface as errStreamCancelled.
//   - On success, the returned Response carries the authoritative full
//     suggestion; Replaced reports that it differs from the concatenated
//     deltas (late post-processing rewrote the answer) and the client
//     should re-render from Suggestion.
func (s *Server) predictStream(ctx context.Context, req Request, proto string, send func(delta string) error) (Response, error) {
	start := time.Now()
	if send != nil {
		s.activeStreams.Add(1)
		defer s.activeStreams.Add(-1)
		if m := s.met; m != nil {
			m.by(proto).streamRequests.Inc()
		}
	}

	key := req.Context + "\x00" + req.Prompt
	if s.cache != nil {
		if v, ok := s.cache.Get(key); ok {
			return s.deliverWhole(Response{Suggestion: v, Cached: true}, proto, start, send)
		}
	}

	// The admission deadline bounds a unary request end to end — queueing,
	// coalesced waiting and the backend call — but only a live stream's wait
	// for a worker slot: once admitted, a stream is bounded by its client's
	// patience (ctx), not by the request timeout.
	actx := ctx
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	if send != nil && s.streams {
		return s.streamLive(ctx, actx, req, key, proto, start, send)
	}

	var resp Response
	var err error
	if req.SessionID != "" && s.sessions {
		// Session requests route around singleflight: the session's decode
		// state (or, behind a router, its replica affinity) is exclusive to
		// one request at a time, so sharing a leader's answer — whose decode
		// advanced a different session, or none — would break the state
		// handoff. The answer still lands in the response cache: session
		// output is byte-identical to stateless output for the same request.
		resp.Suggestion, resp.Degraded, err = s.admit(actx, actx, req, key, nil)
	} else {
		resp.Suggestion, resp.Degraded, resp.Coalesced, err = s.flight.DoDegraded(actx, key,
			func() (string, bool, error) { return s.admit(actx, actx, req, key, nil) })
	}
	if err != nil {
		return Response{}, s.shed(proto, err)
	}
	return s.deliverWhole(resp, proto, start, send)
}

// admit is the one admission stage: it takes a worker slot — one per
// admitted request, released on every exit path (a queue-full rejection by
// the scheduler included), so a rejected request never leaks capacity —
// runs the backend inside it under gctx, and puts a first-class answer in
// the response cache. Degraded answers stay out of the cache: they are
// best-effort, and caching one would keep serving it after the primary
// recovers. So does what a stream cut short left behind (its gctx ended):
// the partial answer assembled so far.
func (s *Server) admit(actx, gctx context.Context, req Request, key string, emit func(string)) (string, bool, error) {
	if err := s.pool.Acquire(actx); err != nil {
		return "", false, err
	}
	defer s.pool.Release()
	v, degraded, err := s.backend(gctx, req, emit)
	if err != nil {
		return "", false, err
	}
	if s.cache != nil && !degraded && (emit == nil || gctx.Err() == nil) {
		s.cache.Put(key, v)
	}
	return v, degraded, nil
}

// deliverWhole serves an answer that exists in full — a cache hit, a unary
// answer, or a stream request over a backend that cannot stream — which
// reaches a stream's client as a single delta, so its time-to-first-token
// is the whole handling time.
func (s *Server) deliverWhole(resp Response, proto string, start time.Time, send func(string) error) (Response, error) {
	if send != nil {
		if m := s.met; m != nil {
			m.streamTTFT.Observe(time.Since(start).Seconds())
		}
		if resp.Suggestion != "" {
			if err := send(resp.Suggestion); err != nil {
				return Response{}, s.streamCancelled(proto, err)
			}
		}
	}
	return s.served(resp, proto, start), nil
}

// streamLive runs a cache-missed stream over a streaming backend: admitted
// like any request — before the first byte leaves the server, so a shed
// stream is indistinguishable on the wire from a shed unary request — then
// forwarding deltas as the backend emits them.
func (s *Server) streamLive(ctx, actx context.Context, req Request, key, proto string, start time.Time, send func(string) error) (Response, error) {
	// The generation context: client disconnect (ctx) or a failed delta
	// write cancels it, and the neural decode loop checks it per token, so
	// an abandoned stream stops burning its pool slot within one step.
	gctx, cancelGen := context.WithCancel(ctx)
	defer cancelGen()
	var sent strings.Builder
	var sendErr error
	emit := func(d string) {
		// Empty deltas are suppressed: docs/PROTOCOL.md promises every
		// delta frame carries text (an empty suggestion streams as a bare
		// terminal frame).
		if d == "" || sendErr != nil {
			return
		}
		if sent.Len() == 0 {
			if m := s.met; m != nil {
				m.streamTTFT.Observe(time.Since(start).Seconds())
			}
		}
		if err := send(d); err != nil {
			sendErr = err
			cancelGen()
			return
		}
		sent.WriteString(d)
	}

	final, degraded, err := s.admit(actx, gctx, req, key, emit)
	switch {
	case sendErr != nil:
		return Response{}, s.streamCancelled(proto, sendErr)
	case err != nil && sent.Len() == 0:
		// Nothing has left the server (pool or scheduler queue full, no live
		// replica): a clean protocol-level rejection.
		return Response{}, s.shed(proto, err)
	case err != nil:
		// A routed stream failed after its first delta: surfaced as a
		// terminal error, never replayed.
		s.countError(proto, "stream_interrupted")
		return Response{}, err
	case ctx.Err() != nil:
		return Response{}, s.streamCancelled(proto, ctx.Err())
	}
	return s.served(Response{
		Suggestion: final,
		Degraded:   degraded,
		Replaced:   sent.String() != final,
	}, proto, start), nil
}

func ms(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1000 }

// retryAfter derives the Retry-After guidance for a shed request from the
// server's current load instead of a hardcoded constant: the advised wait
// scales with how full the admission queue is, from 1s when the queue is
// empty (a transient spike — the client may come straight back) up to the
// full admission deadline when the queue is saturated (coming back sooner
// than that would only time out in the queue again).
func (s *Server) retryAfter() string {
	secs := 1.0
	if cap := s.pool.QueueCap(); cap > 0 {
		frac := float64(s.pool.Queued()) / float64(cap)
		if frac > 1 {
			frac = 1
		}
		if deadline := s.reqTimeout.Seconds(); deadline > 1 {
			secs += frac * (deadline - 1)
		}
	} else if deadline := s.reqTimeout.Seconds(); deadline > 1 {
		// No queue: a busy pool sheds instantly, so advise one admission
		// deadline — the bound on how long the running work can take.
		secs = deadline
	}
	return strconv.Itoa(int(math.Ceil(secs)))
}

// ---- REST ----

// Handler returns the HTTP handler exposing the REST API:
//
//	POST /v1/completions         {"prompt": ..., "context": ...} -> Response
//	POST /v1/completions/stream  same body -> Server-Sent Events stream
//	GET/POST /admin/backends     fleet membership (token-gated; admin.go)
//	GET  /v1/health       -> {"status": "ok", "model": ...}
//	GET  /healthz         -> {"status": "ok", "model": ...}   (liveness probe)
//	GET  /v1/stats        -> Stats
//	GET  /metrics         -> Prometheus text format (requires Instrument)
//
// Oversized request bodies are rejected with 413; requests shed under
// overload get 503 with a Retry-After header (on both endpoints — a shed
// stream is rejected before any SSE byte is written).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/completions", func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.decodeHTTPRequest(w, r)
		if !ok {
			return
		}
		resp, err := s.predict(r.Context(), req, "http")
		if err != nil {
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Too late for a status change; the connection is gone.
			return
		}
	})
	mux.HandleFunc("/v1/completions/stream", s.handleStreamHTTP)
	mux.HandleFunc("/admin/backends", s.handleAdminHTTP)
	health := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","model":%q,"requests":%d}`+"\n", s.modelName, s.Requests())
	}
	mux.HandleFunc("/v1/health", health)
	mux.HandleFunc("/healthz", health)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A stats-aggregating model (the router) widens the snapshot to its
		// whole fleet; everything else serves the local counters.
		var payload any = s.Stats()
		if s.statsAgg != nil {
			payload = s.statsAgg.AggregateStats(s.Stats())
		}
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			return
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.reg == nil {
			http.Error(w, "metrics disabled; start the server with instrumentation (wisdom-serve -metrics)", http.StatusNotFound)
			return
		}
		s.reg.Handler().ServeHTTP(w, r)
	})
	return mux
}

// Stats summarises the server's counters for the /v1/stats endpoint.
type Stats struct {
	Model          string  `json:"model"`
	Requests       int     `json:"requests"`
	PoolWorkers    int     `json:"pool_workers"`
	PoolActive     int     `json:"pool_active"`
	PoolQueued     int     `json:"pool_queued"`
	ShedRequests   uint64  `json:"shed_requests"`
	ActiveStreams  int     `json:"active_streams"`
	CancelledStrms uint64  `json:"cancelled_streams"`
	CacheEnabled   bool    `json:"cache_enabled"`
	CacheEntries   int     `json:"cache_entries"`
	CacheHits      int     `json:"cache_hits"`
	CacheMisses    int     `json:"cache_misses"`
	CacheEvictions int     `json:"cache_evictions"`
	HitRate        float64 `json:"hit_rate"`
	// Session-cache state (all zero when the model has no sessions).
	SessionsEnabled   bool    `json:"sessions_enabled"`
	SessionsActive    int     `json:"sessions_active,omitempty"`
	SessionEvictions  uint64  `json:"session_evictions,omitempty"`
	SessionReuseRatio float64 `json:"session_reuse_ratio,omitempty"`
	// AbandonedWaiters counts singleflight waiters that timed out before
	// the leader finished (they never received a shared answer).
	AbandonedWaiters uint64 `json:"abandoned_waiters,omitempty"`
	// Continuous-batching scheduler state (all zero when disabled).
	// SchedOccupancy is the cumulative batch occupancy — row-steps decoded
	// divided by total step-batch slot capacity over every step taken.
	SchedEnabled   bool    `json:"sched_enabled"`
	SchedMaxBatch  int     `json:"sched_max_batch,omitempty"`
	SchedActive    int     `json:"sched_active,omitempty"`
	SchedQueued    int     `json:"sched_queued,omitempty"`
	SchedAdmitted  uint64  `json:"sched_admitted,omitempty"`
	SchedRetired   uint64  `json:"sched_retired,omitempty"`
	SchedOccupancy float64 `json:"sched_occupancy,omitempty"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Model:          s.modelName,
		Requests:       s.Requests(),
		PoolWorkers:    s.pool.Workers(),
		PoolActive:     s.pool.Active(),
		PoolQueued:     s.pool.Queued(),
		ShedRequests:   s.pool.Shed(),
		ActiveStreams:  s.ActiveStreams(),
		CancelledStrms: s.CancelledStreams(),
	}
	if s.cache != nil {
		st.CacheEnabled = true
		st.CacheEntries = s.cache.Len()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = s.cache.Stats()
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			st.HitRate = float64(st.CacheHits) / float64(total)
		}
	}
	st.AbandonedWaiters = s.flight.Abandoned()
	if s.session != nil {
		st.SessionsEnabled, st.SessionsActive, st.SessionEvictions, st.SessionReuseRatio = s.session.SessionStats()
	}
	if s.sched != nil {
		var steps, rowSteps uint64
		st.SchedEnabled, st.SchedMaxBatch, st.SchedActive, st.SchedQueued,
			st.SchedAdmitted, st.SchedRetired, steps, rowSteps = s.sched.SchedStats()
		if cap := steps * uint64(st.SchedMaxBatch); cap > 0 {
			st.SchedOccupancy = float64(rowSteps) / float64(cap)
		}
	}
	return st
}

// ListenHTTP serves the REST API on addr until the listener fails.
func (s *Server) ListenHTTP(addr string) error {
	return http.ListenAndServe(addr, s.Handler())
}

// ---- binary RPC (the GRPC stand-in) ----

// The wire protocol is length-prefixed JSON frames over TCP: a 4-byte
// big-endian frame length followed by the JSON payload, in both directions;
// one request frame yields one response frame. This keeps the transport
// dependency-free while preserving the GRPC call shape (typed request,
// typed response, persistent connection, multiplexed calls in sequence).

const maxFrame = 1 << 20 // 1 MiB per frame is far beyond any playbook

// writeFrame writes one length-prefixed JSON frame. It takes an io.Writer
// (not a net.Conn) so the codec is fuzzable and transport hooks compose.
func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds limit", len(payload))
	}
	hdr := []byte{byte(len(payload) >> 24), byte(len(payload) >> 16), byte(len(payload) >> 8), byte(len(payload))}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame reads one length-prefixed JSON frame into v.
func readFrame(r io.Reader, v any) error {
	hdr := make([]byte, 4)
	if _, err := readFull(r, hdr); err != nil {
		return err
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n <= 0 || n > maxFrame {
		return fmt.Errorf("serve: invalid frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := readFull(r, payload); err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

func readFull(r io.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ServeRPC accepts RPC connections on the listener until it is closed
// (Shutdown closes every registered listener).
func (s *Server) ServeRPC(ln net.Listener) error {
	s.lifeMu.Lock()
	if s.draining {
		s.lifeMu.Unlock()
		ln.Close()
		return nil
	}
	s.lns[ln] = struct{}{}
	s.lifeMu.Unlock()
	defer func() {
		s.lifeMu.Lock()
		delete(s.lns, ln)
		s.lifeMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.connHook != nil {
			conn = s.connHook(conn)
		}
		s.lifeMu.Lock()
		if s.draining {
			s.lifeMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.lifeMu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.lifeMu.Lock()
		delete(s.conns, conn)
		s.lifeMu.Unlock()
	}()
	for {
		var req Request
		if err := readFrame(conn, &req); err != nil {
			return // client closed or sent garbage; drop the connection
		}
		if !s.beginRequest() {
			return // draining: the client sees the connection close
		}
		var err error
		if req.Op == OpStream {
			err = s.serveStreamRPC(conn, req)
		} else {
			err = writeFrame(conn, s.handleRPC(req))
		}
		s.inflight.Done()
		if err != nil {
			return
		}
	}
}

// handleRPC dispatches one RPC frame by op.
func (s *Server) handleRPC(req Request) any {
	switch req.Op {
	case "":
		resp, err := s.predict(context.Background(), req, "rpc")
		if err != nil {
			return Response{Model: s.modelName, Error: err.Error()}
		}
		return resp
	case "metrics":
		var sb strings.Builder
		if s.reg == nil {
			return OpResponse{Model: s.modelName, Error: "metrics disabled"}
		}
		if err := s.reg.WritePrometheus(&sb); err != nil {
			return OpResponse{Model: s.modelName, Error: err.Error()}
		}
		return OpResponse{Model: s.modelName, Metrics: sb.String()}
	case "health":
		return OpResponse{Status: "ok", Model: s.modelName}
	case OpStats:
		st := s.Stats()
		return OpResponse{Model: s.modelName, Stats: &st}
	case OpAdmin:
		return s.handleAdminRPC(req)
	default:
		s.countError("rpc", "unknown_op")
		return OpResponse{Model: s.modelName, Error: "unknown op " + req.Op}
	}
}

// beginRequest marks one RPC request in flight unless the server is
// draining.
func (s *Server) beginRequest() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the RPC side: stop accepting, let in-flight requests
// finish (bounded by ctx), then close the persistent connections. It
// returns ctx.Err() if the deadline expired before the drain completed.
// The server refuses new work afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifeMu.Lock()
	s.draining = true
	for ln := range s.lns {
		ln.Close()
	}
	s.lifeMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.lifeMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.lifeMu.Unlock()
	return err
}

// ErrClientBroken is returned by every call on a Client whose connection
// previously failed mid-exchange. The framing state of such a connection is
// undefined (a partial frame may have been written or read), so reusing it
// would desynchronise every later call; reconnect with Dial instead.
var ErrClientBroken = errors.New("serve: client connection broken by a previous I/O error; redial")

// Client is an RPC client holding one persistent connection.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	broken  bool
	timeout time.Duration // per-round-trip I/O deadline; 0 = none
}

// Dial connects an RPC client to addr.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, nil)
}

// DialWith connects an RPC client to addr and, when wrap is non-nil, runs
// the connection through it before use — the client-side transport seam for
// the resilience package's fault injector.
func DialWith(addr string, wrap func(net.Conn) net.Conn) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	return &Client{conn: conn}, nil
}

// SetTimeout bounds every subsequent round trip's I/O (write + read) by d.
// A round trip that exceeds it fails with a deadline error and, like any
// other mid-exchange failure, breaks the client. Zero disables the bound.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Broken reports whether a previous I/O failure has condemned the
// connection (every later call fails fast with ErrClientBroken).
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// roundTrip performs one framed exchange. Any failure mid-exchange leaves
// the connection's framing state undefined, so the client marks itself
// broken and fails every later call fast instead of silently desyncing.
func (c *Client) roundTrip(req Request, resp any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return ErrClientBroken
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := writeFrame(c.conn, req); err != nil {
		c.broken = true
		return err
	}
	if err := readFrame(c.conn, resp); err != nil {
		c.broken = true
		return err
	}
	return nil
}

// Predict performs one prediction round trip. A server-side rejection
// (e.g. overload shedding) is returned as an error; the connection remains
// healthy in that case.
func (c *Client) Predict(req Request) (Response, error) {
	var resp Response
	if err := c.roundTrip(req, &resp); err != nil {
		return Response{}, err
	}
	if resp.Error != "" {
		return Response{}, errors.New("serve: " + resp.Error)
	}
	return resp, nil
}

// Metrics fetches the server's Prometheus text dump over RPC.
func (c *Client) Metrics() (string, error) {
	var resp OpResponse
	if err := c.roundTrip(Request{Op: "metrics"}, &resp); err != nil {
		return "", err
	}
	if resp.Error != "" {
		return "", errors.New("serve: " + resp.Error)
	}
	return resp.Metrics, nil
}

// Health performs a liveness round trip over RPC.
func (c *Client) Health() (OpResponse, error) {
	var resp OpResponse
	err := c.roundTrip(Request{Op: "health"}, &resp)
	return resp, err
}

// Stats fetches the server's counter snapshot over RPC (op "stats"). A
// server that predates the op answers with an error; the connection stays
// healthy either way.
func (c *Client) Stats() (Stats, error) {
	var resp OpResponse
	if err := c.roundTrip(Request{Op: OpStats}, &resp); err != nil {
		return Stats{}, err
	}
	if resp.Error != "" {
		return Stats{}, errors.New("serve: " + resp.Error)
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("serve: stats op answered without a stats payload")
	}
	return *resp.Stats, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }
