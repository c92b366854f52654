// Router: the sharded-serving frontend model. A *Router implements the
// serve package's RoutingStreamingPredictor and StatsAggregator seams, so a
// serve.Server wraps it exactly like a local model — cache, singleflight,
// pool, HTTP/SSE/RPC surface and graceful drain all come from serve — while
// every prediction fans out to the backend fleet through the hash ring.

package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisdom/internal/observe"
	"wisdom/internal/resilience"
	"wisdom/internal/serve"
)

// Defaults for the zero value of each Options field.
const (
	// DefaultHeartbeatInterval is how often the background sweep health-checks
	// every backend.
	DefaultHeartbeatInterval = 2 * time.Second
	// DefaultHeartbeatTimeout bounds one health round trip.
	DefaultHeartbeatTimeout = time.Second
	// DefaultDeadAfter is how many consecutive heartbeat failures mark a
	// backend dead on the ring.
	DefaultDeadAfter = 2
	// DefaultForwardTimeout bounds each forwarded round trip (per frame gap
	// for streams, matching serve.Client.SetTimeout semantics).
	DefaultForwardTimeout = 30 * time.Second
	// DefaultMaxIdle is the per-backend idle-connection pool size.
	DefaultMaxIdle = 4
)

// ErrNoBackend is returned when a request exhausted its spillover candidate
// list without any backend delivering an answer. The wrapping serve.Server
// surfaces it as a 503 / stream error like any other model failure.
var ErrNoBackend = errors.New("router: no backend answered")

// Options tune a Router. The zero value of each field selects the
// documented default.
type Options struct {
	// VNodes is the number of virtual nodes per backend on the hash ring
	// (default DefaultVNodes).
	VNodes int
	// HeartbeatInterval is the background health-sweep period (default
	// DefaultHeartbeatInterval). Negative disables the background loop —
	// tests then drive sweeps explicitly via CheckBackends.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one health round trip (default
	// DefaultHeartbeatTimeout).
	HeartbeatTimeout time.Duration
	// DeadAfter is how many consecutive heartbeat failures mark a backend
	// dead, moving its ring range to its successors (default
	// DefaultDeadAfter). A single success marks it live again.
	DeadAfter int
	// MaxSpill caps how many backends one request may try: the ring owner
	// plus up to MaxSpill-1 successors. Zero means no cap (try every live
	// node); negative disables spillover entirely (owner only). The cap
	// applies per candidate list: a request whose walk outlives a membership
	// change also tries the untried members of the current list.
	MaxSpill int
	// ForwardTimeout bounds each forwarded round trip (default
	// DefaultForwardTimeout); for streams it bounds each frame gap.
	ForwardTimeout time.Duration
	// Breaker configures the per-backend circuit breaker (zero value =
	// resilience defaults).
	Breaker resilience.BreakerConfig
	// MaxIdle is the per-backend idle-connection pool size (default
	// DefaultMaxIdle).
	MaxIdle int
	// Wrap, when non-nil, decorates every forwarding connection to addr
	// before use — the transport seam for the resilience fault injector.
	// Heartbeat connections are deliberately NOT wrapped: chaos on the data
	// path must not shake the liveness verdict.
	Wrap func(addr string, c net.Conn) net.Conn
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = DefaultDeadAfter
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = DefaultForwardTimeout
	}
	if o.MaxIdle <= 0 {
		o.MaxIdle = DefaultMaxIdle
	}
	return o
}

// Router shards requests across a fleet of backend replicas by consistent
// hashing, with per-backend circuit breakers, spillover to ring successors
// on failure, heartbeat-driven liveness, fleet-wide stats aggregation, and
// runtime membership: backends Join, Drain and Remove while traffic flows
// (see ARCHITECTURE.md "Dynamic membership"). Wrap it in a serve.Server to
// expose the full HTTP+RPC surface, including the authenticated admin
// surface through the serve.AdminHandler seam. Safe for concurrent use;
// Close releases its connections and stops the heartbeat loop.
type Router struct {
	opts Options
	ring *Ring

	// Fleet membership. backMu guards the map and the joining set; the
	// forwarding path takes only the read lock (per-address lookups), and
	// the ring itself is copy-on-write, so lookups never wait on a
	// membership mutation's network I/O.
	backMu   sync.RWMutex
	backends map[string]*backend
	joining  map[string]bool // addresses mid-Join (warm-up in progress)

	// sessions remembers which backend last served each session and under
	// which membership epoch, so a session whose ring owner changed is
	// cold-started on its new replica instead of silently resuming against
	// state the replica never had.
	sessions sessionTracker

	// instMu/inst retain the Instrument registry so backends joining later
	// get their per-backend series registered too.
	instMu sync.Mutex
	inst   *observe.Registry

	spillovers   atomic.Uint64
	joins        atomic.Uint64
	drains       atomic.Uint64
	removes      atomic.Uint64
	sessionMoves atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Router over the given backend RPC addresses (duplicates are
// collapsed) and, unless opts.HeartbeatInterval is negative, starts the
// background heartbeat loop. Backends start optimistically alive; the first
// sweep corrects that within DeadAfter*HeartbeatInterval.
func New(addrs []string, opts Options) (*Router, error) {
	opts = opts.withDefaults()
	r := &Router{
		opts:     opts,
		ring:     NewRing(opts.VNodes),
		backends: make(map[string]*backend),
		joining:  make(map[string]bool),
		stop:     make(chan struct{}),
	}
	r.sessions.init(0)
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if _, ok := r.backends[addr]; ok {
			continue
		}
		r.backends[addr] = r.newBackendFor(addr)
		r.ring.Add(addr)
	}
	if len(r.backends) == 0 {
		return nil, errors.New("router: no backend addresses")
	}
	if opts.HeartbeatInterval > 0 {
		r.wg.Add(1)
		go r.heartbeatLoop()
	}
	return r, nil
}

// newBackendFor builds the backend record for addr, applying the router's
// connection-wrap hook, timeout and pool size.
func (r *Router) newBackendFor(addr string) *backend {
	var wrap func(net.Conn) net.Conn
	if r.opts.Wrap != nil {
		a := addr
		wrap = func(c net.Conn) net.Conn { return r.opts.Wrap(a, c) }
	}
	return newBackend(addr, r.opts.Breaker, wrap, r.opts.ForwardTimeout, r.opts.MaxIdle)
}

// backendFor resolves an address to its live backend record (nil when the
// backend has been removed).
func (r *Router) backendFor(addr string) *backend {
	r.backMu.RLock()
	b := r.backends[addr]
	r.backMu.RUnlock()
	return b
}

// snapshotBackends returns the current backend records keyed by address.
func (r *Router) snapshotBackends() map[string]*backend {
	r.backMu.RLock()
	out := make(map[string]*backend, len(r.backends))
	for a, b := range r.backends {
		out[a] = b
	}
	r.backMu.RUnlock()
	return out
}

// Close stops the heartbeat loop and closes every pooled connection. In-
// flight forwards finish on their own connections; Close does not wait for
// them (the wrapping serve.Server's drain already does).
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	for _, b := range r.snapshotBackends() {
		b.closeIdle()
	}
}

// Ring returns the router's hash ring (read-mostly; exported for tests and
// operational introspection).
func (r *Router) Ring() *Ring { return r.ring }

// Backends returns the configured backend addresses, sorted.
func (r *Router) Backends() []string { return r.ring.Nodes() }

// Spillovers returns how many requests were answered by a backend other
// than their ring owner.
func (r *Router) Spillovers() uint64 { return r.spillovers.Load() }

// Owner returns the backend that currently owns req's affinity key (the
// session ID when set, the content key otherwise). ok is false when no live
// backend exists. Introspection for tests and placement debugging; the
// forwarding path resolves ownership per request on its own.
func (r *Router) Owner(req serve.Request) (addr string, ok bool) {
	return r.ring.Lookup(affinityKey(req))
}

// affinityKey is what a request hashes on: the session ID when present (all
// requests of one editing session land on the replica holding its warm
// prefix KV state), otherwise the content key (identical stateless requests
// land on one replica, whose cache and singleflight see all duplicates).
// The prefix byte keeps the two namespaces disjoint; the NUL separators
// keep ("ab","c") distinct from ("a","bc").
func affinityKey(req serve.Request) string {
	if req.SessionID != "" {
		return "s\x00" + req.SessionID
	}
	return "k\x00" + req.Context + "\x00" + req.Prompt
}

// candidates returns the backends a request may try, in ring order from its
// owner. When the heartbeat has marked the whole fleet dead the unfiltered
// ring is returned instead: attempting a dead backend cannot make a total
// outage worse, and succeeds whenever the verdict was stale.
func (r *Router) candidates(key string) []string {
	n := r.opts.MaxSpill // 0 = all
	if r.opts.MaxSpill < 0 {
		n = 1
	}
	cands := r.ring.Successors(key, n)
	if len(cands) == 0 {
		cands = r.ring.SuccessorsAll(key, n)
	}
	return cands
}

// Predict satisfies serve.Predictor. The wrapping serve.Server always
// prefers PredictRoute; this path exists only for direct library use.
func (r *Router) Predict(yamlCtx, prompt string) string {
	resp, err := r.PredictRoute(context.Background(), serve.Request{Context: yamlCtx, Prompt: prompt})
	if err != nil {
		return ""
	}
	return resp.Suggestion
}

// PredictRoute forwards one unary request to its ring owner, spilling to
// successors when the owner is breaker-open, unreachable, or sheds.
// Unary retries across backends are safe — predictions are idempotent and
// nothing has been delivered to the client until the router returns.
func (r *Router) PredictRoute(ctx context.Context, req serve.Request) (serve.Response, error) {
	return r.route(ctx, req, nil)
}

// PredictStreamRoute forwards one streamed request through the ring.
// Spillover happens only before the first delta: once a backend has started
// streaming, the client has rendered output, so replaying on a successor
// would duplicate it — a mid-stream failure is terminal instead.
func (r *Router) PredictStreamRoute(ctx context.Context, req serve.Request, emit func(delta string)) (serve.Response, error) {
	return r.route(ctx, req, emit)
}

// route is the one ring walk: unary when emit is nil, streamed otherwise.
// Each candidate in ring order from the owner is skipped while its breaker
// is open, else forwarded to with the session stamp its ownership calls
// for; the first answer settles the session and is counted as a spillover
// when it did not come from the owner. The candidate list is taken once,
// but a forward can outlast a membership change (a hung owner holds the
// request for its whole deadline), so a walk that runs out of candidates
// after the ring's epoch moved appends the current candidates it has not
// tried yet — a replica that joined meanwhile is tried, and no address is
// tried twice.
func (r *Router) route(ctx context.Context, req serve.Request, emit func(delta string)) (serve.Response, error) {
	req.Op = ""     // the forwarding call picks the op, whatever came in
	req.Admin = nil // admin requests are handled by the router, never forwarded
	key := affinityKey(req)
	epoch := r.ring.Epoch() // before the list, so a change in between shows
	cands := r.candidates(key)
	var lastErr error
	for i := 0; ; i++ {
		if i == len(cands) {
			if now := r.ring.Epoch(); now != epoch {
				epoch = now
				cands = appendUntried(cands, r.candidates(key))
			}
			if i == len(cands) {
				break
			}
		}
		addr := cands[i]
		if err := ctx.Err(); err != nil {
			return serve.Response{}, err
		}
		b := r.backendFor(addr)
		if b == nil {
			continue // removed after the candidate list was snapshotted
		}
		if !b.breaker.Allow() {
			lastErr = fmt.Errorf("router: backend %s: %w", addr, resilience.ErrBreakerOpen)
			continue
		}
		fwd := r.stampSession(req, addr)
		resp, started, err := r.forward(ctx, b, fwd, emit)
		if err == nil {
			r.settleSession(req, fwd, addr)
			if i > 0 {
				r.spillovers.Add(1)
				b.spillovers.Add(1)
			}
			return resp, nil
		}
		lastErr = fmt.Errorf("router: backend %s: %w", addr, err)
		if started {
			// Deltas already reached the client; never replay.
			return serve.Response{}, lastErr
		}
	}
	if lastErr == nil {
		lastErr = ErrNoBackend
	}
	return serve.Response{}, lastErr
}

// appendUntried appends to tried every address of fresh it does not hold.
func appendUntried(tried, fresh []string) []string {
	for _, addr := range fresh {
		if !slices.Contains(tried, addr) {
			tried = append(tried, addr)
		}
	}
	return tried
}

// stampSession prepares req for forwarding to addr: when the request is
// session-affine and the ownership check says addr is not the backend that
// last served the session, SessionReset is set so the replica cold-starts
// its per-session state instead of resuming a prefix it never held (or
// held for a conversation that has since continued elsewhere).
func (r *Router) stampSession(req serve.Request, addr string) serve.Request {
	if req.SessionID != "" && r.sessions.movedTo(req.SessionID, addr, r.ring.Epoch()) {
		req.SessionReset = true
	}
	return req
}

// settleSession records a successful session forward: the tracker learns
// the serving backend and epoch, and a forced cold start (reset injected by
// the router, not requested by the client) counts as a session move.
func (r *Router) settleSession(orig, fwd serve.Request, addr string) {
	if orig.SessionID == "" {
		return
	}
	if fwd.SessionReset && !orig.SessionReset {
		r.sessionMoves.Add(1)
	}
	r.sessions.note(orig.SessionID, addr, r.ring.Epoch())
}

// forward performs one breaker-accounted exchange against b, reporting
// whether any delta was emitted. Breaker protocol: the caller has already
// taken Allow()==true, so exactly one Record happens on every path. A
// transport failure (broken connection, dial error) records a breaker
// failure; a server-delivered error on a healthy connection — overload
// shed, unknown op — records a success, because the replica is up and
// answering even while refusing work, and so does a stream our own client
// abandoned.
func (r *Router) forward(ctx context.Context, b *backend, req serve.Request, emit func(delta string)) (resp serve.Response, started bool, err error) {
	b.beginForward()
	defer b.endForward()
	c, err := b.get()
	if err != nil {
		b.errors.Add(1)
		b.breaker.Record(err)
		return serve.Response{}, false, err
	}
	start := time.Now()
	clientGone := false
	if emit == nil {
		resp, err = c.Predict(req)
	} else {
		resp, started, clientGone, err = streamExchange(ctx, c, req, emit)
	}
	if err == nil {
		b.put(c)
		b.requests.Add(1)
		if h := b.latency; h != nil {
			h.Observe(time.Since(start).Seconds())
		}
		b.breaker.Record(nil)
		return resp, started, nil
	}
	b.errors.Add(1)
	switch {
	case clientGone:
		// The client went away; the failure is ours, not the backend's.
		b.discard(c)
		b.breaker.Record(nil)
		err = ctx.Err()
	case c.Broken():
		b.discard(c)
		b.breaker.Record(err)
	default:
		b.put(c)
		b.breaker.Record(nil)
	}
	return serve.Response{}, started, err
}

// streamExchange runs one streamed exchange on c. Cancellation propagates by
// closing the backend connection — the backend's RPC watchdog sees the
// disconnect and cancels its decode, preserving disconnect-cancels-decode
// through the router tier; clientGone reports that this happened.
func streamExchange(ctx context.Context, c *serve.Client, req serve.Request, emit func(delta string)) (resp serve.Response, started, clientGone bool, err error) {
	watchDone := make(chan struct{})
	watchExited := make(chan struct{})
	go func() {
		defer close(watchExited)
		select {
		case <-ctx.Done():
			clientGone = true
			c.Close()
		case <-watchDone:
		}
	}()
	resp, err = c.PredictStream(req, func(d string) {
		started = true
		emit(d)
	})
	close(watchDone)
	<-watchExited // also orders the watcher's clientGone write before our read
	return resp, started, clientGone, err
}

// heartbeatLoop sweeps the fleet every HeartbeatInterval until Close.
func (r *Router) heartbeatLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.CheckBackends()
		}
	}
}

// CheckBackends runs one heartbeat sweep over every backend: a replica that
// answers the RPC health op is (re)marked live immediately; one that fails
// DeadAfter consecutive sweeps is marked dead, moving its ring range to its
// successors. Exported so tests (and operators via SIGUSR-style tooling)
// can force a sweep instead of waiting out the interval.
func (r *Router) CheckBackends() {
	for addr, b := range r.snapshotBackends() {
		if b.draining.Load() {
			continue // off the ring already; Remove owns its lifecycle
		}
		ok, fails := b.heartbeat(r.opts.HeartbeatTimeout)
		switch {
		case ok:
			if !b.alive.Load() {
				b.alive.Store(true)
				r.ring.SetAlive(addr, true)
			}
		case fails >= r.opts.DeadAfter:
			if b.alive.Load() {
				b.alive.Store(false)
				r.ring.SetAlive(addr, false)
			}
		}
	}
}

// BackendStats is one backend's row in the aggregated fleet snapshot.
type BackendStats struct {
	// Addr is the backend's RPC address (its ring node name).
	Addr string `json:"addr"`
	// Alive is the heartbeat verdict.
	Alive bool `json:"alive"`
	// State is the membership state: "active" (on the ring) or "draining"
	// (leaving; finishing in-flight work, taking no new placements).
	State string `json:"state"`
	// Breaker is the circuit-breaker position: closed, half-open or open.
	Breaker string `json:"breaker"`
	// RingShare is the fraction of the hash keyspace this backend currently
	// owns (zero when dead).
	RingShare float64 `json:"ring_share"`
	// Requests counts forwards answered by this backend.
	Requests uint64 `json:"requests"`
	// Errors counts forward attempts against this backend that failed.
	Errors uint64 `json:"errors"`
	// Spillovers counts forwards this backend absorbed for failed ring
	// predecessors.
	Spillovers uint64 `json:"spillovers"`
	// Stats is the backend's own counter snapshot (RPC stats op); nil when
	// the backend was unreachable at aggregation time.
	Stats *serve.Stats `json:"stats,omitempty"`
}

// FleetStats is the aggregated /v1/stats payload a router serves: the
// router process's local counters, the element-wise sum of every reachable
// backend's counters, and a per-backend breakdown.
type FleetStats struct {
	// Router is the router process's own serve.Stats (its cache,
	// singleflight and pool sit in front of the ring).
	Router serve.Stats `json:"router"`
	// Fleet sums every reachable backend's counters element-wise; its Model
	// field is "fleet".
	Fleet serve.Stats `json:"fleet"`
	// Backends lists each backend's row, sorted by address.
	Backends []BackendStats `json:"backends"`
	// Spillovers counts requests answered by a backend other than their
	// ring owner.
	Spillovers uint64 `json:"spillovers"`
}

// AggregateStats satisfies serve.StatsAggregator: the wrapping server's
// /v1/stats widens to the fleet view. Each backend is scraped over RPC at
// call time; unreachable backends contribute a row with Stats nil and are
// excluded from the fleet sum.
func (r *Router) AggregateStats(local serve.Stats) any {
	fleet := FleetStats{Router: local, Spillovers: r.spillovers.Load()}
	fleet.Fleet.Model = "fleet"
	share := r.ring.Ownership()
	backends := r.snapshotBackends()
	addrs := make([]string, 0, len(backends))
	for addr := range backends {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		b := backends[addr]
		state := memberActive
		if b.draining.Load() {
			state = memberDraining
		}
		row := BackendStats{
			Addr:       addr,
			Alive:      b.alive.Load(),
			State:      state,
			Breaker:    b.breaker.State().String(),
			RingShare:  share[addr],
			Requests:   b.requests.Load(),
			Errors:     b.errors.Load(),
			Spillovers: b.spillovers.Load(),
		}
		if st, ok := b.stats(); ok {
			row.Stats = &st
			addStats(&fleet.Fleet, st)
		}
		fleet.Backends = append(fleet.Backends, row)
	}
	return fleet
}

// addStats element-wise sums src's counters and gauges into dst, then
// recomputes the derived ratios from the summed numerators/denominators.
func addStats(dst *serve.Stats, src serve.Stats) {
	dst.Requests += src.Requests
	dst.PoolWorkers += src.PoolWorkers
	dst.PoolActive += src.PoolActive
	dst.PoolQueued += src.PoolQueued
	dst.ShedRequests += src.ShedRequests
	dst.ActiveStreams += src.ActiveStreams
	dst.CancelledStrms += src.CancelledStrms
	dst.CacheEnabled = dst.CacheEnabled || src.CacheEnabled
	dst.CacheEntries += src.CacheEntries
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.CacheEvictions += src.CacheEvictions
	if total := dst.CacheHits + dst.CacheMisses; total > 0 {
		dst.HitRate = float64(dst.CacheHits) / float64(total)
	}
	dst.SessionsEnabled = dst.SessionsEnabled || src.SessionsEnabled
	dst.SessionsActive += src.SessionsActive
	dst.SessionEvictions += src.SessionEvictions
	dst.AbandonedWaiters += src.AbandonedWaiters
	dst.SchedEnabled = dst.SchedEnabled || src.SchedEnabled
	dst.SchedMaxBatch += src.SchedMaxBatch
	dst.SchedActive += src.SchedActive
	dst.SchedQueued += src.SchedQueued
	dst.SchedAdmitted += src.SchedAdmitted
	dst.SchedRetired += src.SchedRetired
	// SchedOccupancy and SessionReuseRatio are per-replica ratios whose
	// numerators are not exported; a request-weighted mean is the closest
	// honest aggregate.
	if dst.Requests > 0 {
		wDst := float64(dst.Requests-src.Requests) / float64(dst.Requests)
		wSrc := float64(src.Requests) / float64(dst.Requests)
		dst.SchedOccupancy = dst.SchedOccupancy*wDst + src.SchedOccupancy*wSrc
		dst.SessionReuseRatio = dst.SessionReuseRatio*wDst + src.SessionReuseRatio*wSrc
	}
}

// Instrument registers the router's fleet metrics on reg:
//
//	wisdom_router_spillover_total                  — requests served off-owner
//	wisdom_router_membership_epoch                 — current ring epoch
//	wisdom_router_backends{state}                  — backend count by membership state
//	wisdom_router_joins_total                      — backends joined at runtime
//	wisdom_router_removes_total                    — backends removed at runtime
//	wisdom_router_session_moves_total              — sessions cold-started after owner change
//	wisdom_router_draining_inflight                — in-flight forwards on draining backends
//	wisdom_router_backend_requests_total{backend}  — per-backend forwards
//	wisdom_router_backend_errors_total{backend}    — per-backend failures
//	wisdom_router_backend_latency_seconds{backend} — forward latency histogram
//	wisdom_router_backend_alive{backend}           — heartbeat verdict (0/1)
//	wisdom_router_ring_share{backend}              — fraction of keyspace owned
//	wisdom_breaker_state{backend}                  — breaker position (resilience)
//
// Backends that join later are instrumented at join time; a removed
// backend's series are unregistered so the export does not accumulate
// departed fleet members. Call at most once per registry, before serving.
func (r *Router) Instrument(reg *observe.Registry) {
	if reg == nil {
		return
	}
	r.instMu.Lock()
	r.inst = reg
	r.instMu.Unlock()
	reg.CounterFunc("wisdom_router_spillover_total",
		"Requests answered by a backend other than their ring owner.",
		func() float64 { return float64(r.spillovers.Load()) })
	reg.GaugeFunc("wisdom_router_membership_epoch",
		"Membership epoch: bumped by every join, leave and liveness flip.",
		func() float64 { return float64(r.ring.Epoch()) })
	reg.CounterFunc("wisdom_router_joins_total",
		"Backends joined at runtime through the admin surface.",
		func() float64 { return float64(r.joins.Load()) })
	reg.CounterFunc("wisdom_router_drains_total",
		"Backends put into the draining state through the admin surface.",
		func() float64 { return float64(r.drains.Load()) })
	reg.CounterFunc("wisdom_router_removes_total",
		"Backends removed at runtime through the admin surface.",
		func() float64 { return float64(r.removes.Load()) })
	reg.CounterFunc("wisdom_router_session_moves_total",
		"Session requests cold-started because their ring owner changed.",
		func() float64 { return float64(r.sessionMoves.Load()) })
	reg.GaugeFunc("wisdom_router_draining_inflight",
		"In-flight forwards still pending on draining backends.",
		func() float64 {
			var n int64
			for _, b := range r.snapshotBackends() {
				if b.draining.Load() {
					n += b.inflight.Load()
				}
			}
			return float64(n)
		})
	for _, state := range []string{memberActive, memberDraining} {
		s := state
		reg.GaugeFunc("wisdom_router_backends",
			"Fleet size by membership state.",
			func() float64 {
				var n int
				for _, b := range r.snapshotBackends() {
					if (s == memberDraining) == b.draining.Load() {
						n++
					}
				}
				return float64(n)
			}, observe.Label{Key: "state", Value: s})
	}
	for _, addr := range r.ring.Nodes() {
		r.instrumentBackend(reg, addr)
	}
}

// instrumentBackend registers (or, after a re-join, re-binds) the
// per-backend series for addr. Every callback resolves the backend through
// the membership map at sample time rather than capturing the record:
// registry re-registration keeps the first callback, so a capture would pin
// a removed backend's counters forever if the address later re-joined.
func (r *Router) instrumentBackend(reg *observe.Registry, addr string) {
	label := observe.Label{Key: "backend", Value: addr}
	reg.CounterFunc("wisdom_router_backend_requests_total",
		"Forwarded requests answered per backend.",
		func() float64 {
			if b := r.backendFor(addr); b != nil {
				return float64(b.requests.Load())
			}
			return 0
		}, label)
	reg.CounterFunc("wisdom_router_backend_errors_total",
		"Failed forward attempts per backend.",
		func() float64 {
			if b := r.backendFor(addr); b != nil {
				return float64(b.errors.Load())
			}
			return 0
		}, label)
	if b := r.backendFor(addr); b != nil {
		buckets := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}
		// Same name+buckets → the registry returns the existing series on
		// re-join, so the histogram keeps accumulating across a leave/join.
		b.latency = reg.Histogram("wisdom_router_backend_latency_seconds",
			"Forward round-trip latency per backend.", buckets, label)
		resilience.InstrumentBreaker(reg, addr, b.breaker)
	}
	reg.GaugeFunc("wisdom_router_backend_alive",
		"Heartbeat verdict per backend: 1 live, 0 dead.",
		func() float64 {
			if b := r.backendFor(addr); b != nil && b.alive.Load() {
				return 1
			}
			return 0
		}, label)
	reg.GaugeFunc("wisdom_router_ring_share",
		"Fraction of the hash keyspace each live backend owns.",
		func() float64 { return r.ring.Ownership()[addr] }, label)
}

// unregisterBackend retires a removed backend's per-backend metric series
// so the export does not accumulate departed fleet members — and so a
// later re-join of the same address registers fresh callbacks bound to the
// new backend record (the registry keeps the first callback otherwise).
func (r *Router) unregisterBackend(reg *observe.Registry, addr string) {
	label := observe.Label{Key: "backend", Value: addr}
	for _, name := range []string{
		"wisdom_router_backend_requests_total",
		"wisdom_router_backend_errors_total",
		"wisdom_router_backend_latency_seconds",
		"wisdom_router_backend_alive",
		"wisdom_router_ring_share",
		"wisdom_breaker_state",
	} {
		reg.Unregister(name, label)
	}
}
