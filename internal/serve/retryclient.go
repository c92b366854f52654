package serve

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisdom/internal/observe"
	"wisdom/internal/resilience"
)

// RetryOptions configure a RetryClient. The zero value of each field
// selects the documented default.
type RetryOptions struct {
	// Retries is how many additional attempts follow a failed one
	// (default 2, i.e. 3 attempts total; 0 disables retrying).
	Retries int
	// Backoff is the base backoff before the first retry; subsequent
	// ceilings double, drawn with full jitter (default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the backoff ceiling (default 1s).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each attempt's round-trip I/O (default 5s;
	// < 0 disables the per-attempt deadline).
	AttemptTimeout time.Duration
	// Seed seeds the jitter source (deterministic tests).
	Seed int64
	// Breaker, when set, guards this backend: attempts are not made while
	// it is open, and every attempt outcome feeds it. Per-backend: share
	// one breaker across the clients talking to one address, not across
	// addresses.
	Breaker *resilience.Breaker
	// Wrap, when set, wraps every dialed connection (fault injection).
	Wrap func(net.Conn) net.Conn
	// Dial overrides how connections are established (tests). The default
	// dials TCP to the client's address, through Wrap.
	Dial func() (*Client, error)
	// Sleep overrides the backoff sleep (tests).
	Sleep func(context.Context, time.Duration)
}

// RetryClient wraps the single-connection RPC Client with redialing,
// bounded retries (exponential backoff, full jitter, per-attempt
// deadlines) and an optional per-backend circuit breaker. The underlying
// Client fails fast with ErrClientBroken after any mid-exchange I/O error —
// by design, because the framing state is undefined; RetryClient is the
// layer that turns that fail-fast contract back into availability, by
// discarding the broken connection and redialing on the next attempt.
//
// Retried errors are transport failures and server overload sheds; other
// server-side rejections (e.g. an unknown op) are terminal. A RetryClient
// is safe for concurrent use; round trips serialise on one connection.
type RetryClient struct {
	addr    string
	opts    RetryOptions
	retrier *resilience.Retrier

	mu     sync.Mutex
	client *Client

	retries    atomic.Uint64
	retriesMet *observe.Counter
}

// NewRetryClient builds a retrying client for addr. No connection is made
// until the first call, so constructing one against a dead backend is not
// an error — the first Predict is where dialing (and redial retrying)
// happens.
func NewRetryClient(addr string, opts RetryOptions) *RetryClient {
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = time.Second
	}
	switch {
	case opts.AttemptTimeout < 0:
		opts.AttemptTimeout = 0
	case opts.AttemptTimeout == 0:
		opts.AttemptTimeout = 5 * time.Second
	}
	rc := &RetryClient{addr: addr, opts: opts}
	rc.retrier = resilience.NewRetrier(resilience.RetryPolicy{
		MaxAttempts: opts.Retries + 1,
		BaseDelay:   opts.Backoff,
		MaxDelay:    opts.MaxBackoff,
		Seed:        opts.Seed,
		Retryable:   retryablePredictError,
		Sleep:       opts.Sleep,
		OnRetry: func(int, time.Duration, error) {
			rc.retries.Add(1)
			if rc.retriesMet != nil {
				rc.retriesMet.Inc()
			}
		},
	})
	return rc
}

// Instrument counts this client's retries on reg as wisdom_retries_total.
// Call before traffic starts; a nil registry is a no-op.
func (rc *RetryClient) Instrument(reg *observe.Registry) {
	if reg == nil {
		return
	}
	rc.retriesMet = reg.Counter("wisdom_retries_total",
		"RPC attempts retried after a transport failure or overload shed.")
}

// Retries returns how many attempts this client has retried.
func (rc *RetryClient) Retries() uint64 { return rc.retries.Load() }

// Breaker returns the breaker guarding this backend (nil when unset).
func (rc *RetryClient) Breaker() *resilience.Breaker { return rc.opts.Breaker }

// Predict performs one prediction, retrying per the options.
func (rc *RetryClient) Predict(req Request) (Response, error) {
	return rc.predict(context.Background(), req, nil)
}

// PredictContext is Predict bounded by ctx: no attempt starts after ctx
// ends, and backoff sleeps are cut short by it.
func (rc *RetryClient) PredictContext(ctx context.Context, req Request) (Response, error) {
	return rc.predict(ctx, req, nil)
}

// PredictStream performs one streamed prediction, retrying per the options
// — but only while nothing has been emitted: once a delta has reached emit,
// a failure is terminal (replaying the stream would duplicate output the
// caller has already rendered). Shed streams arrive as clean error frames
// before any delta, so the overload case retries exactly like unary
// requests.
func (rc *RetryClient) PredictStream(req Request, emit func(delta string)) (Response, error) {
	return rc.predict(context.Background(), req, emit)
}

// PredictStreamContext is PredictStream bounded by ctx.
func (rc *RetryClient) PredictStreamContext(ctx context.Context, req Request, emit func(delta string)) (Response, error) {
	return rc.predict(ctx, req, emit)
}

// predict runs one prediction — unary when emit is nil, streamed otherwise
// — through the retrier. Each attempt is gated by the breaker and feeds it
// its outcome, runs over the current (or a fresh) connection, and discards
// the connection on transport failure (I/O error, deadline, corrupt frame)
// so the next attempt dials a new one.
func (rc *RetryClient) predict(ctx context.Context, req Request, emit func(delta string)) (Response, error) {
	var resp Response
	started := false
	err := rc.retrier.Do(ctx, func(context.Context) error {
		b := rc.opts.Breaker
		if b != nil && !b.Allow() {
			return resilience.ErrBreakerOpen
		}
		c, err := rc.conn()
		if err == nil {
			if emit == nil {
				resp, err = c.Predict(req)
			} else {
				resp, err = c.PredictStream(req, func(d string) {
					started = true
					emit(d)
				})
			}
			if err != nil && c.Broken() {
				rc.drop(c)
				err = &transportError{err}
			}
		}
		if b != nil {
			b.Record(err)
		}
		if err != nil && started {
			return interruptedStreamError(err)
		}
		return err
	})
	return resp, err
}

// Health performs one liveness round trip, retrying per the options.
func (rc *RetryClient) Health() (OpResponse, error) {
	var resp OpResponse
	err := rc.retrier.Do(context.Background(), func(context.Context) error {
		c, err := rc.conn()
		if err != nil {
			return err
		}
		r, err := c.Health()
		if err != nil {
			rc.drop(c)
			return &transportError{err}
		}
		resp = r
		return nil
	})
	return resp, err
}

// transportError marks an attempt failure as connection-level rather than a
// server-delivered rejection, so the retry classifier need not parse
// messages: the Broken() flag at the failure site already made the call.
type transportError struct{ err error }

// Error prefixes the underlying failure so logs show the layer that failed.
func (e *transportError) Error() string { return "serve: transport failure: " + e.err.Error() }

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *transportError) Unwrap() error { return e.err }

// conn returns the live connection, dialing one if needed.
func (rc *RetryClient) conn() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client != nil {
		return rc.client, nil
	}
	var c *Client
	var err error
	if rc.opts.Dial != nil {
		c, err = rc.opts.Dial()
	} else {
		c, err = DialWith(rc.addr, rc.opts.Wrap)
	}
	if err != nil {
		return nil, err
	}
	if rc.opts.AttemptTimeout > 0 {
		c.SetTimeout(rc.opts.AttemptTimeout)
	}
	rc.client = c
	return c, nil
}

// drop closes and forgets a condemned connection (only if it is still the
// current one — a concurrent caller may already have redialed).
func (rc *RetryClient) drop(c *Client) {
	rc.mu.Lock()
	if rc.client == c {
		rc.client = nil
	}
	rc.mu.Unlock()
	c.Close()
}

// Close releases the current connection, if any.
func (rc *RetryClient) Close() error {
	rc.mu.Lock()
	c := rc.client
	rc.client = nil
	rc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// retryablePredictError classifies one attempt's failure: transport
// failures (including injected ones and timeouts), redial failures, an
// open breaker, and server overload sheds are transient; any other
// server-side rejection (bad request, unknown op) is terminal.
func retryablePredictError(err error) bool {
	if err == nil {
		return false
	}
	var te *transportError
	switch {
	case errors.Is(err, errStreamInterrupted):
		// A stream that failed after its first delta cannot be replayed.
		return false
	case errors.As(err, &te):
		return true
	case errors.Is(err, resilience.ErrBreakerOpen):
		return true
	case strings.HasPrefix(err.Error(), "serve: "):
		// A server-delivered rejection over a healthy connection: only
		// overload sheds are worth retrying.
		return strings.Contains(err.Error(), "overloaded")
	}
	return true // dial failure or other connection-level error
}
