// Streaming serving path: the SSE endpoint, the streamed RPC frame variant,
// and the client side of both. See docs/PROTOCOL.md for the wire format.
//
// A stream bypasses the singleflight group — each stream is an interactive
// session whose deltas belong to exactly one client — but still consults
// the response cache (a hit streams as a single delta) and still admits
// through the worker pool, BEFORE the first byte is written, so overload
// sheds a stream as a clean HTTP 503 / error frame rather than a torn
// half-stream.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"wisdom/internal/resilience"
)

// StreamingPredictor is implemented by predictors that can emit an answer
// incrementally (*wisdom.Model, *wisdom.Chain). PredictStream must call
// emit with in-order text deltas whose concatenation is, in the normal
// case, exactly the returned answer; when late post-processing rewrites the
// answer, the return value is authoritative and the server flags the
// response "replaced" so clients re-render. Cancelling ctx must stop the
// underlying generation.
type StreamingPredictor interface {
	Predictor
	PredictStream(ctx context.Context, context, prompt string, emit func(delta string)) string
}

// StreamingDegradingPredictor is the streaming face of a degradation chain
// (*wisdom.Chain): PredictStreamDegraded additionally reports whether the
// streamed answer came from a fallback tier, which the server surfaces on
// the terminal frame exactly like the unary "degraded" flag.
type StreamingDegradingPredictor interface {
	StreamingPredictor
	PredictStreamDegraded(ctx context.Context, context, prompt string, emit func(delta string)) (suggestion string, degraded bool)
}

// RoutingStreamingPredictor is the streaming face of a routing predictor
// (*router.Router): PredictStreamRoute follows PredictStream's emission
// contract while forwarding the stream from a backend replica. An error
// before any delta has been emitted (every candidate backend dead,
// breaker-open or shedding) lets the server shed the stream cleanly; an
// error after the first delta is a mid-stream interruption the server
// surfaces as a terminal error event — never a silent truncation and never
// a replay that would duplicate already-rendered output.
type RoutingStreamingPredictor interface {
	RoutingPredictor
	PredictStreamRoute(ctx context.Context, req Request, emit func(delta string)) (Response, error)
}

// OpStream is the Request.Op selecting a streamed prediction over RPC: the
// server answers with a sequence of StreamFrame frames instead of one
// Response frame.
const OpStream = "stream"

// StreamFrame frame types.
const (
	// StreamDelta carries one incremental text delta.
	StreamDelta = "delta"
	// StreamDone terminates a successful stream; Final holds the full
	// response metadata, including the authoritative complete suggestion.
	StreamDone = "done"
	// StreamError terminates a failed stream (e.g. shed under overload);
	// the connection remains healthy and framed.
	StreamError = "error"
)

// StreamFrame is one frame of a streamed RPC response. A streamed exchange
// is one request frame followed by zero or more "delta" frames and exactly
// one terminal frame ("done" or "error"), all length-prefixed JSON like
// every other frame (see docs/PROTOCOL.md).
type StreamFrame struct {
	// Type is StreamDelta, StreamDone or StreamError.
	Type string `json:"type"`
	// Seq is the 0-based ordinal of this frame within its stream; clients
	// verify it to detect dropped or reordered frames.
	Seq int `json:"seq"`
	// Delta is the incremental text (Type == StreamDelta).
	Delta string `json:"delta,omitempty"`
	// Final is the full response metadata (Type == StreamDone).
	Final *Response `json:"final,omitempty"`
	// Error describes the failure (Type == StreamError).
	Error string `json:"error,omitempty"`
}

// sseDelta is the JSON payload of an SSE "delta" event.
type sseDelta struct {
	Text string `json:"text"`
}

// errStreamCancelled marks a stream whose client went away before the
// terminal frame; the decode loop has been cancelled and the pool slot
// freed.
var errStreamCancelled = errors.New("serve: stream cancelled by client disconnect")

// errStreamInterrupted marks a RetryClient stream that failed after deltas
// had already reached the caller. It is never retried: replaying the stream
// would duplicate output the caller has already rendered.
var errStreamInterrupted = errors.New("serve: stream interrupted mid-flight")

// interruptedStreamError classifies a mid-stream failure as terminal. The
// cause is folded in with %v, not %w, so a transportError inside cannot
// re-qualify the attempt as retryable.
func interruptedStreamError(cause error) error {
	return fmt.Errorf("%w: %v", errStreamInterrupted, cause)
}

// predictStream answers one request as a stream of deltas pushed through
// send, returning the terminal response. The contract with callers:
//
//   - A non-nil error with no delta sent means the request was shed (or
//     malformed) before the first byte — the caller can still answer with
//     a clean protocol-level rejection.
//   - send failures and ctx cancellation cancel the decode loop (freeing
//     the worker slot) and surface as errStreamCancelled.
//   - On success, the returned Response carries the authoritative full
//     suggestion; Replaced reports that it differs from the concatenated
//     deltas (late post-processing rewrote the answer) and the client
//     should re-render from Suggestion.
//
// The admission deadline bounds the wait for a worker slot only — a live
// stream is bounded by the client's patience (ctx), not the unary request
// timeout.
func (s *Server) predictStream(ctx context.Context, req Request, proto string, send func(delta string) error) (Response, error) {
	start := time.Now()
	s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)
	m := s.met
	if m != nil {
		m.streamRequestsFor(proto).Inc()
	}
	cancelled := func(err error) (Response, error) {
		s.cancelledStreams.Add(1)
		if m != nil {
			m.streamCancelledFor(proto).Inc()
		}
		s.countError(proto, "stream_cancelled")
		return Response{}, errors.Join(errStreamCancelled, err)
	}
	finishOK := func(resp Response) Response {
		s.requests.Add(1)
		resp.LatencyMS = ms(start)
		resp.Model = s.modelName
		if m != nil {
			elapsed := time.Since(start).Seconds()
			m.requestsFor(proto).Inc()
			m.durationFor(proto).Observe(elapsed)
			m.servedTokens.Add(len(strings.Fields(resp.Suggestion)))
			if resp.Degraded {
				m.degradedTotal.Inc()
			}
			if resp.Cached {
				m.cachedTotal.Inc()
			}
		}
		return resp
	}

	// Predictors without a streaming path answer through the full unary
	// pipeline (cache, singleflight, pool) and stream as a single
	// delta; sheds still happen before any byte is written.
	if s.stream == nil && s.routeStream == nil {
		resp, err := s.predict(ctx, req, proto)
		if err != nil {
			return Response{}, err
		}
		if m != nil {
			m.streamTTFT.Observe(time.Since(start).Seconds())
		}
		if resp.Suggestion != "" {
			if err := send(resp.Suggestion); err != nil {
				return cancelled(err)
			}
		}
		return resp, nil
	}

	// Cache hit: the whole answer is one delta, and time-to-first-token is
	// one cache lookup.
	key := req.Context + "\x00" + req.Prompt
	if s.cache != nil {
		if v, ok := s.cache.Get(key); ok {
			if m != nil {
				m.streamTTFT.Observe(time.Since(start).Seconds())
			}
			if v != "" {
				if err := send(v); err != nil {
					return cancelled(err)
				}
			}
			return finishOK(Response{Suggestion: v, Cached: true}), nil
		}
	}

	// Admission, bounded by the queue deadline. This happens before the
	// first byte leaves the server: a shed stream is indistinguishable on
	// the wire from a shed unary request.
	actx := ctx
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	if s.pool != nil {
		if err := s.pool.Acquire(actx); err != nil {
			if m != nil {
				m.shedFor(proto).Inc()
			}
			s.countError(proto, shedReason(err))
			return Response{}, err
		}
		defer s.pool.Release()
	}

	// The generation context: client disconnect (ctx) or a failed delta
	// write cancels it, and the neural decode loop checks it per token, so
	// an abandoned stream stops burning its pool slot within one step.
	gctx, cancelGen := context.WithCancel(ctx)
	defer cancelGen()
	var sent strings.Builder
	var sendErr error
	first := true
	emit := func(d string) {
		// Empty deltas are suppressed: docs/PROTOCOL.md promises every
		// delta frame carries text (an empty suggestion streams as a bare
		// terminal frame).
		if d == "" || sendErr != nil {
			return
		}
		if first {
			first = false
			if m != nil {
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

	var final string
	var degraded bool
	switch {
	case s.routeStream != nil:
		// Routed streams forward from a backend replica's stream. A failure
		// before the first delta (no live backend, breaker-open, backend
		// shed) is a clean protocol-level rejection; after the first delta
		// it is a mid-stream interruption surfaced as a terminal error —
		// spillover never replays a started stream.
		rresp, err := s.routeStream.PredictStreamRoute(gctx, req, emit)
		if err != nil {
			if sendErr != nil {
				return cancelled(sendErr)
			}
			if first {
				if m != nil {
					m.shedFor(proto).Inc()
				}
				s.countError(proto, shedReason(err))
			} else {
				s.countError(proto, "stream_interrupted")
			}
			return Response{}, err
		}
		final, degraded = rresp.Suggestion, rresp.Degraded
	case req.SessionID != "" && s.sessionStream != nil:
		// Session streams reuse the session's retained prefix KV state —
		// time-to-first-body-delta shrinks to the changed suffix. Streams
		// already bypass singleflight, which is exactly the
		// isolation exclusive session state needs.
		if req.SessionReset && s.sessionReset != nil {
			s.sessionReset.ResetSession(req.SessionID)
		}
		final = s.sessionStream.PredictStreamSession(gctx, req.SessionID, req.Context, req.Prompt, emit)
	case s.schedStream != nil:
		// Scheduled streams decode through the continuous-batching engine:
		// the stream joins the shared step batch at the next boundary. The
		// engine errors only before the first delta (admission queue full or
		// engine closed), so a rejection here sheds as cleanly as a pool
		// rejection — no byte has left the server.
		var err error
		final, err = s.schedStream.PredictStreamSched(gctx, req.Context, req.Prompt, emit)
		if err != nil {
			if m != nil {
				m.shedFor(proto).Inc()
			}
			s.countError(proto, shedReason(err))
			return Response{}, err
		}
	default:
		final = s.stream.PredictStream(gctx, req.Context, req.Prompt, emit)
	}

	if sendErr != nil {
		return cancelled(sendErr)
	}
	if err := ctx.Err(); err != nil {
		return cancelled(err)
	}

	// Degraded answers stay out of the cache, same as the unary path.
	if s.cache != nil && !degraded {
		s.cache.Put(key, final)
	}
	return finishOK(Response{
		Suggestion: final,
		Degraded:   degraded,
		Replaced:   sent.String() != final,
	}), nil
}

// ---- SSE (chunked HTTP) ----

// handleStreamHTTP serves POST /v1/completions/stream as a Server-Sent
// Events stream:
//
//	event: delta        data: {"text": "<incremental text>"}
//	event: done         data: <Response JSON>     (terminal, success)
//	event: error        data: {"error": "<message>"}  (terminal, failure)
//
// Requests shed under overload are rejected with a plain HTTP 503 plus
// Retry-After before any SSE byte is written; once the stream has started,
// failures are delivered as a well-formed "error" event instead.
func (s *Server) handleStreamHTTP(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeHTTPRequest(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.countError("http", "streaming_unsupported")
		http.Error(w, `{"error":"streaming unsupported by this connection"}`, http.StatusInternalServerError)
		return
	}

	started := false
	sendEvent := func(event string, payload any) error {
		if !started {
			started = true
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-cache")
			h.Set("Connection", "keep-alive")
			w.WriteHeader(http.StatusOK)
		}
		data, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	resp, err := s.predictStream(r.Context(), req, "http", func(d string) error {
		return sendEvent(StreamDelta, sseDelta{Text: d})
	})
	switch {
	case err == nil:
		_ = sendEvent(StreamDone, resp)
	case !started:
		// Shed (or otherwise failed) before the first byte: a clean
		// protocol-level rejection, never a torn SSE response.
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusServiceUnavailable)
	default:
		// Mid-stream failure (usually the client is already gone); a
		// well-formed terminal event for anyone still listening.
		_ = sendEvent(StreamError, map[string]string{"error": err.Error()})
	}
}

// decodeHTTPRequest parses one prediction request body, answering the
// protocol-level rejections (size cap, malformed JSON, empty prompt)
// itself. ok is false when a rejection has been written.
func (s *Server) decodeHTTPRequest(w http.ResponseWriter, r *http.Request) (Request, bool) {
	if r.Method != http.MethodPost {
		s.countError("http", "method_not_allowed")
		http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
		return Request{}, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.countError("http", "body_too_large")
			http.Error(w, fmt.Sprintf(`{"error":"request body exceeds %d bytes"}`, tooLarge.Limit),
				http.StatusRequestEntityTooLarge)
			return Request{}, false
		}
		s.countError("http", "bad_json")
		http.Error(w, fmt.Sprintf(`{"error":%q}`, "bad request: "+err.Error()), http.StatusBadRequest)
		return Request{}, false
	}
	if strings.TrimSpace(req.Prompt) == "" {
		s.countError("http", "empty_prompt")
		http.Error(w, `{"error":"prompt is required"}`, http.StatusBadRequest)
		return Request{}, false
	}
	// The session key travels either in the body or as a header; the header
	// lets thin clients (curl, editor plugins reusing one request template)
	// pin a session without touching the JSON payload.
	if req.SessionID == "" {
		req.SessionID = r.Header.Get(SessionHeader)
	}
	return req, true
}

// SessionHeader is the HTTP header naming the request's decode session; the
// JSON body's session_id field wins when both are set.
const SessionHeader = "X-Wisdom-Session"

// ---- streamed RPC ----

// streamWatchInterval is how often the RPC stream watchdog wakes to check
// whether the stream has finished; it bounds both disconnect-detection
// latency and the hand-back delay before the connection's next exchange.
const streamWatchInterval = 50 * time.Millisecond

// serveStreamRPC answers one OpStream request on the persistent connection:
// delta frames as the generation produces text, then one terminal frame. A
// write failure (client gone) cancels the decode loop and condemns the
// connection; a shed stream is a single well-formed StreamError frame on a
// connection that stays healthy.
//
// Because the protocol forbids the client from sending anything between its
// request frame and the server's terminal frame, a watchdog goroutine reads
// the connection during the stream: any read result — data (a protocol
// violation) or an error (the client hung up) — cancels the decode loop, so
// a silently dropped client frees its worker slot even during a long gap
// between deltas, not just at the next failed write.
func (s *Server) serveStreamRPC(conn net.Conn, req Request) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	watchDone := make(chan struct{})
	watchExited := make(chan struct{})
	condemned := false // set only by the watchdog, read only after it exits
	go func() {
		defer close(watchExited)
		buf := make([]byte, 1)
		for {
			conn.SetReadDeadline(time.Now().Add(streamWatchInterval))
			_, err := conn.Read(buf)
			if err == nil {
				// Client data mid-stream: the framing contract is broken.
				condemned = true
				cancel()
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				select {
				case <-watchDone:
					conn.SetReadDeadline(time.Time{})
					return
				default:
					continue
				}
			}
			condemned = true // disconnect or transport failure
			cancel()
			return
		}
	}()
	// stopWatch hands the connection back to the frame loop: no terminal
	// frame is written (and no next frame read) until the watchdog has
	// stopped touching the connection.
	stopWatch := func() {
		close(watchDone)
		<-watchExited
	}

	seq := 0
	var writeErr error
	sendFrame := func(fr StreamFrame) error {
		fr.Seq = seq
		seq++
		if err := writeFrame(conn, fr); err != nil {
			writeErr = err
			return err
		}
		return nil
	}

	resp, err := s.predictStream(ctx, req, "rpc", func(d string) error {
		return sendFrame(StreamFrame{Type: StreamDelta, Delta: d})
	})
	stopWatch()
	if writeErr != nil || condemned {
		if writeErr != nil {
			return writeErr // transport gone; drop the connection
		}
		return errStreamCancelled
	}
	if err != nil {
		return sendFrame(StreamFrame{Type: StreamError, Error: err.Error()})
	}
	return sendFrame(StreamFrame{Type: StreamDone, Final: &resp})
}

// PredictStream performs one streamed prediction exchange: emit receives
// each delta as its frame arrives, and the returned Response is the
// terminal frame's authoritative metadata (check Replaced before trusting
// the concatenated deltas). A server-delivered StreamError (e.g. overload
// shed) is returned as an error with the connection still healthy; any
// transport or framing failure mid-stream breaks the client as usual.
func (c *Client) PredictStream(req Request, emit func(delta string)) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return Response{}, ErrClientBroken
	}
	req.Op = OpStream
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := writeFrame(c.conn, req); err != nil {
		c.broken = true
		return Response{}, err
	}
	for seq := 0; ; seq++ {
		if c.timeout > 0 {
			// The deadline bounds each frame gap, not the whole stream: a
			// healthy stream keeps producing frames.
			c.conn.SetDeadline(time.Now().Add(c.timeout))
		}
		var fr StreamFrame
		if err := readFrame(c.conn, &fr); err != nil {
			c.broken = true
			return Response{}, err
		}
		if fr.Seq != seq {
			c.broken = true
			return Response{}, fmt.Errorf("serve: stream frame %d arrived as seq %d; protocol violation", seq, fr.Seq)
		}
		switch fr.Type {
		case StreamDelta:
			emit(fr.Delta)
		case StreamDone:
			if fr.Final == nil {
				c.broken = true
				return Response{}, errors.New("serve: stream done frame without final response; protocol violation")
			}
			return *fr.Final, nil
		case StreamError:
			return Response{}, errors.New("serve: " + fr.Error)
		default:
			c.broken = true
			return Response{}, fmt.Errorf("serve: unknown stream frame type %q; protocol violation", fr.Type)
		}
	}
}

// PredictStream performs one streamed prediction, retrying per the options
// — but only while nothing has been emitted: once a delta has reached emit,
// a failure is terminal (replaying the stream would duplicate output the
// caller has already rendered). Shed streams arrive as clean error frames
// before any delta, so the overload case retries exactly like unary
// requests.
func (rc *RetryClient) PredictStream(req Request, emit func(delta string)) (Response, error) {
	return rc.PredictStreamContext(context.Background(), req, emit)
}

// PredictStreamContext is PredictStream bounded by ctx.
func (rc *RetryClient) PredictStreamContext(ctx context.Context, req Request, emit func(delta string)) (Response, error) {
	var resp Response
	started := false
	err := rc.retrier.Do(ctx, func(context.Context) error {
		b := rc.opts.Breaker
		if b != nil && !b.Allow() {
			return resilience.ErrBreakerOpen
		}
		c, err := rc.conn()
		if err != nil {
			if b != nil {
				b.Record(err)
			}
			return err
		}
		r, err := c.PredictStream(req, func(d string) {
			started = true
			emit(d)
		})
		if b != nil {
			b.Record(err)
		}
		if err != nil {
			if c.Broken() {
				rc.drop(c)
				err = &transportError{err}
			}
			if started {
				return interruptedStreamError(err)
			}
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}
