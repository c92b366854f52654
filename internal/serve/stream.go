// Streaming transports: the SSE endpoint, the streamed RPC frame variant,
// and the client side of both. See docs/PROTOCOL.md for the wire format; the
// request pipeline they feed is predictStream in server.go.

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
