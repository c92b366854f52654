package serve

import "context"

// backend answers one admitted request from the model. emit is nil for a
// unary request — the arm calls its interface's unary method — and otherwise
// receives the deltas under PredictStream's emission contract. An error means
// nothing was served: before the first delta the request can still be shed
// cleanly, after it the stream is interrupted.
type backend func(ctx context.Context, req Request, emit func(delta string)) (suggestion string, degraded bool, err error)

// bindBackend is the one place the server asks what the model can do: it
// builds the backend from the prediction interfaces the model implements —
// routing, else session (for requests naming one), else scheduler, else
// degradation chain, else plain Predict; each later arm below replaces the
// one before it — and records what the request path and the stats need to
// know about the result. An arm streams only when the model implements the
// streaming face of that arm's interface.
func (s *Server) bindBackend(model Predictor) {
	sp, streams := model.(StreamingPredictor)
	run := backend(func(ctx context.Context, req Request, emit func(string)) (string, bool, error) {
		if emit == nil {
			return model.Predict(req.Context, req.Prompt), false, nil
		}
		return sp.PredictStream(ctx, req.Context, req.Prompt, emit), false, nil
	})

	if dp, ok := model.(DegradingPredictor); ok {
		var sdp StreamingDegradingPredictor
		sdp, streams = model.(StreamingDegradingPredictor)
		run = func(ctx context.Context, req Request, emit func(string)) (v string, degraded bool, err error) {
			if emit == nil {
				v, degraded = dp.PredictDegraded(req.Context, req.Prompt)
			} else {
				v, degraded = sdp.PredictStreamDegraded(ctx, req.Context, req.Prompt, emit)
			}
			return v, degraded, nil
		}
	}

	// Scheduler routing engages only when the model actually runs a
	// continuous-batching engine; a model that merely implements the
	// interface with the scheduler switched off keeps the arm below. The
	// engine errors only before the first delta (admission queue full,
	// engine closed).
	if p, ok := model.(SchedPredictor); ok {
		if enabled, _, _, _, _, _, _, _ := p.SchedStats(); enabled {
			s.sched = p
			var ssp SchedStreamingPredictor
			ssp, streams = model.(SchedStreamingPredictor)
			run = func(ctx context.Context, req Request, emit func(string)) (v string, _ bool, err error) {
				if emit == nil {
					v, err = p.PredictSched(ctx, req.Context, req.Prompt)
				} else {
					v, err = ssp.PredictStreamSched(ctx, req.Context, req.Prompt, emit)
				}
				return v, false, err
			}
		}
	}

	// Likewise sessions: only a model that holds session state takes the
	// requests naming a session, reusing the session's retained prefix KV
	// state; everything else stays on the stateless arm. SessionReset
	// discards that state first, inside the worker slot.
	if p, ok := model.(SessionPredictor); ok {
		if enabled, _, _, _ := p.SessionStats(); enabled {
			s.session, s.sessions = p, true
			stateless := run
			ssp, sessionStreams := model.(SessionStreamingPredictor)
			reset := func(string) {}
			if r, ok := model.(SessionResetter); ok {
				reset = r.ResetSession
			}
			run = func(ctx context.Context, req Request, emit func(string)) (string, bool, error) {
				if req.SessionID == "" || (emit != nil && !sessionStreams) {
					return stateless(ctx, req, emit)
				}
				if req.SessionReset {
					reset(req.SessionID)
				}
				if emit == nil {
					return p.PredictSession(req.SessionID, req.Context, req.Prompt), false, nil
				}
				return ssp.PredictStreamSession(ctx, req.SessionID, req.Context, req.Prompt, emit), false, nil
			}
		}
	}

	// A model that forwards to a backend tier instead of decoding locally
	// (the router frontend) takes every request, sessions included: the
	// session id is the affinity key it hashes.
	if rp, ok := model.(RoutingPredictor); ok {
		s.sessions = true
		var rsp RoutingStreamingPredictor
		rsp, streams = model.(RoutingStreamingPredictor)
		run = func(ctx context.Context, req Request, emit func(string)) (string, bool, error) {
			var resp Response
			var err error
			if emit == nil {
				resp, err = rp.PredictRoute(ctx, req)
			} else {
				resp, err = rsp.PredictStreamRoute(ctx, req, emit)
			}
			return resp.Suggestion, resp.Degraded, err
		}
	}
	s.backend, s.streams = run, streams
}
