package wisdom

import (
	"context"

	"wisdom/internal/neural"
)

// SessionGenerator is implemented by generators that can keep per-session
// decode state alive across requests (NeuralLM over the transformer's
// SessionCache): CompleteSession behaves exactly like CompleteStream with
// the same arguments — byte-identical output — but when sessionID names a
// session whose previous request shares a token prefix with this one, only
// the changed suffix is re-stepped. reused reports how many prefix positions
// were served from the retained state.
type SessionGenerator interface {
	Generator
	CompleteSession(sessionID string, cancel <-chan struct{}, prefix, prompt []int, maxNew int,
		stop func(generated []int) bool, stopToken int, onToken func(tok int)) (out []int, reused int)
}

// EnableSessions attaches a per-session prefix KV cache to the transformer
// so CompleteSession can reuse decode state across requests. Call once,
// after training and before serving traffic.
func (g *NeuralLM) EnableSessions(cfg neural.SessionCacheConfig) {
	g.sessions = g.Model.NewSessionCache(cfg)
}

// Sessions returns the session cache attached by EnableSessions (nil when
// sessions are disabled).
func (g *NeuralLM) Sessions() *neural.SessionCache { return g.sessions }

// CompleteSession implements SessionGenerator. Without an attached session
// cache (or with an empty id) it decodes exactly like CompleteStream.
func (g *NeuralLM) CompleteSession(sessionID string, cancel <-chan struct{}, prefix, _ []int, maxNew int,
	stop func([]int) bool, stopToken int, onToken func(int)) ([]int, int) {
	opts := g.genOpts(stop, stopToken, onToken, cancel)
	if g.sessions == nil {
		return g.Model.GenerateCached(prefix, maxNew, opts), 0
	}
	return g.sessions.Generate(sessionID, prefix, maxNew, opts)
}

// EnableSessions turns on per-session prefix KV caching when the model's LM
// supports it, reporting whether it did. Only transformer-backed models
// (NeuralLM) hold reusable decode state; the n-gram zoo decodes from counts
// and has nothing to retain, so EnableSessions on those models is a no-op
// returning false.
func (m *Model) EnableSessions(cfg neural.SessionCacheConfig) bool {
	if nl, ok := m.LM.(*NeuralLM); ok {
		nl.EnableSessions(cfg)
		return true
	}
	return false
}

// SessionStats reports the session cache's health for the serving layer's
// metrics: whether sessions are enabled, how many are live (resident plus
// checked out by in-flight generations), how many states have been evicted,
// and the fraction of prefix positions served from retained state.
func (m *Model) SessionStats() (enabled bool, active int, evictions uint64, reuseRatio float64) {
	nl, ok := m.LM.(*NeuralLM)
	if !ok || nl.sessions == nil {
		return false, 0, 0, 0
	}
	sc := nl.sessions
	return true, sc.Active(), sc.Evictions(), sc.ReuseRatio()
}

// PredictSession answers one request like Predict — identical output for
// identical inputs — but keyed to a client session: the transformer's decode
// state from the session's previous request is reused, so a request whose
// rendered context shares a token prefix with the last one (the editor
// keystroke pattern) re-steps only the changed suffix. The session id is an
// opaque client-chosen affinity key; a future sharded frontend hashes it to
// route the session to the replica holding its state.
func (m *Model) PredictSession(sessionID, context, prompt string) string {
	out, _ := m.predict(context, prompt, m.sessionDecoder(sessionID)) // session decoders never fail
	return out
}

// sessionDecoder decodes on the caller's goroutine, reusing (and then
// retaining) the named session's prefix state. An empty id, or an LM
// without session state, decodes solo.
func (m *Model) sessionDecoder(sessionID string) decoder {
	sg, ok := m.LM.(SessionGenerator)
	if !ok || sessionID == "" {
		return m.soloDecoder
	}
	return func(p genPlan, cancel <-chan struct{}, onToken func(int)) (func() []int, error) {
		return func() []int {
			out, _ := sg.CompleteSession(sessionID, cancel, p.prefix, p.prompt, p.maxNew, p.stop, p.stopToken, onToken)
			return out
		}, nil
	}
}

// ResetSession discards whatever decode state the model retains for
// sessionID, so the session's next request cold-starts from scratch. It
// satisfies the serve package's SessionResetter seam: a sharded frontend
// sends session_reset when a session's ring owner changed, because any
// state this replica holds under that id belongs to a conversation that
// has since continued on another replica. Unknown sessions (and models
// without session state) are a no-op.
func (m *Model) ResetSession(sessionID string) {
	if nl, ok := m.LM.(*NeuralLM); ok && nl.sessions != nil {
		nl.sessions.Invalidate(sessionID)
	}
}

// PredictStreamSession is PredictStream keyed to a client session: the same
// emission contract (in-order deltas, concatenation equal to the returned
// answer unless post-processing rewrote it), with the decode reusing the
// session's retained prefix state so time-to-first-body-delta shrinks to
// O(changed suffix) on keystroke-shaped request sequences.
func (m *Model) PredictStreamSession(ctx context.Context, sessionID, yamlCtx, prompt string, emit func(delta string)) string {
	final, _ := m.predictStream(ctx, yamlCtx, prompt, emit, m.sessionDecoder(sessionID)) // session decoders never fail
	return final
}
