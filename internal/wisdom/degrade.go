package wisdom

import (
	"context"
	"time"

	"wisdom/internal/resilience"
)

// Predictor is the one-shot prediction interface the degradation chain
// composes (the same shape the serve package consumes); *Model satisfies it.
type Predictor interface {
	Predict(context, prompt string) string
}

// ChainConfig tunes a degradation Chain. The zero value of each field
// selects the documented default.
type ChainConfig struct {
	// Timeout bounds each generative tier's Predict call; a tier that
	// exceeds it is abandoned and the next tier answers (default 1s).
	Timeout time.Duration
	// Breaker, when set, guards the primary tier: while it is open the
	// chain skips straight to the fallback, and primary outcomes
	// (success / timeout / panic) feed it. Per-backend: use one breaker
	// per chain.
	Breaker *resilience.Breaker
	// OnDegrade, when set, observes every degraded answer with the tier
	// that served it ("fallback", "retrieval" or "none"); the serving
	// layer hangs its wisdom_degraded_responses_total counter here.
	OnDegrade func(tier string)
}

// Chain is the graceful-degradation path of the serving stack: a primary
// predictor (the expensive, best-quality model — the transformer tier), a
// cheaper generative fallback (the n-gram tier), and a retrieval-only last
// resort. A request flows down the chain when the tier above it times out,
// panics, or is circuit-broken; any answer not produced by the primary is
// degraded, which the serving layer surfaces as "degraded":true so clients
// can tell a best-effort suggestion from a first-class one.
//
// The chain is safe for concurrent use when its tiers are (every predictor
// in this repository is — inference reads frozen state only). A timed-out
// tier's goroutine is abandoned, not cancelled: unary generation is pure
// compute with no cancellation points, so the result is discarded when it
// eventually lands and the goroutine exits. That briefly costs a worker's
// worth of CPU beyond the pool bound — the standard hedging trade.
type Chain struct {
	primary  Predictor
	fallback Predictor
	retrieve func(context, prompt string) (string, bool)
	cfg      ChainConfig
}

// NewChain composes a degradation chain. fallback and retrieve may each be
// nil; a chain with neither answers "" once the primary fails, still tagged
// degraded.
func NewChain(primary Predictor, fallback Predictor, retrieve func(context, prompt string) (string, bool), cfg ChainConfig) *Chain {
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	return &Chain{primary: primary, fallback: fallback, retrieve: retrieve, cfg: cfg}
}

// NewModelChain wires the standard chain for a served model: primary's full
// prediction path, fallback's (when non-nil), and the retrieval memory of
// whichever model has one (primary preferred — its memory is the fine-tuned
// one) as the last resort.
func NewModelChain(primary, fallback *Model, cfg ChainConfig) *Chain {
	var retrieve func(context, prompt string) (string, bool)
	switch {
	case primary.Retr != nil:
		retrieve = primary.RetrievalPredict
	case fallback != nil && fallback.Retr != nil:
		retrieve = fallback.RetrievalPredict
	}
	var fb Predictor
	if fallback != nil {
		fb = fallback
	}
	return NewChain(primary, fb, retrieve, cfg)
}

// Breaker returns the breaker guarding the primary tier (nil when unset).
func (c *Chain) Breaker() *resilience.Breaker { return c.cfg.Breaker }

// Predict implements the serving predictor interface, discarding the
// degradation flag (callers that care use PredictDegraded).
func (c *Chain) Predict(context, prompt string) string {
	out, _ := c.PredictDegraded(context, prompt)
	return out
}

// PredictDegraded answers one request through the chain and reports whether
// the answer came from a degraded tier: PredictStreamDegraded without a
// sink, so every tier answers through its unary Predict and, never emitting,
// is abandoned when it outlives the tier timeout.
func (c *Chain) PredictDegraded(yamlCtx, prompt string) (string, bool) {
	return c.PredictStreamDegraded(context.Background(), yamlCtx, prompt, nil)
}

func (c *Chain) degraded(tier string) {
	if c.cfg.OnDegrade != nil {
		c.cfg.OnDegrade(tier)
	}
}

// tierError is a chain-internal failure of one tier.
type tierError string

// Error implements error: the tierError is its own message.
func (e tierError) Error() string { return string(e) }

const (
	errTimeout = tierError("wisdom: predictor tier timed out")
	errPanic   = tierError("wisdom: predictor tier panicked")
)

// RetrievalPredict answers a request from the nearest memorised completion
// alone, with the permissive fallback threshold and Predict's validation:
// the last-resort tier of a degradation chain. ok is false when the model
// has no retrieval memory, no neighbour qualifies, or the best neighbour
// fails the task schema.
func (m *Model) RetrievalPredict(context, prompt string) (string, bool) {
	s, nameLine, indent := m.predictSample(context, prompt)
	body, ok := m.nearestBody(s, indent)
	if !ok || !m.bodyValid(nameLine, body, indent) {
		return "", false
	}
	return nameLine + "\n" + body, true
}
