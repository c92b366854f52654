package wisdom

import (
	"context"
	"sync"
	"time"
)

// PredictStream implements StreamPredictor on the degradation chain,
// discarding the degradation flag (callers that care use
// PredictStreamDegraded).
func (c *Chain) PredictStream(ctx context.Context, yamlCtx, prompt string, emit func(delta string)) string {
	out, _ := c.PredictStreamDegraded(ctx, yamlCtx, prompt, emit)
	return out
}

// PredictStreamDegraded answers one request through the chain: the tier
// that answers is the tier that streams, and the returned flag tags the
// answer degraded when that tier was not the primary. A nil emit asks for
// the answer alone (the unary form, PredictDegraded).
//
// Tier hand-off interacts with streaming in one way the unary form never
// sees: a tier that has already emitted deltas cannot be abandoned, because
// its partial output is on the wire and a lower tier would answer with
// different bytes. The per-tier timeout therefore bounds a tier's time to
// FIRST output: a tier that times out silent is abandoned — which, for a
// unary request, is every tier that times out — while a tier that is
// already streaming owns the request and the chain waits for it to finish
// (generation is finite compute, and the caller's ctx still cancels the
// decode loop itself). A tier that fails after streaming started poisons
// the stream — the request loses its sink, so lower tiers answer unary-style,
// nothing more is emitted, and the caller's delta/answer comparison
// surfaces the rewrite.
func (c *Chain) PredictStreamDegraded(ctx context.Context, yamlCtx, prompt string, emit func(delta string)) (string, bool) {
	b := c.cfg.Breaker
	if b == nil || b.Allow() {
		out, started, err := callTierStream(ctx, c.primary, yamlCtx, prompt, c.cfg.Timeout, emit)
		if b != nil {
			b.Record(err)
		}
		if err == nil {
			return out, false
		}
		if started {
			emit = nil
		}
	}
	if c.fallback != nil {
		out, started, err := callTierStream(ctx, c.fallback, yamlCtx, prompt, c.cfg.Timeout, emit)
		if err == nil {
			c.degraded("fallback")
			return out, true
		}
		if started {
			emit = nil
		}
	}
	if c.retrieve != nil {
		if out, ok := c.retrieve(yamlCtx, prompt); ok {
			c.degraded("retrieval")
			// Retrieval is instantaneous: the whole answer goes out as one
			// delta (when the stream is still clean).
			if emit != nil {
				emit(out)
			}
			return out, true
		}
	}
	c.degraded("none")
	return "", true
}

// emitGate serialises a tier's emissions against the chain's abandonment
// decision: once tryAbandon wins, every later delta from the abandoned
// goroutine is discarded instead of interleaving with the next tier's
// stream; once a delta has gone out, tryAbandon loses and the tier keeps
// the request.
type emitGate struct {
	mu        sync.Mutex
	started   bool
	abandoned bool
	emit      func(string) // nil: the request has no sink, nothing ever starts
}

func (g *emitGate) send(d string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.abandoned || g.emit == nil {
		return
	}
	g.started = true
	g.emit(d)
}

// tryAbandon marks the gate abandoned unless streaming already started,
// reporting whether abandonment won.
func (g *emitGate) tryAbandon() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return false
	}
	g.abandoned = true
	return true
}

func (g *emitGate) hasStarted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started
}

// callTierStream runs one tier's prediction on its own goroutine, bounded by
// the timeout in the way the Chain doc describes: silent tiers are abandoned
// on timeout (their late deltas and eventual result discarded), streaming
// tiers are waited out. A tier without a streaming implementation, and any
// tier when emit is nil, runs its unary Predict; given a sink, it emits the
// whole answer as one delta on success. started reports whether any delta
// reached the caller's emit.
func callTierStream(ctx context.Context, p Predictor, yamlCtx, prompt string,
	timeout time.Duration, emit func(string)) (out string, started bool, err error) {
	type result struct {
		out string
		err error
	}
	gate := &emitGate{emit: emit}
	ch := make(chan result, 1) // buffered: an abandoned tier still exits
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- result{err: errPanic}
			}
		}()
		if sp, ok := p.(StreamPredictor); ok && emit != nil {
			ch <- result{out: sp.PredictStream(ctx, yamlCtx, prompt, gate.send)}
			return
		}
		o := p.Predict(yamlCtx, prompt)
		gate.send(o)
		ch <- result{out: o}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	deadline := t.C
	for {
		select {
		case r := <-ch:
			return r.out, gate.hasStarted(), r.err
		case <-deadline:
			if gate.tryAbandon() {
				return "", false, errTimeout
			}
			// The tier is mid-stream and owns the request; wait it out.
			deadline = nil
		}
	}
}
