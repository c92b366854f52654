package wisdom

import (
	"context"

	"wisdom/internal/neural"
)

// EnableScheduler attaches a continuous-batching decode engine to the
// transformer and reports whether it did: one persistent scheduling loop
// owns the step batch, admits queued requests into free slots and retires
// finished ones at every step boundary, so concurrent Predict traffic
// shares the batched kernels without waiting out the longest request of a
// batch. Only transformer-backed models (NeuralLM) can batch steps;
// on the n-gram zoo this is a no-op returning false. Call once, after
// training and before serving traffic.
func (m *Model) EnableScheduler(cfg neural.EngineConfig) bool {
	if nl, ok := m.LM.(*NeuralLM); ok {
		nl.engine = nl.Model.NewEngine(cfg)
		return true
	}
	return false
}

// scheduler returns the attached decode engine, or nil when EnableScheduler
// was never called (or the LM cannot batch).
func (m *Model) scheduler() *neural.Engine {
	if nl, ok := m.LM.(*NeuralLM); ok {
		return nl.engine
	}
	return nil
}

// SchedStats reports the decode engine's scheduling counters for the
// serving layer's metrics: whether the scheduler is enabled, the configured
// step-batch capacity, current active/queued sequences, and the cumulative
// admitted/retired/step/row-step counts (rowSteps/(steps*maxBatch) is the
// engine's batch occupancy). All zeros when disabled.
func (m *Model) SchedStats() (enabled bool, maxBatch, active, queued int, admitted, retired, steps, rowSteps uint64) {
	e := m.scheduler()
	if e == nil {
		return false, 0, 0, 0, 0, 0, 0, 0
	}
	st := e.Stats()
	return true, st.MaxBatch, st.Active, st.Queued, st.Admitted, st.Retired, st.Steps, st.RowSteps
}

// SetSchedQueueWaitObserver registers a hook receiving each admitted
// request's queue wait in seconds (the serving layer points a histogram
// here). No-op when the scheduler is disabled.
func (m *Model) SetSchedQueueWaitObserver(fn func(waitSeconds float64)) {
	if e := m.scheduler(); e != nil {
		e.SetQueueWaitObserver(fn)
	}
}

// CloseScheduler drains the decode engine — accepted requests complete, new
// ones are rejected — and stops its scheduling loop, bounded by ctx. No-op
// when the scheduler is disabled.
func (m *Model) CloseScheduler(ctx context.Context) error {
	if e := m.scheduler(); e != nil {
		return e.Close(ctx)
	}
	return nil
}

// schedDecoder decodes through the continuous-batching engine: the request
// joins the shared step batch at the next step boundary instead of decoding
// alone. Starting it fails fast with the engine's overload error
// (classified Overloaded() for the serving layer) when the admission queue
// is full, and with neural.ErrEngineClosed during shutdown. A cancelled ctx
// retires the sequence at the next step boundary with its partial output.
// Without an attached scheduler it is the solo decoder.
func (m *Model) schedDecoder(ctx context.Context) decoder {
	e := m.scheduler()
	if e == nil {
		return m.soloDecoder
	}
	nl := m.LM.(*NeuralLM)
	return func(p genPlan, cancel <-chan struct{}, onToken func(int)) (func() []int, error) {
		tk, err := e.Submit(ctx, p.prefix, p.maxNew, nl.genOpts(p.stop, p.stopToken, onToken, cancel))
		if err != nil {
			return nil, err
		}
		return tk.Wait, nil
	}
}

// PredictSched answers one request like Predict — identical output for
// identical inputs — but decodes through the continuous-batching engine
// (see schedDecoder for the admission errors). Without an attached
// scheduler it is Predict.
func (m *Model) PredictSched(ctx context.Context, yamlCtx, prompt string) (string, error) {
	return m.predict(yamlCtx, prompt, m.schedDecoder(ctx))
}

// PredictStreamSched is PredictStream decoding through the
// continuous-batching engine, with the same emission contract: the name
// line first, then each committed body line, then the reconciling tail.
// Admission is checked before any byte is emitted, so an overload rejection
// returns the engine's error with nothing sent and the caller can shed the
// request cleanly. A cancelled ctx retires the sequence at the next step
// boundary; the partial answer assembled so far is returned.
func (m *Model) PredictStreamSched(ctx context.Context, yamlCtx, prompt string, emit func(delta string)) (string, error) {
	return m.predictStream(ctx, yamlCtx, prompt, emit, m.schedDecoder(ctx))
}
