package neural

import (
	"time"

	"wisdom/internal/observe"
)

// Instrumentation bundles the transformer's runtime signals: per-phase
// training timers (forward, backward, optimizer step), training and
// generation throughput in tokens/second, and KV-cache occupancy during
// incremental decoding.
//
// Attach one with Model.Instrument. The default (nil) leaves every hot path
// on a no-op branch: each instrumented site costs a single pointer test, so
// an un-instrumented model generates at the same speed as before this layer
// existed (see BenchmarkGenerate* in obs_test.go).
type Instrumentation struct {
	// Forward / Backward / OptStep time one training phase each, in
	// seconds. Forward covers the full-sequence forward pass; Backward the
	// loss head plus backpropagation; OptStep one Adam update.
	Forward  *observe.Histogram
	Backward *observe.Histogram
	OptStep  *observe.Histogram
	// TrainTokens counts tokens consumed by optimizer steps;
	// TrainTokensPerSec is the throughput of the most recent batch.
	TrainTokens       *observe.Counter
	TrainTokensPerSec *observe.Gauge
	// GenDuration times one decode (a GenerateCached call, an engine row or
	// a session generation); GenTokens counts emitted tokens;
	// GenTokensPerSec is the rate of the most recent call.
	GenDuration     *observe.Histogram
	GenTokens       *observe.Counter
	GenTokensPerSec *observe.Gauge
	// KVCachePositions is the number of positions held by the live decode
	// state; KVCacheOccupancy is that as a fraction of the context window.
	KVCachePositions *observe.Gauge
	KVCacheOccupancy *observe.Gauge
	// DecodeSteps counts incremental decode steps (one per token fed through
	// the cached step kernel; a batched step of B rows counts B).
	// StepDuration times one step kernel invocation — a single row for
	// step, a whole batch for stepBatch.
	DecodeSteps  *observe.Counter
	StepDuration *observe.Histogram
}

// NewInstrumentation registers the standard wisdom_* metric names on reg
// and returns the bundle. A nil registry yields nil (metrics stay off).
func NewInstrumentation(reg *observe.Registry) *Instrumentation {
	if reg == nil {
		return nil
	}
	phase := func(name string) *observe.Histogram {
		return reg.Histogram("wisdom_train_phase_seconds",
			"Duration of one training phase.", observe.DefBuckets,
			observe.Label{Key: "phase", Value: name})
	}
	return &Instrumentation{
		Forward:  phase("forward"),
		Backward: phase("backward"),
		OptStep:  phase("optimizer_step"),
		TrainTokens: reg.Counter("wisdom_train_tokens_total",
			"Tokens consumed by optimizer steps."),
		TrainTokensPerSec: reg.Gauge("wisdom_train_tokens_per_second",
			"Training throughput of the most recent batch."),
		GenDuration: reg.Histogram("wisdom_generation_duration_seconds",
			"Duration of one generation call.", observe.DefBuckets),
		GenTokens: reg.Counter("wisdom_generated_tokens_total",
			"Tokens emitted by generation calls."),
		GenTokensPerSec: reg.Gauge("wisdom_generation_tokens_per_second",
			"Decoding throughput of the most recent generation call."),
		KVCachePositions: reg.Gauge("wisdom_kvcache_positions",
			"Positions held by the most recent KV-cache decode state."),
		KVCacheOccupancy: reg.Gauge("wisdom_kvcache_occupancy_ratio",
			"KV-cache positions as a fraction of the context window."),
		DecodeSteps: reg.Counter("wisdom_decode_steps_total",
			"Incremental decode steps (token-rows fed through the step kernels)."),
		StepDuration: reg.Histogram("wisdom_decode_step_seconds",
			"Duration of one decode step kernel invocation.",
			observe.ExponentialBuckets(1e-6, 4, 12)),
	}
}

// Instrument attaches ins to the model; nil detaches. Shadow models created
// for parallel batch gradients inherit the attachment. Not safe to call
// concurrently with training or generation.
func (m *Model) Instrument(ins *Instrumentation) { m.obs = ins }

// recordGeneration folds one finished generation call into the bundle.
func (ins *Instrumentation) recordGeneration(tokens int, d time.Duration) {
	ins.GenDuration.Observe(d.Seconds())
	ins.GenTokens.Add(tokens)
	if s := d.Seconds(); s > 0 && tokens > 0 {
		ins.GenTokensPerSec.Set(float64(tokens) / s)
	}
}
