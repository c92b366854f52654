package neural

import "testing"

// benchConfig is the decode-engine benchmark model: the small Throughput
// configuration from the experiments suite.
var benchConfig = Config{Vocab: 512, Ctx: 64, Dim: 96, Heads: 4, Layers: 4, Seed: 1}

func benchModel(b *testing.B) *Model {
	b.Helper()
	m, err := NewModel(benchConfig)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStep measures one single-row decode step. Steady-state it must
// run allocation-free: the caches are preallocated at context capacity and
// all intermediates live in the scratch arena.
func BenchmarkStep(b *testing.B) {
	m := benchModel(b)
	st := m.newGenState()
	st.step(1) // allocate scratch + logits up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.pos == m.cfg.Ctx {
			b.StopTimer()
			st.reset()
			st.step(1)
			b.StartTimer()
		}
		st.step(2)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkStepBatch8 measures one batched decode step advancing 8
// sequences; per-op cost should grow far slower than 8x the single-row
// step because the projection weights are traversed once per step.
func BenchmarkStepBatch8(b *testing.B) {
	const B = 8
	m := benchModel(b)
	states := make([]*genState, B)
	toks := make([]int, B)
	for r := range states {
		states[r] = m.newGenState()
		toks[r] = r + 1
	}
	bs := m.newBatchScratch(B)
	m.stepBatch(states, toks, bs) // allocate per-state logits up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if states[0].pos == m.cfg.Ctx {
			b.StopTimer()
			for _, st := range states {
				st.reset()
			}
			m.stepBatch(states, toks, bs)
			b.StartTimer()
		}
		m.stepBatch(states, toks, bs)
	}
	b.ReportMetric(float64(b.N*B)/b.Elapsed().Seconds(), "tok/s")
}

const (
	benchBeamWidth  = 4
	benchBeamMaxNew = 24
)

var benchBeamPrefix = []int{1, 2, 3, 4, 5, 6, 7, 8}

// BenchmarkBeamDecode measures the KV-cached beam decoder at width 4.
func BenchmarkBeamDecode(b *testing.B) {
	m := benchModel(b)
	opts := BeamOptions{Width: benchBeamWidth, StopToken: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.beamCached(benchBeamPrefix, benchBeamMaxNew, opts)
	}
	b.ReportMetric(float64(b.N*benchBeamMaxNew)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkBeamDecodeUncached measures the pre-engine reference beam (full
// forward per beam per step) on the same request, the baseline for the
// cached decoder's speedup.
func BenchmarkBeamDecodeUncached(b *testing.B) {
	m := benchModel(b)
	opts := BeamOptions{Width: benchBeamWidth, StopToken: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.beamFullForward(benchBeamPrefix, benchBeamMaxNew, opts)
	}
	b.ReportMetric(float64(b.N*benchBeamMaxNew)/b.Elapsed().Seconds(), "tok/s")
}
