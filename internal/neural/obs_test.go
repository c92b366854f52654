package neural

import (
	"strings"
	"testing"

	"wisdom/internal/observe"
)

func obsTestModel(t testing.TB) *Model {
	t.Helper()
	m, err := NewModel(Config{Vocab: 64, Ctx: 64, Dim: 32, Heads: 4, Layers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInstrumentationNilRegistry(t *testing.T) {
	if NewInstrumentation(nil) != nil {
		t.Error("nil registry must yield nil instrumentation")
	}
}

func TestTrainInstrumented(t *testing.T) {
	m := obsTestModel(t)
	reg := observe.NewRegistry()
	ins := NewInstrumentation(reg)
	m.Instrument(ins)

	seqs := [][]int{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10}, {2, 4, 6, 8, 10, 12}, {1, 3, 5, 7}}
	m.Train(seqs, TrainConfig{Epochs: 1, BatchSize: 2, Seed: 1})

	if ins.Forward.Count() == 0 || ins.Backward.Count() == 0 {
		t.Errorf("phase timers empty: forward %d backward %d", ins.Forward.Count(), ins.Backward.Count())
	}
	if ins.OptStep.Count() != 2 {
		t.Errorf("optimizer steps observed = %d, want 2", ins.OptStep.Count())
	}
	wantTokens := uint64(6 + 4 + 6 + 4)
	if got := ins.TrainTokens.Value(); got != wantTokens {
		t.Errorf("trained tokens = %d, want %d", got, wantTokens)
	}
	if ins.TrainTokensPerSec.Value() <= 0 {
		t.Error("train tokens/sec not set")
	}
}

func TestGenerateInstrumented(t *testing.T) {
	m := obsTestModel(t)
	reg := observe.NewRegistry()
	ins := NewInstrumentation(reg)
	m.Instrument(ins)

	prefix := []int{1, 2, 3}

	out := m.GenerateCached(prefix, 8, GenOptions{StopToken: -1})
	if ins.GenDuration.Count() != 1 || ins.GenTokens.Value() != uint64(len(out)) {
		t.Errorf("cached generation: calls %d tokens %d want %d",
			ins.GenDuration.Count(), ins.GenTokens.Value(), len(out))
	}
	// The final emitted token is never fed back through the cache, so the
	// state holds prefix + generated - 1 positions.
	if got, want := ins.KVCachePositions.Value(), float64(len(prefix)+len(out)-1); got != want {
		t.Errorf("kv positions = %v, want %v", got, want)
	}
	occ := ins.KVCacheOccupancy.Value()
	if occ <= 0 || occ > 1 {
		t.Errorf("kv occupancy = %v", occ)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"wisdom_generated_tokens_total",
		"wisdom_generation_duration_seconds_count",
		"wisdom_kvcache_occupancy_ratio",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestInstrumentedOutputsUnchanged pins that attaching instrumentation
// cannot alter what the model computes.
func TestInstrumentedOutputsUnchanged(t *testing.T) {
	plain := obsTestModel(t)
	instr := obsTestModel(t)
	instr.Instrument(NewInstrumentation(observe.NewRegistry()))

	prefix := []int{5, 6, 7}
	a := plain.GenerateCached(prefix, 10, GenOptions{StopToken: -1})
	b := instr.GenerateCached(prefix, 10, GenOptions{StopToken: -1})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}

	seqs := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	la := plain.Train(seqs, TrainConfig{Epochs: 1, Seed: 3})
	lb := instr.Train(seqs, TrainConfig{Epochs: 1, Seed: 3})
	if la != lb {
		t.Errorf("losses diverge: %v vs %v", la, lb)
	}
}

// The acceptance budget for this layer: the no-op (metrics disabled) path
// must add <2% to Generate. Compare BenchmarkGenerateNoMetrics against
// BenchmarkGenerateMetricsEnabled — the disabled path is a handful of nil
// pointer tests per call, far below per-token matmul cost.
func benchGenerate(b *testing.B, instrumented bool) {
	m := obsTestModel(b)
	if instrumented {
		m.Instrument(NewInstrumentation(observe.NewRegistry()))
	}
	prefix := []int{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GenerateCached(prefix, 32, GenOptions{StopToken: -1})
	}
}

func BenchmarkGenerateNoMetrics(b *testing.B)      { benchGenerate(b, false) }
func BenchmarkGenerateMetricsEnabled(b *testing.B) { benchGenerate(b, true) }
