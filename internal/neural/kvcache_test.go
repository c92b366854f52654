package neural

import (
	"math"
	"math/rand"
	"testing"
)

func TestCachedMatchesFullForward(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 16, Dim: 16, Heads: 4, Layers: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{3, 14, 1, 5, 9, 2, 6, 5}

	// Per-position logits must match the batch forward exactly.
	tr := m.forward(tokens)
	st := m.newGenState()
	for pos, tok := range tokens {
		got := st.step(tok)
		want := m.logitsAt(tr, pos)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("pos %d logit %d: cached %v vs full %v", pos, i, got[i], want[i])
			}
		}
	}
}

func TestGenerateCachedMatchesGenerate(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 32, Dim: 16, Heads: 2, Layers: 2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []int{7, 3, 11, 2}
	full := m.Generate(prefix, 10, GenOptions{StopToken: -1})
	cached := m.GenerateCached(prefix, 10, GenOptions{StopToken: -1})
	if len(full) != len(cached) {
		t.Fatalf("lengths differ: %v vs %v", full, cached)
	}
	for i := range full {
		if full[i] != cached[i] {
			t.Fatalf("outputs differ at %d: %v vs %v", i, full, cached)
		}
	}
}

func TestGenerateCachedSamplingReproducible(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 32, Dim: 16, Heads: 2, Layers: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() []int {
		return m.GenerateCached([]int{5, 6}, 8, GenOptions{
			Temperature: 0.9, TopK: 6, StopToken: -1,
			Rand: rand.New(rand.NewSource(4)),
		})
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed sampling diverged: %v vs %v", a, b)
		}
	}
}

func TestGenerateCachedOverflowWindowed(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 8, Dim: 8, Heads: 2, Layers: 1, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	// prefix+maxNew exceeds ctx: the windowed decode path must emit maxNew
	// tokens without panicking (it re-primes the cache instead of falling
	// back to the quadratic full-forward loop).
	prefix := []int{1, 2, 3, 4, 5, 6}
	out := m.GenerateCached(prefix, 6, GenOptions{StopToken: -1})
	if len(out) != 6 {
		t.Errorf("windowed decode generated %d tokens, want 6", len(out))
	}
}

func TestGenerateCachedWindowedPrefixMatchesGenerate(t *testing.T) {
	// In the overflow regime, cached decoding stays identical to Generate
	// until the first token whose conditioning window would differ — i.e.
	// while prefix+generated still fits the context.
	m, err := NewModel(Config{Vocab: 24, Ctx: 12, Dim: 16, Heads: 2, Layers: 2, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []int{3, 9, 1, 4}
	const maxNew = 20
	full := m.Generate(prefix, maxNew, GenOptions{StopToken: -1})
	cached := m.GenerateCached(prefix, maxNew, GenOptions{StopToken: -1})
	if len(cached) != maxNew {
		t.Fatalf("windowed decode generated %d tokens, want %d", len(cached), maxNew)
	}
	same := m.cfg.Ctx - len(prefix)
	for i := 0; i < same; i++ {
		if full[i] != cached[i] {
			t.Fatalf("token %d diverged inside the shared window: %v vs %v",
				i, full[:same], cached[:same])
		}
	}
}

func TestGenerateCachedExactFitMatchesGenerate(t *testing.T) {
	// The equivalence boundary: prefix+maxNew-1 == Ctx still decodes fully
	// in cache and must match Generate token for token; one token more
	// enters the windowed regime and must still emit maxNew tokens.
	m, err := NewModel(Config{Vocab: 24, Ctx: 16, Dim: 16, Heads: 2, Layers: 2, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []int{5, 2, 8, 1}
	fit := m.cfg.Ctx - len(prefix) + 1 // len(prefix)+fit-1 == Ctx
	full := m.Generate(prefix, fit, GenOptions{StopToken: -1})
	cached := m.GenerateCached(prefix, fit, GenOptions{StopToken: -1})
	if len(full) != len(cached) {
		t.Fatalf("exact-fit lengths differ: %v vs %v", full, cached)
	}
	for i := range full {
		if full[i] != cached[i] {
			t.Fatalf("exact-fit outputs differ at %d: %v vs %v", i, full, cached)
		}
	}
	over := m.GenerateCached(prefix, fit+1, GenOptions{StopToken: -1})
	if len(over) != fit+1 {
		t.Fatalf("one past the boundary generated %d tokens, want %d", len(over), fit+1)
	}
}

func TestGenerateCachedStops(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 32, Dim: 8, Heads: 2, Layers: 1, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	out := m.GenerateCached([]int{1, 2}, 10, GenOptions{
		StopToken: -1,
		Stop:      func(g []int) bool { return len(g) >= 3 },
	})
	if len(out) != 3 {
		t.Errorf("stop func ignored: %d tokens", len(out))
	}
}

func BenchmarkGenerateKVCached(b *testing.B) {
	m, _ := NewModel(Config{Vocab: 256, Ctx: 128, Dim: 64, Heads: 4, Layers: 2, Seed: 1})
	prefix := []int{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GenerateCached(prefix, 64, GenOptions{StopToken: -1})
	}
}
