package neural

import (
	"testing"
)

// TestOnTokenMatchesOutput: the streaming hook receives exactly the
// returned tokens, in order, on both decode paths — streaming observes the
// generation, it never changes it.
func TestOnTokenMatchesOutput(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 32, Dim: 16, Heads: 2, Layers: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []int{1, 2, 3}

	var seen []int
	opts := GenOptions{OnToken: func(tok int) { seen = append(seen, tok) }}
	out := m.GenerateCached(prefix, 12, opts)
	if len(out) == 0 {
		t.Fatal("no tokens generated")
	}
	if len(seen) != len(out) {
		t.Fatalf("hook saw %d tokens, output has %d", len(seen), len(out))
	}
	for i := range out {
		if seen[i] != out[i] {
			t.Fatalf("hook token %d = %d, output %d", i, seen[i], out[i])
		}
	}

	// The hook must not perturb the generation relative to a hook-less run.
	plain := m.GenerateCached(prefix, 12, GenOptions{})
	if len(plain) != len(out) {
		t.Fatalf("hooked run length %d != plain %d", len(out), len(plain))
	}
	for i := range out {
		if plain[i] != out[i] {
			t.Fatalf("hooked generation diverged at %d", i)
		}
	}
}

// TestOnTokenWindowedDecode covers the hook through the overflow regime,
// where the cache re-primes mid-generation.
func TestOnTokenWindowedDecode(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 12, Dim: 8, Heads: 2, Layers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	out := m.GenerateCached([]int{1, 2, 3, 4}, 20, GenOptions{
		OnToken: func(tok int) { seen = append(seen, tok) },
	})
	if len(seen) != len(out) {
		t.Fatalf("hook saw %d tokens across re-primes, output has %d", len(seen), len(out))
	}
	for i := range out {
		if seen[i] != out[i] {
			t.Fatalf("windowed hook token %d = %d, output %d", i, seen[i], out[i])
		}
	}
}

// TestGenerateCancel: closing the cancel channel stops the decode early,
// with the tokens produced so far observed by the hook.
func TestGenerateCancel(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 32, Dim: 16, Heads: 2, Layers: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	var seen []int
	out := m.GenerateCached([]int{1, 2, 3}, 20, GenOptions{
		Cancel: cancel,
		OnToken: func(tok int) {
			seen = append(seen, tok)
			if len(seen) == 3 {
				close(cancel)
			}
		},
	})
	if len(out) >= 20 {
		t.Fatalf("cancel ignored: %d tokens generated", len(out))
	}
	if len(out) < 3 {
		t.Fatalf("decode stopped before the cancelling token: %d", len(out))
	}
	if len(seen) != len(out) {
		t.Fatalf("hook saw %d, output %d", len(seen), len(out))
	}
}

// TestGenerateCancelBeforeStart: a pre-closed channel aborts before any
// token is produced, including during prefix priming.
func TestGenerateCancelBeforeStart(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 16, Dim: 8, Heads: 2, Layers: 1, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	if out := m.GenerateCached([]int{1, 2, 3}, 10, GenOptions{Cancel: cancel}); len(out) != 0 {
		t.Fatalf("pre-cancelled generation produced %d tokens", len(out))
	}
	if out := m.Generate([]int{1, 2, 3}, 10, GenOptions{Cancel: cancel}); len(out) != 0 {
		t.Fatalf("pre-cancelled Generate produced %d tokens", len(out))
	}
}
