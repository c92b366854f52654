package neural

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentDecodePathsMatchSerial is the serving contract for this
// package: after training, a *Model is immutable, so any number of
// goroutines may decode through the full-forward oracle and the KV-cached
// path at once. Run under -race, this also proves no decode path touches
// shared mutable state (each GenerateCached call allocates its own genState;
// each sampling call owns its own rand.Rand).
func TestConcurrentDecodePathsMatchSerial(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 32, Dim: 16, Heads: 2, Layers: 2, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := [][]int{{7, 3, 11, 2}, {5, 6}, {1}, {9, 8, 7, 6, 5}}

	type decoded struct{ greedy, cached, sampled []int }
	decode := func(prefix []int, seed int64) decoded {
		return decoded{
			greedy: m.Generate(prefix, 8, GenOptions{StopToken: -1}),
			cached: m.GenerateCached(prefix, 8, GenOptions{StopToken: -1}),
			sampled: m.GenerateCached(prefix, 8, GenOptions{
				Temperature: 0.9, TopK: 6, StopToken: -1,
				Rand: rand.New(rand.NewSource(seed)),
			}),
		}
	}

	want := make([]decoded, len(prefixes))
	for i, p := range prefixes {
		want[i] = decode(p, int64(i))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := (w + rep) % len(prefixes)
				got := decode(prefixes[i], int64(i))
				assertSeq(t, "greedy", got.greedy, want[i].greedy)
				assertSeq(t, "cached", got.cached, want[i].cached)
				assertSeq(t, "sampled", got.sampled, want[i].sampled)
			}
		}(w)
	}
	wg.Wait()
}

func assertSeq(t *testing.T, path string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: concurrent %v != serial %v", path, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: concurrent %v != serial %v", path, got, want)
			return
		}
	}
}

// TestConcurrentLossReads covers the evaluation path the experiments
// package fans out across goroutines.
func TestConcurrentLossReads(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 12, Dim: 8, Heads: 2, Layers: 1, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 2, 3, 4, 5, 6}
	want := m.Loss(seq, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := m.Loss(seq, nil); got != want {
					t.Errorf("concurrent loss %v != serial %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
