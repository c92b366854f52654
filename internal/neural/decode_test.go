package neural

import "testing"

// TestStepBatchMatchesStep feeds the same token streams through the batched
// and the single-row kernels and requires bit-identical logits at every
// position — the property that makes the engine's step batching invisible
// to callers.
func TestStepBatchMatchesStep(t *testing.T) {
	m, err := NewModel(Config{Vocab: 24, Ctx: 16, Dim: 16, Heads: 4, Layers: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	streams := [][]int{
		{3, 14, 1, 5, 9, 2},
		{7, 7, 7, 7, 7, 7},
		{0, 23, 11, 8, 2, 19},
	}
	B := len(streams)

	// Serial reference: one state per stream, single-row steps.
	want := make([][][]float64, B)
	for r, toks := range streams {
		st := m.newGenState()
		for _, tok := range toks {
			logits := st.step(tok)
			want[r] = append(want[r], append([]float64(nil), logits...))
		}
	}

	states := make([]*genState, B)
	for r := range states {
		states[r] = m.newGenState()
	}
	bs := m.newBatchScratch(B)
	toks := make([]int, B)
	for pos := 0; pos < len(streams[0]); pos++ {
		for r := range streams {
			toks[r] = streams[r][pos]
		}
		m.stepBatch(states, toks, bs)
		for r, st := range states {
			for i, v := range st.logits {
				if v != want[r][pos][i] {
					t.Fatalf("row %d pos %d logit %d: batched %v vs serial %v",
						r, pos, i, v, want[r][pos][i])
				}
			}
		}
	}
}
