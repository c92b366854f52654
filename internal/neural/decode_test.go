package neural

import "testing"

// TestCachedBeamMatchesUncached pins the cached beam decoder to the
// full-forward reference across widths, length penalties, and stop tokens.
// Both run on a trained model so logit ties (which the bounded top-k must
// break exactly like the reference's stable sort) are exercised on a
// realistic distribution.
func TestCachedBeamMatchesUncached(t *testing.T) {
	m := trainedPatternModel(t)
	prefixes := [][]int{{1}, {1, 2, 3}, {4, 5}}
	for _, width := range []int{1, 2, 4, 6} {
		for _, penalty := range []float64{0, 0.7} {
			for _, stop := range []int{-1, 5} {
				for _, prefix := range prefixes {
					maxNew := m.cfg.Ctx - len(prefix) + 1 // deepest in-cache request
					opts := BeamOptions{Width: width, LengthPenalty: penalty, StopToken: stop}
					want := m.beamFullForward(prefix, maxNew, opts)
					got := m.beamCached(prefix, maxNew, opts)
					if len(got) != len(want) {
						t.Fatalf("w=%d p=%v stop=%d prefix=%v: cached %v vs uncached %v",
							width, penalty, stop, prefix, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("w=%d p=%v stop=%d prefix=%v: cached %v vs uncached %v",
								width, penalty, stop, prefix, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBeamTruncationEdge checks the dispatch boundary: the deepest request
// that fits the cache decodes on the cached path, one token more falls back
// to the full-forward path, and both agree with the reference at the edge.
func TestBeamTruncationEdge(t *testing.T) {
	m := trainedPatternModel(t)
	prefix := []int{1, 2, 3}
	opts := BeamOptions{Width: 4, StopToken: -1}
	fit := m.cfg.Ctx - len(prefix) + 1
	for _, maxNew := range []int{fit, fit + 1, fit + 4} {
		want := m.beamFullForward(prefix, maxNew, opts)
		got := m.GenerateBeam(prefix, maxNew, opts)
		if len(got) != len(want) {
			t.Fatalf("maxNew=%d: %v vs reference %v", maxNew, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("maxNew=%d: %v vs reference %v", maxNew, got, want)
			}
		}
	}
}

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
