package ngram

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// roundTrip sends the model's snapshot through gob, the way the wisdom
// checkpoint carries it, and rebuilds a model from what arrives.
func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := trainToy(t, 3)
	back := roundTrip(t, m)
	if back.Order() != m.Order() || back.VocabSize() != m.VocabSize() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.Order(), back.VocabSize(), m.Order(), m.VocabSize())
	}
	if back.Contexts() != m.Contexts() {
		t.Errorf("contexts %d != %d", back.Contexts(), m.Contexts())
	}
	// Probabilities identical for a spread of contexts/tokens.
	contexts := [][]int{{}, {1}, {1, 2}, {9, 9}}
	for _, ctx := range contexts {
		for tok := 0; tok < 10; tok++ {
			a, b := m.Prob(ctx, tok), back.Prob(ctx, tok)
			if math.Abs(a-b) > 1e-15 {
				t.Fatalf("P(%d|%v): %v != %v", tok, ctx, a, b)
			}
		}
	}
	// Generation identical.
	ga := m.Generate([]int{1, 2}, 5, GenOptions{StopToken: -1})
	gb := back.Generate([]int{1, 2}, 5, GenOptions{StopToken: -1})
	if len(ga) != len(gb) {
		t.Fatalf("generation lengths differ: %v vs %v", ga, gb)
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("generation differs: %v vs %v", ga, gb)
		}
	}
	// The reloaded model remains trainable.
	back.Add([]int{5, 6, 7})
	if back.Contexts() <= m.Contexts() {
		t.Error("reloaded model did not accept new counts")
	}
}

func TestFromSnapshotRejects(t *testing.T) {
	for name, snap := range map[string]Snapshot{
		"zero value":     {},
		"no vocabulary":  {Order: 2, Levels: make([]map[string]map[int]int, 2)},
		"missing levels": {Order: 3, VocabSize: 5, Levels: make([]map[string]map[int]int, 2)},
	} {
		if _, err := FromSnapshot(snap); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotEmptyModel(t *testing.T) {
	m, err := New(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if p := back.Prob(nil, 1); math.Abs(p-0.2) > 1e-12 {
		t.Errorf("empty model prob = %v, want uniform 0.2", p)
	}
	back.Add([]int{1, 2, 3}) // must not panic (unigram alias restored)
	if back.Contexts() == 0 {
		t.Error("reloaded empty model not trainable")
	}
}
