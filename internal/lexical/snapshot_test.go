package lexical

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
	m := build()
	back := roundTrip(t, m)
	if !back.Trained() || back.Pairs() != m.Pairs() {
		t.Fatalf("trained=%v pairs=%d vs %d", back.Trained(), back.Pairs(), m.Pairs())
	}
	for _, prompt := range [][]int{{1}, {2}, {1, 2}, {9}} {
		for tok := 0; tok < 32; tok++ {
			a, b := m.Prob(prompt, tok), back.Prob(prompt, tok)
			if math.Abs(a-b) > 1e-15 {
				t.Fatalf("P(%d|%v): %v != %v", tok, prompt, a, b)
			}
			if math.Abs(m.Affinity(prompt, tok)-back.Affinity(prompt, tok)) > 1e-12 {
				t.Fatalf("affinity differs for %d|%v", tok, prompt)
			}
		}
	}
	back.AddPair([]int{3}, []int{30}) // remains trainable
	if back.Pairs() != m.Pairs()+1 {
		t.Error("reloaded model not trainable")
	}
}

func TestFromSnapshotRejects(t *testing.T) {
	if _, err := FromSnapshot(Snapshot{}); err == nil {
		t.Error("snapshot without a vocabulary accepted")
	}
}

func TestSnapshotEmpty(t *testing.T) {
	m := New(8)
	back := roundTrip(t, m)
	if back.Trained() {
		t.Error("empty model reports trained after reload")
	}
	back.AddPair([]int{1}, []int{2})
	if !back.Trained() {
		t.Error("reloaded empty model not trainable")
	}
}
