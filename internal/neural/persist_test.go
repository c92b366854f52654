package neural

import (
	"bytes"
	"math"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainedPatternModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 2, 3, 4, 5}
	if a, b := m.Loss(seq, nil), back.Loss(seq, nil); math.Abs(a-b) > 1e-12 {
		t.Errorf("loss after reload %v != %v", b, a)
	}
	ga := m.GenerateCached([]int{1, 2}, 4, GenOptions{StopToken: -1})
	gb := back.GenerateCached([]int{1, 2}, 4, GenOptions{StopToken: -1})
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("generation changed after reload: %v vs %v", ga, gb)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage accepted")
	}
}
