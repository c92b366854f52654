package lexical

import "fmt"

// Snapshot is the plain-data form of a Model that the wisdom checkpoint
// embeds: the model's fields under exported names.
type Snapshot struct {
	Vocab   int
	Counts  map[int]map[int]int
	Totals  map[int]int
	Unigram map[int]int
	UniTot  int
}

// Snapshot returns the model's tables as plain data. The maps are shared
// with the model, not copied: encode the snapshot, do not modify it.
func (m *Model) Snapshot() Snapshot {
	return Snapshot{
		Vocab:   m.vocab,
		Counts:  m.counts,
		Totals:  m.totals,
		Unigram: m.unigram,
		UniTot:  m.uniTot,
	}
}

// FromSnapshot rebuilds a model from its snapshot, taking ownership of the
// snapshot's maps. The result is trainable like any other model.
func FromSnapshot(snap Snapshot) (*Model, error) {
	if snap.Vocab < 1 {
		return nil, fmt.Errorf("lexical: invalid vocabulary size %d", snap.Vocab)
	}
	m := New(snap.Vocab)
	if snap.Counts != nil {
		m.counts = snap.Counts
	}
	if snap.Totals != nil {
		m.totals = snap.Totals
	}
	if snap.Unigram != nil {
		m.unigram = snap.Unigram
	}
	m.uniTot = snap.UniTot
	return m, nil
}
