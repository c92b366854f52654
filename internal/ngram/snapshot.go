package ngram

import "fmt"

// Snapshot is the plain-data form of a Model that the wisdom checkpoint
// embeds: order, vocabulary and the per-level context tables flattened to
// exported types. The total of each context is recomputed on the way back.
type Snapshot struct {
	Order     int
	VocabSize int
	// Levels[k] maps packed contexts of length k to continuation counts.
	Levels []map[string]map[int]int
}

// Snapshot returns the model's tables as plain data. The count maps are
// shared with the model, not copied: encode the snapshot, do not modify it.
func (m *Model) Snapshot() Snapshot {
	snap := Snapshot{Order: m.order, VocabSize: m.vocabSize}
	for _, level := range m.ctx {
		flat := make(map[string]map[int]int, len(level))
		for key, c := range level {
			flat[key] = c.counts
		}
		snap.Levels = append(snap.Levels, flat)
	}
	return snap
}

// FromSnapshot rebuilds a model from its snapshot, taking ownership of the
// snapshot's count maps. The result is trainable like any other model.
func FromSnapshot(snap Snapshot) (*Model, error) {
	m, err := New(snap.Order, snap.VocabSize)
	if err != nil {
		return nil, err
	}
	if len(snap.Levels) != snap.Order {
		return nil, fmt.Errorf("ngram: snapshot has %d levels, order %d", len(snap.Levels), snap.Order)
	}
	for k, flat := range snap.Levels {
		level := make(map[string]*continuations, len(flat))
		for key, counts := range flat {
			c := &continuations{counts: counts}
			for _, n := range counts {
				c.total += n
			}
			level[key] = c
		}
		m.ctx[k] = level
	}
	// Restore the unigram alias.
	if c, ok := m.ctx[0][""]; ok {
		m.unigram = c
	} else {
		m.ctx[0][""] = m.unigram
	}
	return m, nil
}
