package neural

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot is the plain-data form of a model: its architecture plus every
// parameter tensor in registration order. It is both the section the wisdom
// checkpoint embeds and, gob-encoded on its own by Save, the standalone
// weights file (the field names are that file's wire format — keep them).
type Snapshot struct {
	Cfg     Config
	Weights [][]float64
}

// Snapshot returns the model's architecture and weights as plain data. The
// tensors are shared with the model, not copied: encode the snapshot, do not
// modify it. Optimizer state is not part of it; training can resume with a
// fresh Adam.
func (m *Model) Snapshot() Snapshot {
	snap := Snapshot{Cfg: m.cfg}
	for _, p := range m.params {
		snap.Weights = append(snap.Weights, p.W)
	}
	return snap
}

// FromSnapshot rebuilds a model from its snapshot, rejecting a snapshot
// whose tensor count or any tensor's size does not match the architecture.
func FromSnapshot(snap Snapshot) (*Model, error) {
	m, err := NewModel(snap.Cfg)
	if err != nil {
		return nil, err
	}
	if len(snap.Weights) != len(m.params) {
		return nil, fmt.Errorf("neural: snapshot has %d tensors, model needs %d",
			len(snap.Weights), len(m.params))
	}
	for i, w := range snap.Weights {
		if len(w) != len(m.params[i].W) {
			return nil, fmt.Errorf("neural: tensor %s has %d weights, want %d",
				m.params[i].Name, len(w), len(m.params[i].W))
		}
		copy(m.params[i].W, w)
	}
	return m, nil
}

// Save writes the model's Snapshot on its own with encoding/gob: the
// standalone form of the transformer section of a wisdom checkpoint.
func (m *Model) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m.Snapshot())
}

// Load restores a model saved by Save.
func Load(r io.Reader) (*Model, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("neural: decode: %w", err)
	}
	return FromSnapshot(snap)
}
