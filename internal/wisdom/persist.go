package wisdom

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"

	"wisdom/internal/dataset"
	"wisdom/internal/lexical"
	"wisdom/internal/neural"
	"wisdom/internal/ngram"
	"wisdom/internal/tokenizer"
)

// checkpointVersion is the layout Save writes and the only one LoadModel
// reads: bump it on any change an older reader would misread. No reader for
// earlier layouts is kept (the file before versioning decodes as version 0).
const checkpointVersion = 1

// checkpoint is the one gob value a saved Model is: policy, tokenizer,
// retrieval memory, and an LM section whose Kind says which snapshot fields
// are set (ARCHITECTURE.md, "Checkpoint").
type checkpoint struct {
	Version int

	Name           string
	CtxWindow      int
	Style          int
	FewShotHint    bool
	RetrThreshold  float64
	MaxNewTask     int
	MaxNewPlaybook int

	Tokenizer []byte // tokenizer JSON

	Kind         string            // kindNgram, kindBlend or kindTransformer
	Ngram        *ngram.Snapshot   // ngram: the table; blend: the primary table
	Lex          *lexical.Snapshot // lexical channel of Ngram, nil when it has none
	BaseNgram    *ngram.Snapshot   // blend: the base table
	BaseLex      *lexical.Snapshot // lexical channel of BaseNgram, nil when it has none
	Weight       float64           // blend: interpolation weight of Ngram
	BaseMargin   int               // blend: blendLM.baseMargin
	Interpolated bool              // blend: blendLM.interpolated
	Transformer  *neural.Snapshot  // transformer: what neural.Model.Save writes on its own

	Memory []memoryEntry
}

const (
	kindNgram       = "ngram"
	kindBlend       = "blend"
	kindTransformer = "transformer"
)

// memoryEntry is one example of the retrieval memory: Memory.Add's arguments.
type memoryEntry struct {
	Key, Ctx, Value []int
	Indent          int
}

// Save serialises the whole model — policy fields including the generation
// budgets, tokenizer, retrieval memory and the language model, be it n-gram,
// blend or transformer — as one versioned checkpoint that LoadModel restores.
// Sampling settings (SetSampling) are runtime-only and not saved, nor is an
// attached session cache or scheduler: a loaded model decodes greedily.
func (m *Model) Save(w io.Writer) error {
	cp := checkpoint{
		Version:        checkpointVersion,
		Name:           m.Name,
		CtxWindow:      m.CtxWindow,
		Style:          int(m.Style),
		FewShotHint:    m.FewShotHint,
		RetrThreshold:  m.RetrThreshold,
		MaxNewTask:     m.MaxNewTask,
		MaxNewPlaybook: m.MaxNewPlaybook,
	}
	var err error
	if cp.Tokenizer, err = json.Marshal(m.Tok); err != nil {
		return fmt.Errorf("wisdom: save tokenizer: %w", err)
	}

	switch lm := m.LM.(type) {
	case *NgramLM:
		cp.Kind = kindNgram
		cp.Ngram, cp.Lex = ngramSection(lm.Model, lm.Lex)
	case *blendLM:
		cp.Kind = kindBlend
		cp.Weight, cp.BaseMargin, cp.Interpolated = lm.weight, lm.baseMargin, lm.interpolated
		cp.Ngram, cp.Lex = ngramSection(lm.primary, lm.lexPrimary)
		cp.BaseNgram, cp.BaseLex = ngramSection(lm.base, lm.lexBase)
	case *NeuralLM:
		cp.Kind = kindTransformer
		snap := lm.Model.Snapshot()
		cp.Transformer = &snap
	default:
		return fmt.Errorf("wisdom: no checkpoint section for a %T language model", m.LM)
	}

	if m.Retr != nil {
		for i := 0; i < m.Retr.Len(); i++ {
			e := m.Retr.ix.Entry(i)
			cp.Memory = append(cp.Memory, memoryEntry{
				Key: e.Key, Ctx: bagToSlice(m.Retr.ctxBags[i]), Value: e.Value, Indent: m.Retr.indents[i],
			})
		}
	}
	return gob.NewEncoder(w).Encode(cp)
}

// ngramSection snapshots one n-gram table and its optional lexical channel.
func ngramSection(lm *ngram.Model, lx *lexical.Model) (*ngram.Snapshot, *lexical.Snapshot) {
	ng := lm.Snapshot()
	if lx == nil {
		return &ng, nil
	}
	ls := lx.Snapshot()
	return &ng, &ls
}

func bagToSlice(bag map[int]bool) []int {
	out := make([]int, 0, len(bag))
	for t := range bag {
		out = append(out, t)
	}
	return out
}

// LoadModel restores a model saved by Save. The file comes from outside the
// program, so every section is checked before use: a truncated, hand-edited
// or older-layout checkpoint is an error, never a panic.
func LoadModel(r io.Reader) (*Model, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("wisdom: decode: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("wisdom: checkpoint version %d, want %d — re-save with wisdom-train -save",
			cp.Version, checkpointVersion)
	}
	var tok tokenizer.Tokenizer
	if err := json.Unmarshal(cp.Tokenizer, &tok); err != nil {
		return nil, fmt.Errorf("wisdom: tokenizer: %w", err)
	}
	m := &Model{
		Name:           cp.Name,
		Tok:            &tok,
		CtxWindow:      cp.CtxWindow,
		Style:          dataset.PromptStyle(cp.Style),
		FewShotHint:    cp.FewShotHint,
		RetrThreshold:  cp.RetrThreshold,
		MaxNewTask:     cp.MaxNewTask,
		MaxNewPlaybook: cp.MaxNewPlaybook,
	}

	// Each kind owns exactly its sections; a missing or stray one means the
	// file was cut or edited.
	hasNgram, hasBase, hasTransformer := cp.Ngram != nil, cp.BaseNgram != nil, cp.Transformer != nil
	var err error
	switch {
	case cp.Kind == kindNgram && hasNgram && !hasBase && !hasTransformer:
		lm := &NgramLM{}
		if lm.Model, lm.Lex, err = loadNgramSection(cp.Ngram, cp.Lex); err != nil {
			return nil, err
		}
		m.LM = lm
	case cp.Kind == kindBlend && hasNgram && hasBase && !hasTransformer:
		lm := &blendLM{weight: cp.Weight, baseMargin: cp.BaseMargin, interpolated: cp.Interpolated}
		if lm.primary, lm.lexPrimary, err = loadNgramSection(cp.Ngram, cp.Lex); err != nil {
			return nil, err
		}
		if lm.base, lm.lexBase, err = loadNgramSection(cp.BaseNgram, cp.BaseLex); err != nil {
			return nil, err
		}
		m.LM = lm
	case cp.Kind == kindTransformer && !hasNgram && !hasBase && hasTransformer:
		nm, err := neural.FromSnapshot(*cp.Transformer)
		if err != nil {
			return nil, err
		}
		// The embedding table is indexed by token id.
		if tok.VocabSize() > nm.Config().Vocab {
			return nil, fmt.Errorf("wisdom: tokenizer has %d ids, transformer embeds %d",
				tok.VocabSize(), nm.Config().Vocab)
		}
		m.LM = &NeuralLM{Model: nm}
	default:
		return nil, fmt.Errorf("wisdom: checkpoint kind %q with sections ngram=%t base=%t transformer=%t",
			cp.Kind, hasNgram, hasBase, hasTransformer)
	}

	if len(cp.Memory) > 0 {
		mem := NewMemory()
		for _, e := range cp.Memory {
			mem.Add(e.Key, e.Ctx, e.Value, e.Indent)
		}
		mem.Build()
		m.Retr = mem
	}
	return m, nil
}

// loadNgramSection is ngramSection's inverse.
func loadNgramSection(ng *ngram.Snapshot, ls *lexical.Snapshot) (*ngram.Model, *lexical.Model, error) {
	lm, err := ngram.FromSnapshot(*ng)
	if err != nil || ls == nil {
		return lm, nil, err
	}
	lx, err := lexical.FromSnapshot(*ls)
	return lm, lx, err
}
