package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"wisdom/internal/ansible"
	"wisdom/internal/corpus"
	"wisdom/internal/dataset"
	"wisdom/internal/neural"
	"wisdom/internal/tokenizer"
	"wisdom/internal/wisdom"
	"wisdom/internal/yaml"
)

// The pinned reference transformer. Training it takes minutes, so it is
// checked in and embedded; `-train-ref` regenerates the four files.
//
//go:embed testdata/ref-96x4.tok.json testdata/ref-96x4.weights.gob testdata/ref-96x4.pool.json testdata/ref-96x4.manifest.json
var refFS embed.FS

const (
	refName    = "ref-96x4"
	refDir     = "testdata"
	refCtx     = 256
	refDim     = 96
	refHeads   = 4
	refLayers  = 4
	refVocab   = 512
	refMaxNew  = 80 // generation budget; leaves 176 prompt tokens for context and name line
	refMaxTask = 72 // token cap per pool task, so its body fits the generation budget
	refPool    = 64
)

// refRecipe is everything `-train-ref` derives the checkpoint from. Changing
// any field changes the weights, so the manifest records it beside the hashes.
type refRecipe struct {
	Seed        int64   `json:"seed"`
	GalaxyFiles int     `json:"galaxy_files"`
	PoolSize    int     `json:"pool_size"`
	MaxTaskToks int     `json:"max_task_tokens"`
	Variants    int     `json:"context_variants_per_task"`
	TruncEvery  int     `json:"truncated_name_every"`
	SepShare    float64 `json:"sep_between_tasks_share"`
	Epochs      int     `json:"epochs"`
	LR          float64 `json:"lr"`
	BatchSize   int     `json:"batch_size"`
	ClipNorm    float64 `json:"clip_norm"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
}

var defaultRecipe = refRecipe{
	Seed: 11, GalaxyFiles: 100, PoolSize: refPool, MaxTaskToks: refMaxTask,
	Variants: 24, TruncEvery: 3, SepShare: 0.7, Epochs: 6, LR: 3e-3, BatchSize: 8, ClipNorm: 1,
	GOMAXPROCS: 2,
}

// poolTask is one memorised NL→T task: the prompt (task name), the body the
// model was trained to write after it, and the serial Predict answer with an
// empty context at the time the checkpoint was made.
type poolTask struct {
	Prompt string `json:"prompt"`
	Body   string `json:"body"`
	Golden string `json:"golden"`
}

// text is the task as it stands in a role file at indent 0.
func (t poolTask) text() string { return "- name: " + t.Prompt + "\n" + t.Body }

type refManifest struct {
	Model  string            `json:"model"`
	Config neural.Config     `json:"config"`
	Recipe refRecipe         `json:"recipe"`
	SHA256 map[string]string `json:"sha256"`
	// PoolMatch is the share of pool tasks the transformer alone (no memory
	// fallback) reproduces byte for byte from an empty context; CtxMatch the
	// same behind one to three other pool tasks.
	PoolMatch float64 `json:"pool_match_share"`
	CtxMatch  float64 `json:"context_match_share"`
}

// refData is the decoded checkpoint; models are assembled from it per replica
// so that each replica owns its weights like a separate process would.
type refData struct {
	tokJSON  []byte
	weights  []byte
	pool     []poolTask
	manifest refManifest
}

func refFile(suffix string) string { return refDir + "/" + refName + "." + suffix }

// loadRefData reads the embedded checkpoint files.
func loadRefData() (*refData, error) {
	d := &refData{}
	var err error
	if d.tokJSON, err = refFS.ReadFile(refFile("tok.json")); err != nil {
		return nil, err
	}
	if d.weights, err = refFS.ReadFile(refFile("weights.gob")); err != nil {
		return nil, err
	}
	poolJSON, err := refFS.ReadFile(refFile("pool.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(poolJSON, &d.pool); err != nil {
		return nil, fmt.Errorf("decode task pool: %w", err)
	}
	manJSON, err := refFS.ReadFile(refFile("manifest.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(manJSON, &d.manifest); err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	for suffix, raw := range map[string][]byte{"tok.json": d.tokJSON, "weights.gob": d.weights, "pool.json": poolJSON} {
		if got, want := sha256Hex(raw), d.manifest.SHA256[refName+"."+suffix]; got != want {
			return nil, fmt.Errorf("%s: sha256 %s does not match the manifest's %s; rerun -train-ref", refFile(suffix), got, want)
		}
	}
	return d, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newModel decodes one independent copy of the reference model.
func (d *refData) newModel() (*wisdom.Model, error) {
	tok := new(tokenizer.Tokenizer)
	if err := json.Unmarshal(d.tokJSON, tok); err != nil {
		return nil, fmt.Errorf("decode tokenizer: %w", err)
	}
	nm, err := neural.Load(bytes.NewReader(d.weights))
	if err != nil {
		return nil, err
	}
	return assembleRef(tok, nm, d.pool), nil
}

// assembleRef wraps the transformer as the wisdom.Model a replica serves. The
// nearest-neighbour memory holds the training pool, as a fine-tuned Wisdom
// model's does, but its direct-hit threshold is out of reach so every request
// decodes on the transformer; the memory only backs Predict's
// invalid-body fallback (the "replaced" path).
func assembleRef(tok *tokenizer.Tokenizer, nm *neural.Model, pool []poolTask) *wisdom.Model {
	mem := wisdom.NewMemory()
	for _, t := range pool {
		mem.Add(tok.Encode(strings.ToLower(t.Prompt)), nil, tok.Encode(t.Body), 0)
	}
	mem.Build()
	return &wisdom.Model{
		Name:          refName,
		Tok:           tok,
		LM:            &wisdom.NeuralLM{Model: nm},
		Retr:          mem,
		RetrThreshold: 2,
		CtxWindow:     nm.Config().Ctx,
		Style:         dataset.NameCompletion,
		MaxNewTask:    refMaxNew,
	}
}

// schemaCorrect is the paper's Schema Correct check on one served suggestion.
func schemaCorrect(suggestion string) bool {
	node, err := yaml.Parse(suggestion)
	return err == nil && ansible.NewValidator().Valid(node)
}

// buildPool draws the task pool from the Galaxy-sim crawl: unique prompts,
// schema-correct, at most MaxTaskToks tokens each, and spread evenly over the
// lengths that leaves so that bodies run from one line to eight.
func buildPool(r refRecipe) ([]poolTask, *tokenizer.Tokenizer, error) {
	var cands []poolTask
	seen := map[string]bool{}
	for _, s := range dataset.ExtractAll(corpus.Galaxy(r.Seed, r.GalaxyFiles)) {
		if s.Type != dataset.NLtoT && s.Type != dataset.TNLtoT {
			continue
		}
		key := strings.ToLower(s.Prompt)
		t := poolTask{Prompt: s.Prompt, Body: s.Target}
		if seen[key] || !strings.HasPrefix(s.NameLine, "- name: ") || !schemaCorrect(t.text()) {
			continue
		}
		seen[key] = true
		cands = append(cands, t)
	}
	texts := make([]string, len(cands))
	for i, t := range cands {
		texts[i] = t.text()
	}
	tok, err := tokenizer.Train(texts, refVocab)
	if err != nil {
		return nil, nil, err
	}
	if tok.VocabSize() != refVocab {
		return nil, nil, fmt.Errorf("tokenizer stopped at %d entries, want %d: enlarge galaxy_files", tok.VocabSize(), refVocab)
	}
	var short []poolTask
	for _, t := range cands {
		if len(tok.Encode(t.text())) <= r.MaxTaskToks {
			short = append(short, t)
		}
	}
	if len(short) < r.PoolSize {
		return nil, nil, fmt.Errorf("only %d of %d candidate tasks fit %d tokens", len(short), len(cands), r.MaxTaskToks)
	}
	sort.SliceStable(short, func(i, j int) bool {
		return len(tok.Encode(short[i].text())) < len(tok.Encode(short[j].text()))
	})
	pool := make([]poolTask, r.PoolSize)
	for i := range pool {
		pool[i] = short[i*(len(short)-1)/(r.PoolSize-1)]
	}
	return pool, tok, nil
}

// trainingSeqs renders every pool task behind `variants` different contexts
// of 0–3 other pool tasks, fewer where the window is too short. Every
// TruncEvery-th variant cuts the task name to a quarter, a half or three
// quarters, the prefixes an editor sends while the name is being typed, so
// the model answers those with a body too. A separator follows the target task always and a
// context task with probability sepShare, so that after a body the model
// prefers the stop token while still seeing separator-free contexts, which is
// what a client sends.
func trainingSeqs(pool []poolTask, tok *tokenizer.Tokenizer, r refRecipe) [][]int {
	rng := rand.New(rand.NewSource(r.Seed))
	var seqs [][]int
	for v := 0; v < r.Variants; v++ {
		for i, t := range pool {
			typed := t
			if r.TruncEvery > 0 && v%r.TruncEvery == r.TruncEvery-1 {
				typed.Prompt = t.Prompt[:typedLen(t.Prompt, 1+(v/r.TruncEvery)%(keystrokesPerTask-1))]
			}
			target := append(tok.Encode(typed.text()), tok.Sep())
			var ids []int
			for _, j := range pickOthers(rng, len(pool), i, v%4) {
				more := tok.Encode(pool[j].text())
				if rng.Float64() < r.SepShare {
					more = append(more, tok.Sep())
				}
				if len(ids)+len(more)+len(target) > refCtx {
					break
				}
				ids = append(ids, more...)
			}
			seqs = append(seqs, append(ids, target...))
		}
	}
	return seqs
}

// typedLen is how many bytes of name an editor has typed after the given
// keystroke, of keystrokesPerTask: at least one byte per keystroke.
func typedLen(name string, keystroke int) int {
	n := len(name) * keystroke / keystrokesPerTask
	if n < keystroke {
		n = keystroke
	}
	if n > len(name) {
		n = len(name)
	}
	return n
}

// pickOthers returns k distinct indices in [0,n) other than self.
func pickOthers(rng *rand.Rand, n, self, k int) []int {
	var out []int
	for len(out) < k {
		j := rng.Intn(n)
		if j == self || slices.Contains(out, j) {
			continue
		}
		out = append(out, j)
	}
	return out
}

// trainRef regenerates the checkpoint under dir from the recipe. Gradient
// sums depend on the worker count, so GOMAXPROCS is part of the recipe.
func trainRef(dir string, r refRecipe, progress func(string)) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.GOMAXPROCS))
	pool, tok, err := buildPool(r)
	if err != nil {
		return err
	}
	cfg := neural.Config{Vocab: tok.VocabSize(), Ctx: refCtx, Dim: refDim, Heads: refHeads, Layers: refLayers, Seed: r.Seed}
	nm, err := neural.NewModel(cfg)
	if err != nil {
		return err
	}
	seqs := trainingSeqs(pool, tok, r)
	progress(fmt.Sprintf("training %s: %d params, %d sequences, %d epochs", refName, nm.NumParams(), len(seqs), r.Epochs))
	perEpoch := (len(seqs) + r.BatchSize - 1) / r.BatchSize
	loss := nm.Train(seqs, neural.TrainConfig{
		Epochs: r.Epochs, LR: r.LR, BatchSize: r.BatchSize, Seed: r.Seed,
		Schedule: neural.CosineDecay, ClipNorm: r.ClipNorm,
		Progress: func(step, total int, loss float64) {
			if step%perEpoch == 0 {
				progress(fmt.Sprintf("  epoch %d/%d loss %.4f", step/perEpoch, total/perEpoch, loss))
			}
		},
	})
	progress(fmt.Sprintf("final epoch loss %.4f", loss))

	model := assembleRef(tok, nm, pool)
	// Memorisation is judged without the memory, whose fallback would hide
	// every body the transformer gets wrong.
	bare := *model
	bare.Retr = nil
	matched, ctxMatched := 0, 0
	u := &universe{tasks: pool, tok: tok, budget: refCtx - refMaxNew}
	rng := rand.New(rand.NewSource(r.Seed + 1))
	for i := range pool {
		pool[i].Golden = model.Predict("", pool[i].Prompt)
		if bare.Predict("", pool[i].Prompt) == pool[i].text() {
			matched++
		}
		ctx := u.render(pickOthers(rng, len(pool), i, 1+i%3), pool[i].Prompt)
		if bare.Predict(ctx, pool[i].Prompt) == pool[i].text() {
			ctxMatched++
		}
	}
	var weights bytes.Buffer
	if err := nm.Save(&weights); err != nil {
		return err
	}
	tokJSON, err := json.Marshal(tok)
	if err != nil {
		return err
	}
	poolJSON, err := json.MarshalIndent(pool, "", " ")
	if err != nil {
		return err
	}
	man := refManifest{Model: refName, Config: cfg, Recipe: r, SHA256: map[string]string{},
		PoolMatch: float64(matched) / float64(len(pool)), CtxMatch: float64(ctxMatched) / float64(len(pool))}
	files := map[string][]byte{"tok.json": tokJSON, "weights.gob": weights.Bytes(), "pool.json": poolJSON}
	for suffix, raw := range files {
		man.SHA256[refName+"."+suffix] = sha256Hex(raw)
	}
	manJSON, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return err
	}
	files["manifest.json"] = append(manJSON, '\n')
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(files))
	for suffix := range files {
		names = append(names, suffix)
	}
	sort.Strings(names)
	for _, suffix := range names {
		path := filepath.Join(dir, refName+"."+suffix)
		if err := os.WriteFile(path, files[suffix], 0o644); err != nil {
			return err
		}
		progress(fmt.Sprintf("wrote %s (%d bytes)", path, len(files[suffix])))
	}
	progress(fmt.Sprintf("pool tasks reproduced byte for byte: %d of %d alone, %d behind a context", matched, len(pool), ctxMatched))
	return nil
}
