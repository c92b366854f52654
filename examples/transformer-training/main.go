// Transformer-training demo: the pure-Go decoder-only transformer (the
// architecture-faithful counterpart of the paper's CodeGen models) trained
// end to end on a small Ansible corpus — tokenizer training, context
// packing with the separator token, the Adam + cosine-schedule training
// loop, perplexity on held-out text, and greedy generation.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"wisdom/internal/corpus"
	"wisdom/internal/neural"
	"wisdom/internal/tokenizer"
)

// firstTaskNameLine returns the first "- name:" line of a role file.
func firstTaskNameLine(text string) string {
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "- name: ") {
			return l
		}
	}
	return "- name: Install nginx"
}

func main() {
	fmt.Println("== training a transformer on Ansible-YAML ==")

	// A deliberately tiny, highly regular corpus (a handful of role files,
	// seen several times per epoch): small enough that the 138k-parameter
	// model can practically memorise the task shape (name -> module ->
	// params) in a couple of hundred CPU training steps.
	r := rand.New(rand.NewSource(3))
	var distinct []string
	for i := 0; i < 8; i++ {
		distinct = append(distinct, corpus.RoleTaskFile(r, corpus.GalaxyStyle))
	}
	var texts []string
	for i := 0; i < 3; i++ {
		texts = append(texts, distinct...)
	}
	heldOut := distinct[0]

	tok, err := tokenizer.Train(texts, 384)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tokenizer: %d entries (256 bytes + %d merges + 3 specials)\n",
		tok.VocabSize(), tok.VocabSize()-259)

	// Pack files into fixed windows exactly like the paper's pre-training.
	// For this miniature run each window is one (truncated) file, so every
	// sequence starts at a task boundary and the positional embeddings see
	// a consistent layout — packing across files needs more capacity than
	// a demo-sized model has.
	const ctx = 96
	var windows [][]int
	for _, text := range texts {
		ids := tok.Encode(text)
		if len(ids) > ctx {
			ids = ids[:ctx]
		}
		windows = append(windows, ids)
	}
	fmt.Printf("prepared %d training sequences of <=%d tokens\n", len(windows), ctx)

	model, err := neural.NewModel(neural.Config{
		Vocab: tok.VocabSize(), Ctx: ctx, Dim: 64, Heads: 4, Layers: 2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d parameters (dim 64, 4 heads, 2 layers)\n\n", model.NumParams())

	held := tok.Encode(heldOut)
	fmt.Printf("held-out perplexity before training: %8.1f\n", model.Perplexity(held))

	loss := model.Train(windows, neural.TrainConfig{
		Epochs: 60, LR: 3e-3, BatchSize: 8, Seed: 5,
		Schedule: neural.CosineDecay,
		Progress: func(step, total int, loss float64) {
			if step%30 == 0 || step == total {
				fmt.Printf("  step %4d/%d  loss %.3f\n", step, total, loss)
			}
		},
	})
	fmt.Printf("final training loss: %.3f\n", loss)
	fmt.Printf("held-out perplexity after training:  %8.1f\n\n", model.Perplexity(held))

	// Greedy completion of a task prefix.
	prefix := "---\n" + firstTaskNameLine(distinct[0]) + "\n"
	ids := tok.Encode(prefix)
	out := model.GenerateCached(ids, 40, neural.GenOptions{StopToken: tok.Sep()})
	fmt.Println("greedy completion of a task prefix:")
	fmt.Printf("%s%s\n", prefix, tok.Decode(out))
}
