package neural

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// TrainConfig controls a training run.
type TrainConfig struct {
	// Epochs over the training sequences.
	Epochs int
	// LR is the peak learning rate (the paper uses 5e-5 for its scale; the
	// tiny models here train well around 1e-3..3e-3).
	LR float64
	// Schedule shapes the learning rate over steps; nil means constant.
	Schedule Schedule
	// BatchSize is the number of sequences per optimizer step.
	BatchSize int
	// Seed shuffles the data deterministically.
	Seed int64
	// WeightDecay enables decoupled (AdamW-style) weight decay.
	WeightDecay float64
	// ClipNorm clips the global gradient norm before each step (0 = off).
	ClipNorm float64
	// Progress, when non-nil, receives (step, totalSteps, loss).
	Progress func(step, total int, loss float64)
}

// Train fits the model to token sequences with next-token prediction. Each
// sequence is truncated to the context length. It returns the mean loss of
// the final epoch.
func (m *Model) Train(seqs [][]int, cfg TrainConfig) float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.Schedule == nil {
		cfg.Schedule = ConstantLR
	}
	opt := NewAdam(m.params)
	opt.WeightDecay = cfg.WeightDecay
	opt.ClipNorm = cfg.ClipNorm
	r := rand.New(rand.NewSource(cfg.Seed))

	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	stepsPerEpoch := (len(seqs) + cfg.BatchSize - 1) / cfg.BatchSize
	total := stepsPerEpoch * cfg.Epochs
	step := 0
	lastEpochLoss := 0.0
	for ep := 0; ep < cfg.Epochs; ep++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, epochN := 0.0, 0
		for at := 0; at < len(order); at += cfg.BatchSize {
			end := at + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			var batchStart time.Time
			if m.obs != nil {
				batchStart = time.Now()
			}
			batchLoss, n := m.batchGrad(seqs, order[at:end])
			if n == 0 {
				continue
			}
			// Average accumulated gradients over the batch.
			inv := 1 / float64(n)
			for _, p := range m.params {
				for i := range p.G {
					p.G[i] *= inv
				}
			}
			var stepStart time.Time
			if m.obs != nil {
				stepStart = time.Now()
			}
			opt.Step(cfg.LR * cfg.Schedule(step, total))
			step++
			if m.obs != nil {
				now := time.Now()
				m.obs.OptStep.Observe(now.Sub(stepStart).Seconds())
				toks := 0
				for _, idx := range order[at:end] {
					if s := clipSeq(seqs[idx], m.cfg.Ctx); s != nil {
						toks += len(s)
					}
				}
				m.obs.TrainTokens.Add(toks)
				if elapsed := now.Sub(batchStart).Seconds(); elapsed > 0 {
					m.obs.TrainTokensPerSec.Set(float64(toks) / elapsed)
				}
			}
			batchLoss /= float64(n)
			epochLoss += batchLoss
			epochN++
			if cfg.Progress != nil {
				cfg.Progress(step, total, batchLoss)
			}
		}
		if epochN > 0 {
			lastEpochLoss = epochLoss / float64(epochN)
		}
	}
	return lastEpochLoss
}

// batchGrad accumulates gradients for one batch of sequences, running the
// per-sequence forward/backward passes in parallel across CPU cores (the
// data parallelism the paper gets from its 16 GPUs). Each worker owns a
// private gradient buffer that is summed into the model's accumulators when
// all workers finish.
func (m *Model) batchGrad(seqs [][]int, batch []int) (loss float64, n int) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for _, idx := range batch {
			seq := clipSeq(seqs[idx], m.cfg.Ctx)
			if seq == nil {
				continue
			}
			loss += m.lossAndBackward(seq, nil)
			n++
		}
		return loss, n
	}

	type result struct {
		loss  float64
		n     int
		grads [][]float64
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A shadow model shares weights but owns private gradients.
			shadow := m.shadowForGrads()
			res := result{grads: make([][]float64, len(shadow.params))}
			for i, p := range shadow.params {
				res.grads[i] = p.G
			}
			// Static round-robin assignment keeps runs bit-reproducible:
			// each worker always sums the same sequences in the same
			// order, and workers merge in index order below.
			for i := w; i < len(batch); i += workers {
				seq := clipSeq(seqs[batch[i]], m.cfg.Ctx)
				if seq == nil {
					continue
				}
				res.loss += shadow.lossAndBackward(seq, nil)
				res.n++
			}
			results[w] = res
		}(w)
	}
	wg.Wait()

	for _, res := range results {
		if res.n == 0 {
			continue
		}
		loss += res.loss
		n += res.n
		for i, g := range res.grads {
			dst := m.params[i].G
			for j, v := range g {
				dst[j] += v
			}
		}
	}
	return loss, n
}

// clipSeq truncates to the context length and rejects too-short sequences.
func clipSeq(seq []int, ctx int) []int {
	if len(seq) > ctx {
		seq = seq[:ctx]
	}
	if len(seq) < 2 {
		return nil
	}
	return seq
}

// shadowForGrads returns a model view sharing every weight slice with m but
// holding freshly allocated gradient buffers, so concurrent backward passes
// never write to shared memory.
func (m *Model) shadowForGrads() *Model {
	shadow := &Model{cfg: m.cfg, obs: m.obs}
	clone := func(p *Param) *Param {
		np := &Param{Name: p.Name, W: p.W, G: make([]float64, len(p.G))}
		shadow.params = append(shadow.params, np)
		return np
	}
	shadow.tokEmb = clone(m.tokEmb)
	shadow.posEmb = clone(m.posEmb)
	for _, b := range m.blocks {
		shadow.blocks = append(shadow.blocks, &block{
			ln1g: clone(b.ln1g), ln1b: clone(b.ln1b),
			wq: clone(b.wq), wk: clone(b.wk), wv: clone(b.wv), wo: clone(b.wo),
			ln2g: clone(b.ln2g), ln2b: clone(b.ln2b),
			w1: clone(b.w1), b1: clone(b.b1), w2: clone(b.w2), b2: clone(b.b2),
		})
	}
	shadow.lnfg = clone(m.lnfg)
	shadow.lnfb = clone(m.lnfb)
	return shadow
}

// GenOptions control decoding; the zero value is greedy decoding with no
// stop token.
type GenOptions struct {
	// Temperature > 0 with Rand non-nil enables sampling.
	Temperature float64
	// TopK restricts sampling to the k most probable tokens (0 = all).
	TopK int
	// StopToken halts generation when emitted (-1 disables; 0 is a valid
	// token id, so the zero value also disables stopping on token 0 only
	// if the vocabulary reserves id 0; set explicitly when needed).
	StopToken int
	// Stop halts generation when it returns true for the emitted tokens.
	Stop func(generated []int) bool
	// Rand supplies randomness; nil forces greedy decoding.
	Rand *rand.Rand
	// OnToken, when set, receives every generated token id the moment it is
	// chosen — before the next decode step runs — so callers can stream
	// output while generation is still in flight. The hook runs on the
	// decoding goroutine and must not block; it never changes which tokens
	// are produced (streamed and buffered output are identical).
	OnToken func(tok int)
	// Cancel, when non-nil, aborts generation as soon as it is closed: the
	// decode loop checks it before every step and returns the tokens
	// produced so far. This is how a dropped client connection stops an
	// in-flight generation from burning a worker slot.
	Cancel <-chan struct{}
}

// cancelled reports whether the options' cancel channel has been closed.
func (o *GenOptions) cancelled() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

// pickToken chooses the next token from logits.
func pickToken(logits []float64, opts GenOptions) int {
	if opts.Rand == nil || opts.Temperature <= 0 {
		best, bestV := 0, math.Inf(-1)
		for i, l := range logits {
			if l > bestV {
				best, bestV = i, l
			}
		}
		return best
	}
	type cand struct {
		tok int
		l   float64
	}
	cands := make([]cand, len(logits))
	for i, l := range logits {
		cands[i] = cand{i, l}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].l > cands[j].l })
	if opts.TopK > 0 && len(cands) > opts.TopK {
		cands = cands[:opts.TopK]
	}
	maxl := cands[0].l
	sum := 0.0
	ws := make([]float64, len(cands))
	for i, c := range cands {
		w := math.Exp((c.l - maxl) / opts.Temperature)
		ws[i] = w
		sum += w
	}
	r := opts.Rand.Float64() * sum
	for i, w := range ws {
		r -= w
		if r <= 0 {
			return cands[i].tok
		}
	}
	return cands[len(cands)-1].tok
}

// Perplexity evaluates exp(mean cross-entropy) on a held-out sequence.
func (m *Model) Perplexity(tokens []int) float64 {
	if len(tokens) < 2 {
		return math.Inf(1)
	}
	if len(tokens) > m.cfg.Ctx {
		tokens = tokens[:m.cfg.Ctx]
	}
	return math.Exp(m.Loss(tokens, nil))
}
