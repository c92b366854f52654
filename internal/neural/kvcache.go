package neural

import (
	"math"
	"time"
)

// genState is an incremental decoding state: the per-layer key/value caches
// that let each new token attend over all previous positions without
// recomputing them — the KV cache every production transformer server uses.
//
// The caches are allocated once at full context capacity, so step never
// grows a slice, and all per-token working memory lives in a decodeScratch
// arena created lazily on the first step. A state (and its scratch) belongs
// to one generation on one goroutine; concurrent generations each build
// their own.
type genState struct {
	m *Model
	// k[l], v[l] hold the cached keys/values of layer l, pos*Dim flat,
	// length pos*Dim with capacity Ctx*Dim.
	k, v [][]float64
	pos  int
	// scratch is the per-token working memory of the single-row step.
	scratch *decodeScratch
	// logits is the output buffer step fills; each state owns one so the
	// engine's step batch can hold every row's distribution at once.
	logits []float64
}

// newGenState allocates an empty state with full-context cache capacity.
func (m *Model) newGenState() *genState {
	cap := m.cfg.Ctx * m.cfg.Dim
	s := &genState{
		m: m,
		k: make([][]float64, m.cfg.Layers),
		v: make([][]float64, m.cfg.Layers),
	}
	for l := range s.k {
		s.k[l] = make([]float64, 0, cap)
		s.v[l] = make([]float64, 0, cap)
	}
	return s
}

// reset empties the caches so the state can be re-primed (the windowed
// decode path) or reused from the engine's freelist. The backing arrays
// and scratch are kept.
func (s *genState) reset() {
	for l := range s.k {
		s.k[l] = s.k[l][:0]
		s.v[l] = s.v[l][:0]
	}
	s.pos = 0
}

// step feeds one token through the model, appending to the caches, and
// returns the logits for the next-token distribution (valid until the next
// step on this state). It must be fed tokens in order; pos must stay below
// the context length. Steady-state it performs no heap allocation: keys and
// values are written directly into the preallocated cache rows and every
// intermediate lives in the scratch arena.
func (s *genState) step(tok int) []float64 {
	m := s.m
	cfg := m.cfg
	d := cfg.Dim
	heads, dh := cfg.Heads, d/cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))
	if s.scratch == nil {
		s.scratch = m.newDecodeScratch()
	}
	if s.logits == nil {
		s.logits = make([]float64, cfg.Vocab)
	}
	sc := s.scratch
	var stepStart time.Time
	if m.obs != nil {
		stepStart = time.Now()
	}

	x := sc.x
	te := m.tokEmb.W[tok*d : (tok+1)*d]
	pe := m.posEmb.W[s.pos*d : (s.pos+1)*d]
	for i := 0; i < d; i++ {
		x[i] = te[i] + pe[i]
	}

	T := s.pos + 1
	for l, b := range m.blocks {
		lnRowInto(sc.a, x, b.ln1g.W, b.ln1b.W)
		sc.vecMatInto(sc.q, sc.a, b.wq.W)
		kl := s.k[l][:T*d]
		vl := s.v[l][:T*d]
		s.k[l], s.v[l] = kl, vl
		sc.vecMatInto(kl[s.pos*d:], sc.a, b.wk.W)
		sc.vecMatInto(vl[s.pos*d:], sc.a, b.wv.W)

		sc.attendRowPar(sc.att, sc.q, kl, vl, cfg.Ctx, T, heads, dh, d, scale)
		// Fused residual update: x += att @ wo, the bias-free output
		// projection accumulated straight onto the residual stream.
		sc.vecMatAddBiasInto(x, sc.ao, sc.att, b.wo.W, nil)

		lnRowInto(sc.bIn, x, b.ln2g.W, b.ln2b.W)
		// Fused MLP: h1 = gelu(bIn @ w1 + b1), then x += h1 @ w2 + b2.
		sc.vecMatBiasGeluInto(sc.h1, sc.bIn, b.w1.W, b.b1.W)
		sc.vecMatAddBiasInto(x, sc.mo, sc.h1, b.w2.W, b.b2.W)
	}
	s.pos++
	if m.obs != nil {
		m.obs.KVCachePositions.Set(float64(s.pos))
		m.obs.KVCacheOccupancy.Set(float64(s.pos) / float64(cfg.Ctx))
		m.obs.DecodeSteps.Inc()
		m.obs.StepDuration.Observe(time.Since(stepStart).Seconds())
	}

	lnRowInto(sc.hf, x, m.lnfg.W, m.lnfb.W)
	sc.projectLogits(s.logits, sc.hf, m.tokEmb.W, d)
	return s.logits
}

// attendRow runs causal multi-head attention for one query row over the
// cached keys/values, writing the concatenated head outputs into att.
// scores must have length T (the cached positions including the current).
// It is the serial single-buffer form of attendHeads; attendRowPar is the
// same computation split across heads with per-worker score rows.
func attendRow(att, q, k, v, scores []float64, heads, dh, d int, scale float64) {
	attendHeads(att, q, k, v, scores, 0, heads, dh, d, scale)
}

// logitsJob is projectLogits' fork over vocabulary ranges.
type logitsJob struct {
	logits, hf, emb []float64
	d               int
}

func (j *logitsJob) run(_, lo, hi int) { projectLogitsRange(j.logits, j.hf, j.emb, j.d, lo, hi) }

// projectLogits writes hf @ tokEmb^T into logits (the tied output head),
// splitting the vocabulary across the kernel workers.
func (sc *decodeScratch) projectLogits(logits, hf, emb []float64, d int) {
	sc.logits = logitsJob{logits, hf, emb, d}
	parallelFor(&sc.wg, &sc.logits, KernelProcs(), len(logits), minTileCols(d))
}

// GenerateCached extends prefix by up to maxNew tokens using the KV cache:
// each token costs O(sequence) instead of O(sequence^2). It is the package's
// one-shot decode call; Engine and SessionCache drive the same decodeRow.
// When prefix+maxNew fits the context window the outputs are identical to
// re-running the full forward pass per token (the tests' full-forward
// oracle). Longer requests decode through a hopped sliding window: whenever
// the cache fills, it is re-primed over the most recent Ctx - Ctx/4 tokens
// and decoding continues incrementally. Inside the overflow regime each
// token therefore conditions on at least 3/4 of the context window (an
// exact sliding window always uses the full Ctx), which keeps the cost
// linear per token where a full forward per token would be quadratic.
func (m *Model) GenerateCached(prefix []int, maxNew int, opts GenOptions) []int {
	if len(prefix) == 0 {
		return nil
	}
	if len(prefix) > m.cfg.Ctx {
		prefix = prefix[len(prefix)-m.cfg.Ctx:]
	}
	row := newDecodeRow(prefix, maxNew, opts)
	return m.decodeSolo(m.newGenState(), &row)
}
