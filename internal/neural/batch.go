package neural

import (
	"math"
	"time"
)

// batchScratch is the working memory of a batched decode step: the same
// buffers as decodeScratch but B rows wide, so the projection matmuls run
// once over the whole batch instead of once per sequence. Allocated once
// per engine and reused every step.
type batchScratch struct {
	x, a, q, k, v, att, ao, bIn, mo, hf []float64 // B x Dim, row-major
	h1                                  []float64 // B x MLPHidden
	// scores holds one Ctx-wide attention-score row per kernel worker the
	// arena was sized for, so rows attended in parallel never share a
	// buffer. scoreRows is that worker capacity.
	scores    []float64
	scoreRows int
}

// newBatchScratch sizes an arena for batches of up to b rows.
func (m *Model) newBatchScratch(b int) *batchScratch {
	d := b * m.cfg.Dim
	rows := KernelProcs()
	if rows > b {
		rows = b
	}
	if rows < 1 {
		rows = 1
	}
	return &batchScratch{
		x: make([]float64, d), a: make([]float64, d), q: make([]float64, d),
		k: make([]float64, d), v: make([]float64, d), att: make([]float64, d),
		ao: make([]float64, d), bIn: make([]float64, d), mo: make([]float64, d),
		hf:        make([]float64, d),
		h1:        make([]float64, b*m.cfg.MLPHidden),
		scores:    make([]float64, rows*m.cfg.Ctx),
		scoreRows: rows,
	}
}

// stepBatch advances B independent decode states by one token each. The
// six per-layer projections (q, k, v, attention output, both MLP halves)
// run as one matmul over B rows rather than B row-vector products, so the
// weight matrices — the dominant memory traffic of decoding — are streamed
// through the cache once per step instead of once per sequence. Attention
// and layer norms stay per-row because each state attends over its own
// cache at its own position; rows at different positions batch fine.
//
// Per-row arithmetic (accumulation order included) is identical to the
// single-row step, so a batched decode is bit-for-bit equivalent to
// stepping each state serially. Each state's logits buffer receives its
// next-token distribution. States must belong to m and bs must have been
// sized for at least len(states) rows.
//
// Rows are independent within a layer (each state attends over its own
// cache), so each layer runs as one fork/join over row chunks across the
// kernel workers: a chunk's owner layer-norms its rows, runs the six
// projections over them (one matmul per chunk keeps the weight streaming
// amortisation), and attends each row with its worker-private score buffer.
// A one-row batch delegates to the single-row step kernel, which
// parallelizes inside the row instead.
func (m *Model) stepBatch(states []*genState, toks []int, bs *batchScratch) {
	B := len(states)
	if B == 1 {
		states[0].step(toks[0])
		return
	}
	cfg := m.cfg
	d := cfg.Dim
	procs := KernelProcs()
	if procs > bs.scoreRows {
		procs = bs.scoreRows
	}
	var stepStart time.Time
	if m.obs != nil {
		stepStart = time.Now()
	}

	for r, s := range states {
		x := bs.x[r*d : (r+1)*d]
		te := m.tokEmb.W[toks[r]*d : (toks[r]+1)*d]
		pe := m.posEmb.W[s.pos*d : (s.pos+1)*d]
		for i := 0; i < d; i++ {
			x[i] = te[i] + pe[i]
		}
	}

	for l, b := range m.blocks {
		if procs <= 1 {
			m.stepBatchLayer(states, bs, b, l, 0, 0, B)
			continue
		}
		parallelFor(procs, B, 1, func(w, lo, hi int) {
			m.stepBatchLayer(states, bs, b, l, w, lo, hi)
		})
	}

	maxPos := 0
	for _, s := range states {
		s.pos++
		if s.pos > maxPos {
			maxPos = s.pos
		}
		if s.logits == nil {
			s.logits = make([]float64, cfg.Vocab)
		}
	}
	if procs <= 1 {
		m.stepBatchHead(states, bs, 0, B)
	} else {
		parallelFor(procs, B, 1, func(_, lo, hi int) {
			m.stepBatchHead(states, bs, lo, hi)
		})
	}
	if m.obs != nil {
		m.obs.KVCachePositions.Set(float64(maxPos))
		m.obs.KVCacheOccupancy.Set(float64(maxPos) / float64(cfg.Ctx))
		m.obs.DecodeSteps.Add(B)
		m.obs.StepDuration.Observe(time.Since(stepStart).Seconds())
	}
}

// stepBatchLayer runs one transformer block over batch rows [lo, hi) — the
// per-chunk body of stepBatch's fork/join. w selects the worker-private
// attention score row; serial callers pass chunk (0, 0, B) directly so the
// allocation-free path never builds a closure.
func (m *Model) stepBatchLayer(states []*genState, bs *batchScratch, b *block, l, w, lo, hi int) {
	cfg := m.cfg
	d := cfg.Dim
	hid := cfg.MLPHidden
	heads, dh := cfg.Heads, d/cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))
	for r := lo; r < hi; r++ {
		lnRowInto(bs.a[r*d:(r+1)*d], bs.x[r*d:(r+1)*d], b.ln1g.W, b.ln1b.W)
	}
	matmulRows(bs.q, bs.a, lo, hi, d, b.wq.W, d)
	matmulRows(bs.k, bs.a, lo, hi, d, b.wk.W, d)
	matmulRows(bs.v, bs.a, lo, hi, d, b.wv.W, d)
	for r := lo; r < hi; r++ {
		s := states[r]
		T := s.pos + 1
		kl := s.k[l][:T*d]
		vl := s.v[l][:T*d]
		s.k[l], s.v[l] = kl, vl
		copy(kl[s.pos*d:], bs.k[r*d:(r+1)*d])
		copy(vl[s.pos*d:], bs.v[r*d:(r+1)*d])
		attendRow(bs.att[r*d:(r+1)*d], bs.q[r*d:(r+1)*d], kl, vl,
			bs.scores[w*cfg.Ctx:w*cfg.Ctx+T], heads, dh, d, scale)
	}
	// Fused residual update: x += att @ wo (no bias).
	matmulAddBiasRows(bs.x, bs.ao, bs.att, lo, hi, d, b.wo.W, d, nil)
	for r := lo; r < hi; r++ {
		lnRowInto(bs.bIn[r*d:(r+1)*d], bs.x[r*d:(r+1)*d], b.ln2g.W, b.ln2b.W)
	}
	// Fused MLP: h1 = gelu(bIn @ w1 + b1), then x += h1 @ w2 + b2.
	matmulBiasGeluRows(bs.h1, bs.bIn, lo, hi, d, b.w1.W, hid, b.b1.W)
	matmulAddBiasRows(bs.x, bs.mo, bs.h1, lo, hi, hid, b.w2.W, d, b.b2.W)
}

// stepBatchHead runs the final layer norm and tied-embedding logit
// projection for batch rows [lo, hi).
func (m *Model) stepBatchHead(states []*genState, bs *batchScratch, lo, hi int) {
	cfg := m.cfg
	d := cfg.Dim
	for r := lo; r < hi; r++ {
		lnRowInto(bs.hf[r*d:(r+1)*d], bs.x[r*d:(r+1)*d], m.lnfg.W, m.lnfb.W)
		projectLogitsRange(states[r].logits, bs.hf[r*d:(r+1)*d], m.tokEmb.W, d, 0, cfg.Vocab)
	}
}
