package neural

import (
	"math"
	"sync"
)

// decodeScratch is the reusable working memory of one incremental decode:
// every buffer the single-row step kernel needs, allocated once per
// generation and overwritten in place each token. Before this arena existed,
// step allocated fresh x/q/att/score/hidden/logit slices for every token —
// about a dozen garbage objects per token per layer — which dominated the
// allocator profile of the serving path. A scratch is owned by one
// generation and must not be shared across goroutines; its kernel workers
// only borrow it for the duration of a fork.
type decodeScratch struct {
	x   []float64 // Dim: residual stream of the current token
	a   []float64 // Dim: layernorm output feeding q/k/v
	q   []float64 // Dim: query row
	att []float64 // Dim: concatenated head outputs
	ao  []float64 // Dim: attention output projection
	bIn []float64 // Dim: layernorm output feeding the MLP
	mo  []float64 // Dim: MLP output projection
	hf  []float64 // Dim: final layernorm output
	h1  []float64 // MLPHidden: pre/post-GELU hidden row
	// scores holds one Ctx-wide attention-score row per kernel worker the
	// arena was sized for (KernelProcs at creation), so parallel per-head
	// attention never shares a buffer between workers.
	scores []float64

	// wg and the jobs below are the step's kernel forks: each kernel fills
	// its job in place and forks it through parallelFor, joining on wg, so a
	// step allocates nothing at any worker count.
	wg      sync.WaitGroup
	vecMat  vecMatJob
	gelu    geluJob
	addBias addBiasJob
	attend  attendJob
	logits  logitsJob
}

// newDecodeScratch sizes an arena for m's architecture.
func (m *Model) newDecodeScratch() *decodeScratch {
	d := m.cfg.Dim
	rows := KernelProcs()
	if rows < 1 {
		rows = 1
	}
	return &decodeScratch{
		x:      make([]float64, d),
		a:      make([]float64, d),
		q:      make([]float64, d),
		att:    make([]float64, d),
		ao:     make([]float64, d),
		bIn:    make([]float64, d),
		mo:     make([]float64, d),
		hf:     make([]float64, d),
		h1:     make([]float64, m.cfg.MLPHidden),
		scores: make([]float64, rows*m.cfg.Ctx),
	}
}

// lnRowInto layer-normalises a single row into dst (len(dst) == len(x)).
func lnRowInto(dst, x, g, b []float64) {
	const eps = 1e-5
	d := len(x)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(d)
	varr := 0.0
	for _, v := range x {
		dv := v - mean
		varr += dv * dv
	}
	varr /= float64(d)
	rstd := 1 / math.Sqrt(varr+eps)
	for i, v := range x {
		dst[i] = (v-mean)*rstd*g[i] + b[i]
	}
}

// vecMatInto computes dst = x @ w for one row (w: len(x) x len(dst)),
// overwriting dst. Large products split dst into column tiles across the
// kernel workers (see parallel.go); each element accumulates over ascending
// input index with zero inputs skipped at any worker count, so serial and
// parallel results are bit-identical.
func (sc *decodeScratch) vecMatInto(dst, x, w []float64) {
	sc.vecMat = vecMatJob{dst, x, w}
	parallelFor(&sc.wg, &sc.vecMat, KernelProcs(), len(dst), minTileCols(len(x)))
}
