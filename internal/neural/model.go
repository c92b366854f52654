package neural

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Config defines a transformer architecture.
type Config struct {
	// Vocab is the vocabulary size.
	Vocab int
	// Ctx is the maximum context length (positions).
	Ctx int
	// Dim is the residual stream width; must be divisible by Heads.
	Dim int
	// Heads is the number of attention heads.
	Heads int
	// Layers is the number of transformer blocks.
	Layers int
	// MLPHidden is the MLP hidden width; 0 means 4*Dim.
	MLPHidden int
	// Seed initialises the weights deterministically.
	Seed int64
}

func (c Config) validate() error {
	switch {
	case c.Vocab < 2:
		return fmt.Errorf("neural: vocab %d < 2", c.Vocab)
	case c.Ctx < 1:
		return fmt.Errorf("neural: ctx %d < 1", c.Ctx)
	case c.Heads < 1 || c.Dim%c.Heads != 0:
		return fmt.Errorf("neural: dim %d not divisible by heads %d", c.Dim, c.Heads)
	case c.Layers < 1:
		return fmt.Errorf("neural: layers %d < 1", c.Layers)
	}
	return nil
}

// block holds the parameters of one transformer layer.
type block struct {
	ln1g, ln1b *Param
	wq, wk, wv *Param // Dim x Dim
	wo         *Param // Dim x Dim
	ln2g, ln2b *Param
	w1, b1     *Param // Dim x Hidden, Hidden
	w2, b2     *Param // Hidden x Dim, Dim
}

// Model is a decoder-only transformer language model with tied input/output
// embeddings. Train mutates the parameters; after training, every decode
// path (GenerateCached, Engine, SessionCache, Loss) reads frozen weights
// and allocates its own working state per call, so a trained model is safe
// for concurrent use (see TestConcurrentDecodePathsMatchSerial).
type Model struct {
	cfg    Config
	tokEmb *Param // Vocab x Dim (also the output projection, tied)
	posEmb *Param // Ctx x Dim
	blocks []*block
	lnfg   *Param
	lnfb   *Param
	params []*Param
	obs    *Instrumentation // nil = metrics off (the default)
}

// NewModel builds a model with small random initial weights.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MLPHidden == 0 {
		cfg.MLPHidden = 4 * cfg.Dim
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg}
	d, h := cfg.Dim, cfg.MLPHidden
	std := 0.02

	add := func(p *Param) *Param { m.params = append(m.params, p); return p }
	m.tokEmb = add(newParam("tok_emb", cfg.Vocab*d))
	m.tokEmb.initNormal(r, std)
	m.posEmb = add(newParam("pos_emb", cfg.Ctx*d))
	m.posEmb.initNormal(r, std)
	for l := 0; l < cfg.Layers; l++ {
		b := &block{
			ln1g: add(newParam(fmt.Sprintf("l%d.ln1g", l), d)),
			ln1b: add(newParam(fmt.Sprintf("l%d.ln1b", l), d)),
			wq:   add(newParam(fmt.Sprintf("l%d.wq", l), d*d)),
			wk:   add(newParam(fmt.Sprintf("l%d.wk", l), d*d)),
			wv:   add(newParam(fmt.Sprintf("l%d.wv", l), d*d)),
			wo:   add(newParam(fmt.Sprintf("l%d.wo", l), d*d)),
			ln2g: add(newParam(fmt.Sprintf("l%d.ln2g", l), d)),
			ln2b: add(newParam(fmt.Sprintf("l%d.ln2b", l), d)),
			w1:   add(newParam(fmt.Sprintf("l%d.w1", l), d*h)),
			b1:   add(newParam(fmt.Sprintf("l%d.b1", l), h)),
			w2:   add(newParam(fmt.Sprintf("l%d.w2", l), h*d)),
			b2:   add(newParam(fmt.Sprintf("l%d.b2", l), d)),
		}
		for i := range b.ln1g.W {
			b.ln1g.W[i] = 1
		}
		for i := range b.ln2g.W {
			b.ln2g.W[i] = 1
		}
		b.wq.initNormal(r, std)
		b.wk.initNormal(r, std)
		b.wv.initNormal(r, std)
		// Residual-branch outputs scaled down with depth (GPT-2 style).
		b.wo.initNormal(r, std/math.Sqrt(2*float64(cfg.Layers)))
		b.w1.initNormal(r, std)
		b.w2.initNormal(r, std/math.Sqrt(2*float64(cfg.Layers)))
		m.blocks = append(m.blocks, b)
	}
	m.lnfg = add(newParam("lnf.g", d))
	for i := range m.lnfg.W {
		m.lnfg.W[i] = 1
	}
	m.lnfb = add(newParam("lnf.b", d))
	return m, nil
}

// Config returns the architecture configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns the learnable parameters (shared with the optimizer).
func (m *Model) Params() []*Param { return m.params }

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += len(p.W)
	}
	return n
}

// ---- forward / backward ----

// lnCache stores per-row layernorm statistics for the backward pass.
type lnCache struct {
	xhat  []float64 // T x D normalised input
	rstd  []float64 // T
	input []float64 // T x D
}

// blockCache stores one block's activations.
type blockCache struct {
	ln1   lnCache
	q     []float64 // T x D
	k     []float64
	v     []float64
	probs []float64 // heads x T x T attention weights
	att   []float64 // T x D concatenated head outputs (before wo)
	x1    []float64 // T x D residual input of MLP sub-layer
	ln2   lnCache
	h1    []float64 // T x H pre-GELU
	hg    []float64 // T x H post-GELU
}

// trace is the activation tape of one forward pass.
type trace struct {
	tokens []int
	x0     []float64 // embeddings
	blocks []blockCache
	xf     []float64 // input of final LN
	lnf    lnCache
	hf     []float64 // final hidden states
}

// layerNorm normalises each row of x (T rows of width d).
func layerNorm(x []float64, T, d int, g, b []float64) (out []float64, cache lnCache) {
	out = make([]float64, len(x))
	cache.xhat = make([]float64, len(x))
	cache.rstd = make([]float64, T)
	cache.input = x
	const eps = 1e-5
	for t := 0; t < T; t++ {
		row := x[t*d : (t+1)*d]
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(d)
		varr := 0.0
		for _, v := range row {
			dv := v - mean
			varr += dv * dv
		}
		varr /= float64(d)
		rstd := 1 / math.Sqrt(varr+eps)
		cache.rstd[t] = rstd
		for i, v := range row {
			xh := (v - mean) * rstd
			cache.xhat[t*d+i] = xh
			out[t*d+i] = xh*g[i] + b[i]
		}
	}
	return out, cache
}

// layerNormBackward propagates dOut through layernorm, accumulating into
// gGrad/bGrad and returning dIn.
func layerNormBackward(dOut []float64, cache lnCache, T, d int, g, gGrad, bGrad []float64) []float64 {
	dIn := make([]float64, len(dOut))
	for t := 0; t < T; t++ {
		base := t * d
		var sumDxhat, sumDxhatXhat float64
		for i := 0; i < d; i++ {
			dy := dOut[base+i]
			xh := cache.xhat[base+i]
			gGrad[i] += dy * xh
			bGrad[i] += dy
			dxh := dy * g[i]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xh
		}
		inv := 1 / float64(d)
		for i := 0; i < d; i++ {
			dxh := dOut[base+i] * g[i]
			xh := cache.xhat[base+i]
			dIn[base+i] = cache.rstd[t] * (dxh - inv*sumDxhat - xh*inv*sumDxhatXhat)
		}
	}
	return dIn
}

// matmul computes y = x @ w for x: T x in, w: in x out.
func matmul(x []float64, T, in int, w []float64, out int) []float64 {
	y := make([]float64, T*out)
	for t := 0; t < T; t++ {
		xr := x[t*in : (t+1)*in]
		yr := y[t*out : (t+1)*out]
		for i, xv := range xr {
			if xv == 0 {
				continue
			}
			wr := w[i*out : (i+1)*out]
			for j, wv := range wr {
				yr[j] += xv * wv
			}
		}
	}
	return y
}

// matmulBackward accumulates dW and returns dX for y = x @ w.
func matmulBackward(dY, x []float64, T, in int, w, dW []float64, out int) []float64 {
	dX := make([]float64, T*in)
	for t := 0; t < T; t++ {
		dyr := dY[t*out : (t+1)*out]
		xr := x[t*in : (t+1)*in]
		dxr := dX[t*in : (t+1)*in]
		for i := 0; i < in; i++ {
			wr := w[i*out : (i+1)*out]
			dwr := dW[i*out : (i+1)*out]
			xv := xr[i]
			s := 0.0
			for j := 0; j < out; j++ {
				dy := dyr[j]
				s += dy * wr[j]
				dwr[j] += xv * dy
			}
			dxr[i] = s
		}
	}
	return dX
}

const geluC = 0.7978845608028654 // sqrt(2/pi)

func gelu(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x)))
}

func geluGrad(x float64) float64 {
	t := math.Tanh(geluC * (x + 0.044715*x*x*x))
	return 0.5*(1+t) + 0.5*x*(1-t*t)*geluC*(1+3*0.044715*x*x)
}

// forward runs the model over tokens and returns the tape. Logits are not
// materialised for all positions here; loss and generation handle their own
// projections.
func (m *Model) forward(tokens []int) *trace {
	cfg := m.cfg
	T, d := len(tokens), cfg.Dim
	tr := &trace{tokens: tokens}

	x := make([]float64, T*d)
	for t, tok := range tokens {
		te := m.tokEmb.W[tok*d : (tok+1)*d]
		pe := m.posEmb.W[t*d : (t+1)*d]
		for i := 0; i < d; i++ {
			x[t*d+i] = te[i] + pe[i]
		}
	}
	tr.x0 = x

	heads, dh := cfg.Heads, d/cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))
	cur := x
	for _, b := range m.blocks {
		var bc blockCache
		a, ln1 := layerNorm(cur, T, d, b.ln1g.W, b.ln1b.W)
		bc.ln1 = ln1
		bc.q = matmul(a, T, d, b.wq.W, d)
		bc.k = matmul(a, T, d, b.wk.W, d)
		bc.v = matmul(a, T, d, b.wv.W, d)
		bc.probs = make([]float64, heads*T*T)
		bc.att = make([]float64, T*d)
		for h := 0; h < heads; h++ {
			off := h * dh
			for t := 0; t < T; t++ {
				// Scores for positions u <= t.
				probs := bc.probs[(h*T+t)*T : (h*T+t)*T+T]
				maxs := math.Inf(-1)
				for u := 0; u <= t; u++ {
					s := 0.0
					for i := 0; i < dh; i++ {
						s += bc.q[t*d+off+i] * bc.k[u*d+off+i]
					}
					s *= scale
					probs[u] = s
					if s > maxs {
						maxs = s
					}
				}
				sum := 0.0
				for u := 0; u <= t; u++ {
					probs[u] = math.Exp(probs[u] - maxs)
					sum += probs[u]
				}
				for u := 0; u <= t; u++ {
					probs[u] /= sum
					pv := probs[u]
					for i := 0; i < dh; i++ {
						bc.att[t*d+off+i] += pv * bc.v[u*d+off+i]
					}
				}
			}
		}
		attOut := matmul(bc.att, T, d, b.wo.W, d)
		x1 := make([]float64, T*d)
		for i := range x1 {
			x1[i] = cur[i] + attOut[i]
		}
		bc.x1 = x1

		bIn, ln2 := layerNorm(x1, T, d, b.ln2g.W, b.ln2b.W)
		bc.ln2 = ln2
		hid := cfg.MLPHidden
		bc.h1 = matmul(bIn, T, d, b.w1.W, hid)
		bc.hg = make([]float64, T*hid)
		for t := 0; t < T; t++ {
			for j := 0; j < hid; j++ {
				v := bc.h1[t*hid+j] + b.b1.W[j]
				bc.h1[t*hid+j] = v
				bc.hg[t*hid+j] = gelu(v)
			}
		}
		mlpOut := matmul(bc.hg, T, hid, b.w2.W, d)
		next := make([]float64, T*d)
		for t := 0; t < T; t++ {
			for i := 0; i < d; i++ {
				next[t*d+i] = x1[t*d+i] + mlpOut[t*d+i] + b.b2.W[i]
			}
		}
		tr.blocks = append(tr.blocks, bc)
		cur = next
	}
	tr.xf = cur
	hf, lnf := layerNorm(cur, T, d, m.lnfg.W, m.lnfb.W)
	tr.lnf = lnf
	tr.hf = hf
	return tr
}

// logitsAt projects the hidden state at position t onto the vocabulary.
func (m *Model) logitsAt(tr *trace, t int) []float64 {
	d, v := m.cfg.Dim, m.cfg.Vocab
	h := tr.hf[t*d : (t+1)*d]
	logits := make([]float64, v)
	for tok := 0; tok < v; tok++ {
		e := m.tokEmb.W[tok*d : (tok+1)*d]
		s := 0.0
		for i := 0; i < d; i++ {
			s += h[i] * e[i]
		}
		logits[tok] = s
	}
	return logits
}

// lossAndBackward computes mean next-token cross-entropy for the sequence
// and accumulates parameter gradients. Positions where mask is false (or
// when mask is nil, all positions) contribute to the loss; mask has length
// len(tokens)-1 and masks the *prediction* of tokens[i+1].
func (m *Model) lossAndBackward(tokens []int, mask []bool) float64 {
	if len(tokens) < 2 {
		return 0
	}
	var phaseStart time.Time
	if m.obs != nil {
		phaseStart = time.Now()
	}
	tr := m.forward(tokens)
	if m.obs != nil {
		m.obs.Forward.Observe(time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}
	cfg := m.cfg
	T, d, v := len(tokens), cfg.Dim, cfg.Vocab

	// Cross-entropy and gradient w.r.t. final hidden states.
	nPred := 0
	loss := 0.0
	dHf := make([]float64, T*d)
	for t := 0; t < T-1; t++ {
		if mask != nil && !mask[t] {
			continue
		}
		nPred++
	}
	if nPred == 0 {
		return 0
	}
	invN := 1 / float64(nPred)
	for t := 0; t < T-1; t++ {
		if mask != nil && !mask[t] {
			continue
		}
		target := tokens[t+1]
		logits := m.logitsAt(tr, t)
		maxl := math.Inf(-1)
		for _, l := range logits {
			if l > maxl {
				maxl = l
			}
		}
		sum := 0.0
		for i, l := range logits {
			logits[i] = math.Exp(l - maxl)
			sum += logits[i]
		}
		loss += -math.Log(logits[target]/sum + 1e-300)
		h := tr.hf[t*d : (t+1)*d]
		for tok := 0; tok < v; tok++ {
			p := logits[tok] / sum
			if tok == target {
				p -= 1
			}
			p *= invN
			if p == 0 {
				continue
			}
			// dL/dh += p * emb[tok]; dL/demb[tok] += p * h
			e := m.tokEmb.W[tok*d : (tok+1)*d]
			ge := m.tokEmb.G[tok*d : (tok+1)*d]
			for i := 0; i < d; i++ {
				dHf[t*d+i] += p * e[i]
				ge[i] += p * h[i]
			}
		}
	}
	loss *= invN

	m.backward(tr, dHf)
	if m.obs != nil {
		// The backward phase covers the loss head plus backpropagation.
		m.obs.Backward.Observe(time.Since(phaseStart).Seconds())
	}
	return loss
}

// backward propagates dHf (gradient at the final layernorm output) through
// the whole network, accumulating parameter gradients.
func (m *Model) backward(tr *trace, dHf []float64) {
	cfg := m.cfg
	T, d := len(tr.tokens), cfg.Dim
	heads, dh := cfg.Heads, d/cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))

	dx := layerNormBackward(dHf, tr.lnf, T, d, m.lnfg.W, m.lnfg.G, m.lnfb.G)

	for li := len(m.blocks) - 1; li >= 0; li-- {
		b := m.blocks[li]
		bc := &tr.blocks[li]
		hid := cfg.MLPHidden

		// MLP sub-layer: next = x1 + gelu(ln2(x1) @ w1 + b1) @ w2 + b2.
		dMlpOut := dx // gradient of mlp output (+ residual passes through)
		for t := 0; t < T; t++ {
			for i := 0; i < d; i++ {
				b.b2.G[i] += dMlpOut[t*d+i]
			}
		}
		dHg := matmulBackward(dMlpOut, bc.hg, T, hid, b.w2.W, b.w2.G, d)
		dH1 := dHg
		for t := 0; t < T; t++ {
			for j := 0; j < hid; j++ {
				g := dHg[t*hid+j] * geluGrad(bc.h1[t*hid+j])
				dH1[t*hid+j] = g
				b.b1.G[j] += g
			}
		}
		dBIn := matmulBackward(dH1, bc.ln2.xhatTimes(b.ln2g.W, b.ln2b.W, T, d), T, d, b.w1.W, b.w1.G, hid)
		dX1 := layerNormBackward(dBIn, bc.ln2, T, d, b.ln2g.W, b.ln2g.G, b.ln2b.G)
		for i := range dX1 {
			dX1[i] += dx[i] // residual
		}

		// Attention sub-layer: x1 = x + att @ wo.
		dAtt := matmulBackward(dX1, bc.att, T, d, b.wo.W, b.wo.G, d)
		dQ := make([]float64, T*d)
		dK := make([]float64, T*d)
		dV := make([]float64, T*d)
		for h := 0; h < heads; h++ {
			off := h * dh
			for t := 0; t < T; t++ {
				probs := bc.probs[(h*T+t)*T : (h*T+t)*T+T]
				// dP[u] = dAtt[t] . v[u]
				var dot float64
				dP := make([]float64, t+1)
				for u := 0; u <= t; u++ {
					s := 0.0
					for i := 0; i < dh; i++ {
						s += dAtt[t*d+off+i] * bc.v[u*d+off+i]
					}
					dP[u] = s
					dot += s * probs[u]
					// dV[u] += P[u] * dAtt[t]
					for i := 0; i < dh; i++ {
						dV[u*d+off+i] += probs[u] * dAtt[t*d+off+i]
					}
				}
				for u := 0; u <= t; u++ {
					dS := probs[u] * (dP[u] - dot) * scale
					if dS == 0 {
						continue
					}
					for i := 0; i < dh; i++ {
						dQ[t*d+off+i] += dS * bc.k[u*d+off+i]
						dK[u*d+off+i] += dS * bc.q[t*d+off+i]
					}
				}
			}
		}
		a := bc.ln1.xhatTimes(b.ln1g.W, b.ln1b.W, T, d)
		dA := matmulBackward(dQ, a, T, d, b.wq.W, b.wq.G, d)
		dA2 := matmulBackward(dK, a, T, d, b.wk.W, b.wk.G, d)
		dA3 := matmulBackward(dV, a, T, d, b.wv.W, b.wv.G, d)
		for i := range dA {
			dA[i] += dA2[i] + dA3[i]
		}
		dXin := layerNormBackward(dA, bc.ln1, T, d, b.ln1g.W, b.ln1g.G, b.ln1b.G)
		for i := range dXin {
			dXin[i] += dX1[i] // residual
		}
		dx = dXin
	}

	// Embedding gradients.
	for t, tok := range tr.tokens {
		for i := 0; i < d; i++ {
			g := dx[t*d+i]
			m.tokEmb.G[tok*d+i] += g
			m.posEmb.G[t*d+i] += g
		}
	}
}

// xhatTimes reconstructs the layernorm output (g*xhat+b) needed as the
// matmul input during the backward pass, avoiding storing it in the cache.
func (c *lnCache) xhatTimes(g, b []float64, T, d int) []float64 {
	out := make([]float64, T*d)
	for t := 0; t < T; t++ {
		for i := 0; i < d; i++ {
			out[t*d+i] = c.xhat[t*d+i]*g[i] + b[i]
		}
	}
	return out
}

// Loss computes the mean next-token cross-entropy without touching
// gradients.
func (m *Model) Loss(tokens []int, mask []bool) float64 {
	if len(tokens) < 2 {
		return 0
	}
	tr := m.forward(tokens)
	loss := 0.0
	n := 0
	for t := 0; t < len(tokens)-1; t++ {
		if mask != nil && !mask[t] {
			continue
		}
		logits := m.logitsAt(tr, t)
		maxl := math.Inf(-1)
		for _, l := range logits {
			if l > maxl {
				maxl = l
			}
		}
		sum := 0.0
		for _, l := range logits {
			sum += math.Exp(l - maxl)
		}
		loss += -(logits[tokens[t+1]] - maxl - math.Log(sum))
		n++
	}
	if n == 0 {
		return 0
	}
	return loss / float64(n)
}
