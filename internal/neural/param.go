// Package neural implements a decoder-only transformer language model in
// pure Go: token + learned positional embeddings, multi-head causal
// self-attention, GELU MLP blocks, layer normalisation, residual
// connections, weight tying, full backpropagation and an Adam optimizer with
// the linear/cosine learning-rate schedules the paper trains with.
//
// It is the architecture-faithful counterpart of the paper's CodeGen models:
// the same computation at laptop scale. The model trains on CPU in seconds
// for the corpus sizes used by the examples and experiments.
package neural

import (
	"math"
	"math/rand"
)

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

func newParam(name string, size int) *Param {
	return &Param{Name: name, W: make([]float64, size), G: make([]float64, size)}
}

// initNormal fills the parameter with N(0, std) values.
func (p *Param) initNormal(r *rand.Rand, std float64) {
	for i := range p.W {
		p.W[i] = r.NormFloat64() * std
	}
}

// zeroGrad clears the gradient accumulator.
func (p *Param) zeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Adam is the Adam/AdamW optimizer (Kingma & Ba; Loshchilov & Hutter) over
// a fixed parameter list, with optional global-norm gradient clipping.
type Adam struct {
	params []*Param
	m, v   [][]float64
	beta1  float64
	beta2  float64
	eps    float64
	step   int
	// WeightDecay applies decoupled (AdamW-style) weight decay when > 0.
	WeightDecay float64
	// ClipNorm rescales gradients whose global L2 norm exceeds it (0
	// disables clipping).
	ClipNorm float64
}

// NewAdam creates an optimizer for the given parameters.
func NewAdam(params []*Param) *Adam {
	a := &Adam{params: params, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.W))
		a.v[i] = make([]float64, len(p.W))
	}
	return a
}

// GradNorm returns the global L2 norm of all gradients.
func (a *Adam) GradNorm() float64 {
	sum := 0.0
	for _, p := range a.params {
		for _, g := range p.G {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// Step applies one Adam update with the given learning rate and zeroes the
// gradients.
func (a *Adam) Step(lr float64) {
	a.step++
	scale := 1.0
	if a.ClipNorm > 0 {
		if norm := a.GradNorm(); norm > a.ClipNorm {
			scale = a.ClipNorm / norm
		}
	}
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := p.G[j] * scale
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			p.W[j] -= lr * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.eps)
			if a.WeightDecay > 0 {
				// Decoupled decay, applied directly to the weight.
				p.W[j] -= lr * a.WeightDecay * p.W[j]
			}
		}
		p.zeroGrad()
	}
}

// Schedule maps a training step in [0, total) to a learning-rate multiplier.
type Schedule func(step, total int) float64

// CosineDecay decreases with a half cosine from 1 to 0, the fine-tuning
// schedule.
func CosineDecay(step, total int) float64 {
	if total <= 1 {
		return 1
	}
	return 0.5 * (1 + math.Cos(math.Pi*float64(step)/float64(total)))
}

// ConstantLR keeps the learning rate fixed.
func ConstantLR(step, total int) float64 { return 1 }
