package neural

import (
	"math"
	"math/rand"
	"testing"
)

func tinyConfig() Config {
	return Config{Vocab: 11, Ctx: 8, Dim: 8, Heads: 2, Layers: 2, Seed: 1}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Vocab: 1, Ctx: 8, Dim: 8, Heads: 2, Layers: 1},
		{Vocab: 10, Ctx: 0, Dim: 8, Heads: 2, Layers: 1},
		{Vocab: 10, Ctx: 8, Dim: 7, Heads: 2, Layers: 1}, // dim % heads
		{Vocab: 10, Ctx: 8, Dim: 8, Heads: 2, Layers: 0},
	}
	for _, c := range bad {
		if _, err := NewModel(c); err == nil {
			t.Errorf("NewModel(%+v) accepted invalid config", c)
		}
	}
}

func TestNumParams(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := tinyConfig()
	hid := 4 * c.Dim
	perLayer := 2*c.Dim + 4*c.Dim*c.Dim + 2*c.Dim + c.Dim*hid + hid + hid*c.Dim + c.Dim
	want := c.Vocab*c.Dim + c.Ctx*c.Dim + c.Layers*perLayer + 2*c.Dim
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

// TestGradientCheck verifies analytic gradients against central finite
// differences for a sample of parameters in every tensor.
func TestGradientCheck(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{3, 1, 4, 1, 5, 9, 2, 6}

	for _, p := range m.Params() {
		p.zeroGrad()
	}
	m.lossAndBackward(tokens, nil)

	const eps = 1e-5
	r := rand.New(rand.NewSource(2))
	for _, p := range m.Params() {
		// Sample up to 4 coordinates per tensor.
		nSamples := 4
		if len(p.W) < nSamples {
			nSamples = len(p.W)
		}
		for s := 0; s < nSamples; s++ {
			i := r.Intn(len(p.W))
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := m.Loss(tokens, nil)
			p.W[i] = orig - eps
			lm := m.Loss(tokens, nil)
			p.W[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.G[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Abs(numeric) + math.Abs(analytic) + 1e-8
			if diff/scale > 1e-4 && diff > 1e-7 {
				t.Errorf("%s[%d]: analytic %.8g vs numeric %.8g", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestGradientCheckMasked(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tokens := []int{3, 1, 4, 1, 5, 9}
	mask := []bool{false, false, true, true, true}
	for _, p := range m.Params() {
		p.zeroGrad()
	}
	m.lossAndBackward(tokens, mask)
	p := m.tokEmb
	const eps = 1e-5
	for _, i := range []int{0, 17, 42} {
		orig := p.W[i]
		p.W[i] = orig + eps
		lp := m.Loss(tokens, mask)
		p.W[i] = orig - eps
		lm := m.Loss(tokens, mask)
		p.W[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-p.G[i]) > 1e-4*(math.Abs(numeric)+1e-3) {
			t.Errorf("masked grad tok_emb[%d]: analytic %.8g vs numeric %.8g", i, p.G[i], numeric)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 12, Dim: 16, Heads: 2, Layers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic pattern the model must memorise.
	seqs := [][]int{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{2, 3, 4, 5, 6, 7, 8, 9},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{3, 4, 5, 6, 7, 8, 9, 10},
	}
	before := m.Loss(seqs[0], nil)
	m.Train(seqs, TrainConfig{Epochs: 200, LR: 3e-3, BatchSize: 4, Seed: 7})
	after := m.Loss(seqs[0], nil)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
	if after > 0.5 {
		t.Errorf("model failed to memorise pattern: loss %v", after)
	}
}

// trainedPatternModel returns a model trained to memorise 1..6.
func trainedPatternModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(Config{Vocab: 16, Ctx: 12, Dim: 16, Heads: 2, Layers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][]int{
		{1, 2, 3, 4, 5, 6},
		{1, 2, 3, 4, 5, 6},
		{1, 2, 3, 4, 5, 6},
	}
	m.Train(seqs, TrainConfig{Epochs: 80, LR: 3e-3, BatchSize: 3, Seed: 7})
	return m
}

func TestGreedyGenerationLearnsPattern(t *testing.T) {
	m := trainedPatternModel(t)
	out := m.Generate([]int{1, 2, 3}, 3, GenOptions{StopToken: -1})
	if len(out) != 3 || out[0] != 4 || out[1] != 5 || out[2] != 6 {
		t.Errorf("generated %v, want [4 5 6]", out)
	}
}

func TestGenerateSlidingWindow(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Prefix longer than ctx must not panic and must emit maxNew tokens.
	prefix := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3}
	out := m.Generate(prefix, 4, GenOptions{StopToken: -1})
	if len(out) != 4 {
		t.Errorf("generated %d tokens, want 4", len(out))
	}
}

func TestGenerateStopFunc(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := m.Generate([]int{1, 2}, 10, GenOptions{
		StopToken: -1,
		Stop:      func(g []int) bool { return len(g) >= 3 },
	})
	if len(out) != 3 {
		t.Errorf("stop func ignored: got %d tokens", len(out))
	}
}

func TestSamplingReproducible(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := func() []int {
		return m.Generate([]int{1, 2, 3}, 5, GenOptions{
			Temperature: 1.0, TopK: 5, StopToken: -1,
			Rand: rand.New(rand.NewSource(11)),
		})
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := NewModel(tinyConfig())
	b, _ := NewModel(tinyConfig())
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.W {
			if p.W[j] != q.W[j] {
				t.Fatalf("param %s[%d] differs across same-seed inits", p.Name, j)
			}
		}
	}
}

func TestPerplexityFiniteAndPositive(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	pp := m.Perplexity([]int{1, 2, 3, 4})
	if math.IsNaN(pp) || pp <= 1 {
		t.Errorf("perplexity = %v", pp)
	}
	if !math.IsInf(m.Perplexity([]int{1}), 1) {
		t.Error("single-token perplexity should be +Inf")
	}
}

func TestLossMaskExcludesPositions(t *testing.T) {
	m, _ := NewModel(tinyConfig())
	tokens := []int{1, 2, 3, 4, 5}
	full := m.Loss(tokens, nil)
	onlyLast := m.Loss(tokens, []bool{false, false, false, true})
	if full == onlyLast {
		t.Error("mask had no effect on loss")
	}
	if m.Loss(tokens, []bool{false, false, false, false}) != 0 {
		t.Error("all-masked loss should be 0")
	}
}

func TestSchedules(t *testing.T) {
	if CosineDecay(0, 10) != 1 {
		t.Error("CosineDecay start wrong")
	}
	if v := CosineDecay(10, 10); math.Abs(v) > 1e-12 {
		t.Errorf("CosineDecay end = %v", v)
	}
	if ConstantLR(3, 10) != 1 {
		t.Error("ConstantLR wrong")
	}
	// Monotone non-increasing.
	for s := 1; s < 10; s++ {
		if CosineDecay(s, 10) > CosineDecay(s-1, 10) {
			t.Error("CosineDecay not monotone")
		}
	}
}

func TestAdamStepChangesWeights(t *testing.T) {
	p := newParam("w", 4)
	p.W = []float64{1, 2, 3, 4}
	p.G = []float64{0.1, -0.1, 0.2, 0}
	opt := NewAdam([]*Param{p})
	opt.Step(0.01)
	if p.W[0] >= 1 || p.W[1] <= 2 {
		t.Errorf("Adam step direction wrong: %v", p.W)
	}
	if p.W[3] != 4 {
		t.Errorf("zero-grad weight moved: %v", p.W[3])
	}
	for _, g := range p.G {
		if g != 0 {
			t.Error("gradients not zeroed after step")
		}
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", 2)
	p.W = []float64{10, -10}
	opt := NewAdam([]*Param{p})
	opt.WeightDecay = 0.1
	// Zero gradients: the only movement is decay toward zero.
	opt.Step(0.1)
	if math.Abs(p.W[0]) >= 10 || math.Abs(p.W[1]) >= 10 {
		t.Errorf("weights not decayed: %v", p.W)
	}
	if p.W[0] <= 0 || p.W[1] >= 0 {
		t.Errorf("decay overshot: %v", p.W)
	}
}

func TestGradClipping(t *testing.T) {
	p := newParam("w", 3)
	p.G = []float64{30, 40, 0} // norm 50
	opt := NewAdam([]*Param{p})
	if n := opt.GradNorm(); math.Abs(n-50) > 1e-9 {
		t.Fatalf("GradNorm = %v", n)
	}
	opt.ClipNorm = 5
	before := append([]float64(nil), p.W...)
	opt.Step(1)
	// With clipping the first Adam step magnitude is bounded by ~lr.
	for j := range p.W {
		if math.Abs(p.W[j]-before[j]) > 1.01 {
			t.Errorf("clipped step too large at %d: %v -> %v", j, before[j], p.W[j])
		}
	}
}

func TestTrainingWithRegularisation(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 12, Dim: 16, Heads: 2, Layers: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][]int{{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6}}
	before := m.Loss(seqs[0], nil)
	m.Train(seqs, TrainConfig{
		Epochs: 40, LR: 3e-3, BatchSize: 2, Seed: 7,
		WeightDecay: 0.01, ClipNorm: 1.0,
	})
	after := m.Loss(seqs[0], nil)
	if after >= before {
		t.Errorf("regularised training did not reduce loss: %v -> %v", before, after)
	}
}

func TestParallelBatchMatchesSerial(t *testing.T) {
	// The parallel gradient path must produce the same training result as
	// the serial path (static assignment keeps it bit-reproducible).
	build := func() *Model {
		m, err := NewModel(Config{Vocab: 12, Ctx: 8, Dim: 8, Heads: 2, Layers: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	seqs := [][]int{
		{1, 2, 3, 4, 5},
		{2, 3, 4, 5, 6},
		{3, 4, 5, 6, 7},
		{4, 5, 6, 7, 8},
	}
	a, b := build(), build()
	// Serial: batch size 1 processes sequences one by one but in a single
	// goroutine; parallel: batch 4 fans out. Compare batch-4 gradients by
	// running one step each with identical shuffles.
	lossA, nA := a.batchGrad(seqs, []int{0, 1, 2, 3})
	lossB, nB := b.batchGrad(seqs, []int{0, 1, 2, 3})
	if nA != nB || math.Abs(lossA-lossB) > 1e-12 {
		t.Fatalf("batch results differ: %v/%d vs %v/%d", lossA, nA, lossB, nB)
	}
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.G {
			if math.Abs(p.G[j]-q.G[j]) > 1e-12 {
				t.Fatalf("gradient %s[%d] differs: %v vs %v", p.Name, j, p.G[j], q.G[j])
			}
		}
	}
}
