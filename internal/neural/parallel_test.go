package neural

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// withKernelProcs runs the test body at a fixed kernel worker budget and
// restores the previous one.
func withKernelProcs(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetKernelProcs(n)
	defer SetKernelProcs(prev)
	fn()
}

// stepLogits decodes seq token by token on a fresh state and returns a copy
// of the logits after every step.
func stepLogits(m *Model, seq []int) [][]float64 {
	st := m.newGenState()
	var all [][]float64
	for _, tok := range seq {
		lg := st.step(tok)
		cp := make([]float64, len(lg))
		copy(cp, lg)
		all = append(all, cp)
	}
	return all
}

// bitsEqual compares two float slices for exact bit equality (NaN-safe).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestParallelStepBitIdentical pins the tentpole equivalence claim: the
// single-row step kernel produces bit-for-bit identical logits at every
// worker count, at every position, because each split preserves the serial
// per-element accumulation order.
func TestParallelStepBitIdentical(t *testing.T) {
	m, err := NewModel(Config{Vocab: 48, Ctx: 24, Dim: 24, Heads: 3, Layers: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seq := make([]int, m.cfg.Ctx)
	for i := range seq {
		seq[i] = rng.Intn(m.cfg.Vocab)
	}

	var serial [][]float64
	withKernelProcs(t, 1, func() { serial = stepLogits(m, seq) })
	for _, procs := range []int{2, 3, 4, 8} {
		withKernelProcs(t, procs, func() {
			par := stepLogits(m, seq)
			for pos := range serial {
				if !bitsEqual(serial[pos], par[pos]) {
					t.Fatalf("procs=%d pos=%d: parallel step logits differ from serial", procs, pos)
				}
			}
		})
	}
}

// TestParallelStepBatchBitIdentical pins the same claim for the batched
// step: row-parallel stepBatch output equals the serial stepBatch and the
// serial single-row step, bit for bit.
func TestParallelStepBatchBitIdentical(t *testing.T) {
	m, err := NewModel(Config{Vocab: 32, Ctx: 16, Dim: 16, Heads: 4, Layers: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const B = 5
	const steps = 10
	rng := rand.New(rand.NewSource(9))
	toks := make([][]int, steps)
	for s := range toks {
		toks[s] = make([]int, B)
		for r := range toks[s] {
			toks[s][r] = rng.Intn(m.cfg.Vocab)
		}
	}

	run := func() [][]float64 {
		states := make([]*genState, B)
		for r := range states {
			states[r] = m.newGenState()
		}
		bs := m.newBatchScratch(B)
		var all [][]float64
		for s := 0; s < steps; s++ {
			m.stepBatch(states, toks[s], bs)
			for _, st := range states {
				cp := make([]float64, len(st.logits))
				copy(cp, st.logits)
				all = append(all, cp)
			}
		}
		return all
	}

	var serial [][]float64
	withKernelProcs(t, 1, func() { serial = run() })
	for _, procs := range []int{2, 4, 8} {
		withKernelProcs(t, procs, func() {
			par := run()
			for i := range serial {
				if !bitsEqual(serial[i], par[i]) {
					t.Fatalf("procs=%d row-step %d: parallel stepBatch logits differ from serial", procs, i)
				}
			}
		})
	}
}

// TestParallelKernelTiles exercises the tile kernels directly on odd
// shapes (sizes that don't divide evenly across workers, zero inputs for
// the skip path) against their serial output. out is wide enough that a
// 37-input tile passes the work floor (minTileCols(37) = 221 columns), so
// every kernel forks at procs >= 2.
func TestParallelKernelTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		v[rng.Intn(n)] = 0 // exercise the zero-skip branch
		return v
	}
	const in, out = 37, 997
	x := fill(in)
	w := fill(in * out)
	bias := fill(out)

	type kernel struct {
		name string
		run  func() []float64
	}
	sc := new(decodeScratch)
	kernels := []kernel{
		{"vecMatInto", func() []float64 {
			dst := make([]float64, out)
			sc.vecMatInto(dst, x[:in], w)
			return dst
		}},
		{"vecMatBiasGeluInto", func() []float64 {
			dst := make([]float64, out)
			sc.vecMatBiasGeluInto(dst, x[:in], w, bias)
			return dst
		}},
		{"vecMatAddBiasInto", func() []float64 {
			acc := fill(out)
			for i := range acc {
				acc[i] = float64(i) // deterministic accumulator
			}
			tmp := make([]float64, out)
			sc.vecMatAddBiasInto(acc, tmp, x[:in], w, bias)
			return acc
		}},
		{"projectLogits", func() []float64 {
			lg := make([]float64, out)
			sc.projectLogits(lg, x[:in], w[:out*in], in)
			return lg
		}},
	}
	for _, k := range kernels {
		var want []float64
		withKernelProcs(t, 1, func() { want = k.run() })
		for _, procs := range []int{2, 3, 5, 8} {
			withKernelProcs(t, procs, func() {
				got := k.run()
				if !bitsEqual(want, got) {
					t.Errorf("%s: procs=%d differs from serial", k.name, procs)
				}
			})
		}
	}
}

// TestSetKernelProcs pins the budget clamps: non-positive resets to
// GOMAXPROCS, the cap bounds runaway values, and the previous value is
// returned.
func TestSetKernelProcs(t *testing.T) {
	prev := SetKernelProcs(3)
	defer SetKernelProcs(prev)
	if got := KernelProcs(); got != 3 {
		t.Fatalf("KernelProcs = %d, want 3", got)
	}
	if old := SetKernelProcs(kernelProcsLimit + 10); old != 3 {
		t.Fatalf("SetKernelProcs returned %d, want 3", old)
	}
	if got := KernelProcs(); got != kernelProcsLimit {
		t.Fatalf("KernelProcs = %d, want clamp %d", got, kernelProcsLimit)
	}
	if SetKernelProcs(0); KernelProcs() < 1 {
		t.Fatalf("KernelProcs = %d after reset, want >= 1", KernelProcs())
	}
}

// coverJob counts how often each element of a parallelFor is visited and
// checks the worker index it ran under.
type coverJob struct {
	t     *testing.T
	procs int
	mu    sync.Mutex
	seen  []int
}

func (j *coverJob) run(w, lo, hi int) {
	if w >= j.procs && j.procs > 0 {
		j.t.Errorf("worker index %d out of range", w)
	}
	j.mu.Lock()
	for i := lo; i < hi; i++ {
		j.seen[i]++
	}
	j.mu.Unlock()
}

// TestParallelForChunks pins parallelFor's contract: full disjoint
// coverage of [0, n), minChunk respected, dense worker indices.
func TestParallelForChunks(t *testing.T) {
	for _, tc := range []struct{ procs, n, minChunk int }{
		{1, 10, 1}, {4, 10, 1}, {8, 3, 1}, {4, 100, 30}, {4, 0, 1}, {3, 7, 2},
	} {
		t.Run(fmt.Sprintf("p%d_n%d_m%d", tc.procs, tc.n, tc.minChunk), func(t *testing.T) {
			job := &coverJob{t: t, procs: tc.procs, seen: make([]int, tc.n)}
			var wg sync.WaitGroup
			parallelFor(&wg, job, tc.procs, tc.n, tc.minChunk)
			for i, c := range job.seen {
				if c != 1 {
					t.Fatalf("element %d covered %d times", i, c)
				}
			}
		})
	}
}

// TestStepAllocFree pins the fork/join's cost at the reference shape: a
// single-row step and a 2-row stepBatch allocate nothing per call at any
// worker count, with attention past its head-split floor (T >= 114), so
// every kernel forks through preallocated arena jobs.
func TestStepAllocFree(t *testing.T) {
	m, err := NewModel(Config{Vocab: 512, Ctx: 256, Dim: 96, Heads: 4, Layers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const warm, runs = 120, 20
	for _, procs := range []int{1, 2, 4} {
		withKernelProcs(t, procs, func() {
			st := m.newGenState()
			for st.pos < warm {
				st.step(st.pos % m.cfg.Vocab)
			}
			if n := testing.AllocsPerRun(runs, func() { st.step(3) }); n != 0 {
				t.Errorf("procs=%d: step allocates %v times per call, want 0", procs, n)
			}

			states := []*genState{m.newGenState(), m.newGenState()}
			toks := []int{3, 5}
			bs := m.newBatchScratch(len(states))
			for states[0].pos < warm {
				m.stepBatch(states, toks, bs)
			}
			if n := testing.AllocsPerRun(runs, func() { m.stepBatch(states, toks, bs) }); n != 0 {
				t.Errorf("procs=%d: 2-row stepBatch allocates %v times per call, want 0", procs, n)
			}
		})
	}
}
