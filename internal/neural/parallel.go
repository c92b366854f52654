package neural

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The decode kernels below split their work across a bounded set of worker
// goroutines: matmuls by output rows, row-vector products by output-column
// tiles, attention by heads, the logit projection by vocabulary range. Every
// split preserves the serial kernels' per-element accumulation order
// (ascending input index, zero inputs skipped), so the parallel kernels are
// bit-identical to the serial ones at any worker count — pinned by
// TestParallelStepBitIdentical and friends. Work below a per-worker floor
// (kernelMinWork multiply-adds) stays on the calling goroutine, so tiny
// models and single-core hosts pay one atomic load per kernel call and
// nothing else.

// kernelMinWork is the minimum number of multiply-adds a chunk must carry
// before a kernel forks it to a worker; below it, goroutine handoff costs
// more than the arithmetic.
const kernelMinWork = 8192

// maxKernelWorkers bounds the total worker goroutines across all concurrent
// generations. Chunks dispatched beyond the bound run inline on the
// submitting goroutine, so saturation degrades to serial execution instead
// of unbounded goroutine growth.
const maxKernelWorkers = 32

// kernelProcsLimit caps SetKernelProcs/WISDOM_KERNEL_PROCS so scratch
// arenas (sized per worker) stay bounded.
const kernelProcsLimit = 64

var kernelProcsVal atomic.Int32

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("WISDOM_KERNEL_PROCS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	SetKernelProcs(n)
}

// KernelProcs returns the current kernel worker budget: how many goroutines
// one decode kernel call may split its work across. It defaults to
// GOMAXPROCS at startup, overridable with the WISDOM_KERNEL_PROCS
// environment variable or SetKernelProcs.
func KernelProcs() int { return int(kernelProcsVal.Load()) }

// SetKernelProcs sets the kernel worker budget and returns the previous
// value. n <= 0 resets to GOMAXPROCS; values above an internal cap are
// clamped. Parallel and serial kernels are bit-identical, so the setting
// trades only scheduling overhead against core utilisation; 1 forces fully
// serial kernels. Safe to call concurrently, but scratch arenas allocated
// while the budget was lower cap attention-head parallelism at their
// creation-time budget.
func SetKernelProcs(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > kernelProcsLimit {
		n = kernelProcsLimit
	}
	return int(kernelProcsVal.Swap(int32(n)))
}

// kernelJob is one fork site of a decode kernel: run computes chunk [lo, hi)
// of its work, using worker (dense in [0, procs)) to select per-worker
// scratch. Jobs live in the arena that owns the step's buffers
// (decodeScratch, batchScratch) and a kernel fills its job in place before
// forking it, so a fork allocates nothing at any worker count.
type kernelJob interface {
	run(worker, lo, hi int)
}

// kernelTask is one contiguous chunk of a parallelFor handed to a worker.
// It travels by value; job and wg point into the forking arena.
type kernelTask struct {
	job    kernelJob
	worker int
	lo, hi int
	wg     *sync.WaitGroup
}

func (t kernelTask) run() {
	t.job.run(t.worker, t.lo, t.hi)
	t.wg.Done()
}

var (
	kernelQueue   = make(chan kernelTask)
	kernelWorkers atomic.Int32
)

// dispatchKernel hands a chunk to an idle worker, spawns a new worker while
// under the bound, or runs the chunk inline when the pool is saturated.
func dispatchKernel(t kernelTask) {
	select {
	case kernelQueue <- t:
		return
	default:
	}
	if kernelWorkers.Add(1) <= maxKernelWorkers {
		go func(first kernelTask) {
			first.run()
			for t := range kernelQueue {
				t.run()
			}
		}(t)
		return
	}
	kernelWorkers.Add(-1)
	t.run()
}

// parallelFor splits [0, n) into up to procs contiguous chunks and runs
// job on each, blocking on wg until all complete. Chunks never shrink below
// minChunk elements (the per-worker work floor), and the calling goroutine
// always runs chunk 0. procs <= 1, small n, or a saturated worker pool all
// degrade to plain serial execution of the same element order. job and wg
// are shared with the workers until parallelFor returns, so the arena that
// owns them must not fork them again from another goroutine meanwhile.
func parallelFor(wg *sync.WaitGroup, job kernelJob, procs, n, minChunk int) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if maxP := n / minChunk; procs > maxP {
		procs = maxP
	}
	if procs <= 1 {
		job.run(0, 0, n)
		return
	}
	chunk := (n + procs - 1) / procs
	for w := 1; w*chunk < n; w++ {
		wg.Add(1)
		dispatchKernel(kernelTask{job: job, worker: w, lo: w * chunk, hi: min(n, (w+1)*chunk), wg: wg})
	}
	job.run(0, 0, chunk)
	wg.Wait()
}

// minTileCols is the column-tile floor for a row-vector product with in
// inputs: tiles carry at least kernelMinWork multiply-adds.
func minTileCols(in int) int {
	if in <= 0 {
		return 1
	}
	c := kernelMinWork / in
	if c < 1 {
		c = 1
	}
	return c
}

// vecMatTile accumulates one column tile [lo, hi) of dst = x @ w
// (w: len(x) x out). Identical element order to the full serial product:
// each dst[j] sums x[i]*w[i*out+j] over ascending i with zero inputs
// skipped. The inner loop handles four independent columns per pass, which
// changes no element's order; a one-column loop is short enough that its
// speed swung by ~40% with where the linker happened to place it.
func vecMatTile(dst, x, w []float64, out, lo, hi int) {
	dr := dst[lo:hi]
	clear(dr)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		wr := w[i*out+lo : i*out+hi]
		j := 0
		for ; j+4 <= len(wr); j += 4 {
			d, v := dr[j:j+4:j+4], wr[j:j+4:j+4]
			d[0] += xv * v[0]
			d[1] += xv * v[1]
			d[2] += xv * v[2]
			d[3] += xv * v[3]
		}
		for ; j < len(wr); j++ {
			dr[j] += xv * wr[j]
		}
	}
}

// vecMatJob is vecMatInto's fork: column tiles of dst = x @ w.
type vecMatJob struct{ dst, x, w []float64 }

func (j *vecMatJob) run(_, lo, hi int) { vecMatTile(j.dst, j.x, j.w, len(j.dst), lo, hi) }

// geluJob is vecMatBiasGeluInto's fork: column tiles of
// dst = gelu(x @ w + bias).
type geluJob struct{ dst, x, w, bias []float64 }

func (j *geluJob) run(_, lo, hi int) {
	dst, bias := j.dst, j.bias
	vecMatTile(dst, j.x, j.w, len(dst), lo, hi)
	for i := lo; i < hi; i++ {
		dst[i] = gelu(dst[i] + bias[i])
	}
}

// vecMatBiasGeluInto computes dst[j] = gelu((x @ w)[j] + bias[j]) — the MLP
// up-projection with its bias and activation fused into the tile pass, so
// the tile is read again while cache-hot instead of in two full sweeps.
func (sc *decodeScratch) vecMatBiasGeluInto(dst, x, w, bias []float64) {
	sc.gelu = geluJob{dst, x, w, bias}
	parallelFor(&sc.wg, &sc.gelu, KernelProcs(), len(dst), minTileCols(len(x)))
}

// addBiasJob is vecMatAddBiasInto's fork: column tiles of
// acc += x @ w + bias, with the product tiles in tmp.
type addBiasJob struct{ acc, tmp, x, w, bias []float64 }

func (j *addBiasJob) run(_, lo, hi int) {
	acc, tmp, bias := j.acc, j.tmp, j.bias
	vecMatTile(tmp, j.x, j.w, len(acc), lo, hi)
	if bias != nil {
		for i := lo; i < hi; i++ {
			acc[i] += tmp[i] + bias[i]
		}
	} else {
		for i := lo; i < hi; i++ {
			acc[i] += tmp[i]
		}
	}
}

// vecMatAddBiasInto computes acc[j] += (x @ w)[j] + bias[j] (bias may be
// nil), the fused residual update of the attention and MLP output
// projections. tmp is the product buffer (len(acc)); the accumulation adds
// the completed dot product to acc exactly like the unfused
// product-then-add sequence did.
func (sc *decodeScratch) vecMatAddBiasInto(acc, tmp, x, w, bias []float64) {
	sc.addBias = addBiasJob{acc, tmp, x, w, bias}
	parallelFor(&sc.wg, &sc.addBias, KernelProcs(), len(acc), minTileCols(len(x)))
}

// matmulRows runs rows [t0, t1) of dst = x @ w (x: T x in, w: in x out)
// with the exact serial accumulation order per row.
func matmulRows(dst, x []float64, t0, t1, in int, w []float64, out int) {
	for t := t0; t < t1; t++ {
		vecMatTile(dst[t*out:(t+1)*out], x[t*in:(t+1)*in], w, out, 0, out)
	}
}

// matmulBiasGeluRows is matmulRows with the bias add and GELU fused onto
// each finished row while it is cache-hot.
func matmulBiasGeluRows(dst, x []float64, t0, t1, in int, w []float64, out int, bias []float64) {
	matmulRows(dst, x, t0, t1, in, w, out)
	for t := t0; t < t1; t++ {
		yr := dst[t*out : (t+1)*out]
		for j := range yr {
			yr[j] = gelu(yr[j] + bias[j])
		}
	}
}

// matmulAddBiasRows computes acc[t*out+j] += (x @ w)[t*out+j] + bias[j] for
// rows [t0, t1) — the batched form of vecMatAddBiasInto. tmp holds the
// product rows; bias may be nil.
func matmulAddBiasRows(acc, tmp, x []float64, t0, t1, in int, w []float64, out int, bias []float64) {
	matmulRows(tmp, x, t0, t1, in, w, out)
	for t := t0; t < t1; t++ {
		ar := acc[t*out : (t+1)*out]
		tr := tmp[t*out : (t+1)*out]
		if bias != nil {
			for j := range ar {
				ar[j] += tr[j] + bias[j]
			}
		} else {
			for j := range ar {
				ar[j] += tr[j]
			}
		}
	}
}

// attendHeads runs heads [h0, h1) of causal attention for one query row over
// the cached keys/values, writing each head's output into its slice of att.
// scores must have length T. Heads touch disjoint att ranges, so head
// ranges parallelize without synchronisation.
func attendHeads(att, q, k, v, scores []float64, h0, h1, dh, d int, scale float64) {
	T := len(scores)
	for h := h0; h < h1; h++ {
		off := h * dh
		for i := 0; i < dh; i++ {
			att[off+i] = 0
		}
		maxs := math.Inf(-1)
		for u := 0; u < T; u++ {
			dot := 0.0
			for i := 0; i < dh; i++ {
				dot += q[off+i] * k[u*d+off+i]
			}
			dot *= scale
			scores[u] = dot
			if dot > maxs {
				maxs = dot
			}
		}
		sum := 0.0
		for u := 0; u < T; u++ {
			scores[u] = math.Exp(scores[u] - maxs)
			sum += scores[u]
		}
		for u := 0; u < T; u++ {
			p := scores[u] / sum
			for i := 0; i < dh; i++ {
				att[off+i] += p * v[u*d+off+i]
			}
		}
	}
}

// attendJob is attendRowPar's fork over heads: worker w scores into row w
// of scores (ctxCap positions per row), so no buffer is shared.
type attendJob struct {
	att, q, k, v, scores []float64
	ctxCap, T, dh, d     int
	scale                float64
}

func (j *attendJob) run(w, h0, h1 int) {
	attendHeads(j.att, j.q, j.k, j.v, j.scores[w*j.ctxCap:w*j.ctxCap+j.T], h0, h1, j.dh, j.d, j.scale)
}

// attendRowPar is attendRow split across heads. sc.scores carries one row
// of ctxCap positions per worker the arena was sized for; the effective
// parallelism is min(KernelProcs, scratch rows).
func (sc *decodeScratch) attendRowPar(att, q, k, v []float64, ctxCap, T, heads, dh, d int, scale float64) {
	procs := min(KernelProcs(), len(sc.scores)/ctxCap)
	sc.attend = attendJob{att, q, k, v, sc.scores, ctxCap, T, dh, d, scale}
	parallelFor(&sc.wg, &sc.attend, procs, heads, minAttendHeads(T, dh))
}

// minAttendHeads is the per-worker head floor: one head costs about
// 3*T*dh multiply-adds (score, softmax, weighted sum).
func minAttendHeads(T, dh int) int {
	work := 3 * T * dh
	if work <= 0 {
		return 1
	}
	h := kernelMinWork / work
	if h < 1 {
		h = 1
	}
	return h
}

// projectLogitsRange fills logits[lo:hi] with hf @ tokEmb^T over that
// vocabulary range.
func projectLogitsRange(logits, hf, emb []float64, d, lo, hi int) {
	for tokID := lo; tokID < hi; tokID++ {
		e := emb[tokID*d : (tokID+1)*d]
		dot := 0.0
		for i := 0; i < d; i++ {
			dot += hf[i] * e[i]
		}
		logits[tokID] = dot
	}
}
