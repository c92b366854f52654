package neural

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrEngineClosed is returned by Engine.Submit/Generate after Close: the
// engine is draining or drained and accepts no new sequences.
var ErrEngineClosed = errors.New("neural: engine closed")

// engineQueueFullError marks the engine's backpressure rejection. It
// implements Overloaded() so serving layers can classify it as overload
// (HTTP 503 + Retry-After) without importing this package's sentinels —
// the same structural-typing seam the serve interfaces use.
type engineQueueFullError struct{}

// Error describes the rejection.
func (engineQueueFullError) Error() string { return "neural: engine queue full" }

// Overloaded reports that the error is load shedding, not failure.
func (engineQueueFullError) Overloaded() bool { return true }

// ErrEngineQueueFull is returned by Engine.Submit/Generate when the
// admission queue is at capacity; the caller should shed or retry later.
var ErrEngineQueueFull error = engineQueueFullError{}

// EngineConfig sizes a continuous-batching Engine.
type EngineConfig struct {
	// MaxBatch is how many sequences decode together per step (<= 0: 8).
	MaxBatch int
	// Queue bounds submissions waiting for a batch slot (<= 0: 4*MaxBatch).
	// A full queue rejects Submit with ErrEngineQueueFull.
	Queue int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
	return c
}

// EngineStats is a point-in-time snapshot of an Engine's scheduling
// counters.
type EngineStats struct {
	// MaxBatch is the configured step-batch capacity.
	MaxBatch int
	// Active is how many sequences are decoding right now.
	Active int
	// Queued is how many accepted submissions await a batch slot.
	Queued int
	// Admitted counts sequences moved from the queue into the batch.
	Admitted uint64
	// Retired counts sequences that finished, were cancelled, or died
	// queued; Admitted - Retired equals Active plus retirements in flight.
	Retired uint64
	// Steps counts stepBatch invocations; RowSteps counts sequence-steps
	// (one per live row per step), so RowSteps/(Steps*MaxBatch) is the
	// engine's cumulative batch occupancy.
	Steps    uint64
	RowSteps uint64
	// QueueWaitSeconds is the cumulative time admitted sequences spent
	// queued.
	QueueWaitSeconds float64
}

// Occupancy returns the cumulative batch occupancy in [0, 1]: the mean
// fraction of the step batch that held live rows while the engine was
// stepping (idle periods don't count). 1.0 means every step ran full.
func (s EngineStats) Occupancy() float64 {
	if s.Steps == 0 || s.MaxBatch == 0 {
		return 0
	}
	return float64(s.RowSteps) / (float64(s.Steps) * float64(s.MaxBatch))
}

// engineJob is one accepted submission, handed from Submit to the engine
// loop and back through done.
type engineJob struct {
	ctx    context.Context
	prefix []int
	maxNew int
	opts   GenOptions
	enq    time.Time
	out    []int         // result, written by the loop before done closes
	done   chan struct{} // closed when the row has retired
}

// engineRow is a live sequence occupying one slot of the step batch: the
// shared decode row plus the state it steps and the job whose waiter it
// reports to.
type engineRow struct {
	decodeRow
	job   *engineJob
	st    *genState
	next  int // token to feed on the upcoming step
	start time.Time
}

// Engine is a continuous-batching decode scheduler: one persistent loop
// owns the model's step batch, admits queued sequences into free slots and
// retires finished ones at every step boundary — vLLM/Orca-style
// iteration-level scheduling, against request-level batching, where a
// batch's slots stay allocated until its last row finishes. Short sequences
// therefore never wait for long ones beyond the step in flight, and the
// batch matmul stays as full as the queue allows.
//
// Rows are independent: each has its own prefix, budget, stop conditions,
// sampling source and OnToken hook, rows at different positions batch
// fine, and each row's output is token-for-token what a solo GenerateCached
// call would produce — both drive the same decodeRow. Cancellation (the
// job's ctx or GenOptions.Cancel) retires a row at the next step boundary,
// freeing its slot for the queue. An Engine is safe for concurrent
// Submit/Generate calls from any number of goroutines.
type Engine struct {
	m   *Model
	cfg EngineConfig

	mu      sync.Mutex
	queue   []*engineJob
	closed  bool
	onAdmit func(waitSeconds float64)

	wake chan struct{} // 1-buffered: submission or Close nudges the loop
	done chan struct{} // closed when the loop has drained and exited

	active    atomic.Int32
	queued    atomic.Int32
	admitted  atomic.Uint64
	retired   atomic.Uint64
	steps     atomic.Uint64
	rowSteps  atomic.Uint64
	waitNanos atomic.Int64
}

// NewEngine starts a continuous-batching engine over the model. The engine
// runs one background scheduling goroutine until Close.
func (m *Model) NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{
		m:    m,
		cfg:  cfg.withDefaults(),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go e.loop()
	return e
}

// Ticket is the handle to one submitted generation: Submit returns it once
// the sequence is accepted (queued), Wait blocks until the sequence has
// retired and returns its tokens. The split lets a streaming caller emit
// its first bytes after admission is guaranteed but before decoding ends.
type Ticket struct {
	e         *Engine
	job       *engineJob
	solo      bool // decode on the waiter's goroutine (engine can't batch it)
	relay     chan int
	relayDone chan struct{}
}

// Submit queues one sequence for continuous-batched decoding and returns
// its Ticket. It fails fast with ErrEngineQueueFull when the queue is at
// capacity (nothing was enqueued and no OnToken will fire) and
// ErrEngineClosed after Close. Sequences the step batch cannot hold — an
// empty prefix, a non-positive maxNew, or prefix+maxNew overflowing the
// context window — are accepted but decode as a solo GenerateCached call on
// the goroutine that calls Wait.
//
// opts.OnToken is decoupled from the scheduling loop: tokens are forwarded
// through a per-sequence buffer and delivered in order on a separate
// goroutine, so a hook that blocks (a slow streaming client) stalls only
// its own sequence's delivery, never the engine. Wait returns only after
// the hook has seen every token. A nil ctx means context.Background().
func (e *Engine) Submit(ctx context.Context, prefix []int, maxNew int, opts GenOptions) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	job := &engineJob{ctx: ctx, prefix: prefix, maxNew: maxNew, opts: opts, done: make(chan struct{})}
	t := &Ticket{e: e, job: job}
	if len(prefix) == 0 || maxNew <= 0 || len(prefix)+maxNew-1 > e.m.cfg.Ctx {
		t.solo = true
		return t, nil
	}
	if opts.OnToken != nil {
		// The relay buffer holds every token the row can produce, so the
		// engine loop's send never blocks.
		orig := opts.OnToken
		t.relay = make(chan int, maxNew)
		t.relayDone = make(chan struct{})
		go func(ch <-chan int, done chan<- struct{}) {
			defer close(done)
			for tok := range ch {
				orig(tok)
			}
		}(t.relay, t.relayDone)
		relay := t.relay
		job.opts.OnToken = func(tok int) { relay <- tok }
	}
	job.enq = time.Now()
	e.mu.Lock()
	switch {
	case e.closed:
		e.mu.Unlock()
		t.stopRelay()
		return nil, ErrEngineClosed
	case len(e.queue) >= e.cfg.Queue:
		e.mu.Unlock()
		t.stopRelay()
		return nil, ErrEngineQueueFull
	}
	e.queue = append(e.queue, job)
	e.queued.Store(int32(len(e.queue)))
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
	return t, nil
}

// stopRelay tears down an unused OnToken relay after a rejected Submit.
func (t *Ticket) stopRelay() {
	if t.relay != nil {
		close(t.relay)
		<-t.relayDone
		t.relay, t.relayDone = nil, nil
	}
}

// Wait blocks until the sequence has retired and returns its tokens —
// partial output when it was cancelled, matching GenerateCached's
// cancellation semantics. The OnToken hook has completed for every
// returned token before Wait returns.
func (t *Ticket) Wait() []int {
	if t.solo {
		// The original opts (with the caller's OnToken, un-relayed) run on
		// this goroutine, just like a direct GenerateCached call.
		return t.e.m.GenerateCached(t.job.prefix, t.job.maxNew, t.job.opts)
	}
	<-t.job.done
	t.stopRelay()
	return t.job.out
}

// Generate submits one sequence and waits for it: GenerateCached semantics
// (including partial output on cancellation) with continuous-batched
// scheduling, or an immediate ErrEngineQueueFull/ErrEngineClosed.
func (e *Engine) Generate(ctx context.Context, prefix []int, maxNew int, opts GenOptions) ([]int, error) {
	t, err := e.Submit(ctx, prefix, maxNew, opts)
	if err != nil {
		return nil, err
	}
	return t.Wait(), nil
}

// Close stops admission, drains every queued and active sequence, and
// waits (bounded by ctx; nil means wait forever) for the scheduling loop
// to exit. Submissions accepted before Close still complete — a serving
// layer's graceful shutdown needs exactly that. Close is idempotent.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a snapshot of the engine's scheduling counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		MaxBatch:         e.cfg.MaxBatch,
		Active:           int(e.active.Load()),
		Queued:           int(e.queued.Load()),
		Admitted:         e.admitted.Load(),
		Retired:          e.retired.Load(),
		Steps:            e.steps.Load(),
		RowSteps:         e.rowSteps.Load(),
		QueueWaitSeconds: time.Duration(e.waitNanos.Load()).Seconds(),
	}
}

// SetQueueWaitObserver registers a hook receiving each admitted sequence's
// queue wait in seconds (the serving layer points a histogram here). Call
// before traffic; a nil hook disables it.
func (e *Engine) SetQueueWaitObserver(fn func(waitSeconds float64)) {
	e.mu.Lock()
	e.onAdmit = fn
	e.mu.Unlock()
}

// loop is the scheduler: admit to capacity, step the batch once, retire
// finished rows, repeat; block when idle, exit when closed and drained.
func (e *Engine) loop() {
	defer close(e.done)
	maxB := e.cfg.MaxBatch
	bs := e.m.newBatchScratch(maxB)
	var free []*genState // retired rows' states, reset for reuse
	active := make([]*engineRow, 0, maxB)
	states := make([]*genState, 0, maxB)
	toks := make([]int, 0, maxB)

	for {
		active = e.admit(active, &free)
		if len(active) == 0 {
			e.mu.Lock()
			idle := len(e.queue) == 0
			closed := e.closed
			e.mu.Unlock()
			if idle {
				if closed {
					return
				}
				<-e.wake
			}
			continue
		}

		states, toks = states[:0], toks[:0]
		for _, row := range active {
			states = append(states, row.st)
			toks = append(toks, row.next)
		}
		e.m.stepBatch(states, toks, bs)
		e.steps.Add(1)
		e.rowSteps.Add(uint64(len(active)))

		live := active[:0]
		for _, row := range active {
			if row.proceed(row.st.logits) {
				live = append(live, row)
			} else {
				e.retire(row, &free)
			}
		}
		// Rows past the live tail keep *engineRow references alive in the
		// backing array; clear them so retired rows get collected.
		for i := len(live); i < len(active); i++ {
			active[i] = nil
		}
		active = live
		e.active.Store(int32(len(active)))
	}
}

// proceed runs the shared row's transition on the logits of the step just
// taken (nil at admission) and reports whether the row stays live. The
// engine's one addition to decodeRow.advance: a dead job context retires
// the row at the step boundary with its partial output.
func (row *engineRow) proceed(logits []float64) bool {
	if row.job.ctx.Err() != nil {
		return false
	}
	var live bool
	row.next, live = row.advance(logits)
	return live
}

// admit fills free batch slots from the queue (FIFO). Jobs whose context
// died while queued retire immediately without costing a slot or a step.
func (e *Engine) admit(active []*engineRow, free *[]*genState) []*engineRow {
	if len(active) >= e.cfg.MaxBatch {
		return active
	}
	e.mu.Lock()
	n := e.cfg.MaxBatch - len(active)
	if n > len(e.queue) {
		n = len(e.queue)
	}
	take := make([]*engineJob, n)
	copy(take, e.queue)
	rest := copy(e.queue, e.queue[n:])
	for i := rest; i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = e.queue[:rest]
	e.queued.Store(int32(rest))
	onAdmit := e.onAdmit
	e.mu.Unlock()

	now := time.Now()
	for _, job := range take {
		e.admitted.Add(1)
		e.waitNanos.Add(int64(now.Sub(job.enq)))
		if onAdmit != nil {
			onAdmit(now.Sub(job.enq).Seconds())
		}
		row := &engineRow{decodeRow: newDecodeRow(job.prefix, job.maxNew, job.opts), job: job, start: now}
		if !row.proceed(nil) {
			close(job.done)
			e.retired.Add(1)
			continue
		}
		if k := len(*free); k > 0 {
			row.st, *free = (*free)[k-1], (*free)[:k-1]
		} else {
			row.st = e.m.newGenState()
		}
		active = append(active, row)
	}
	e.active.Store(int32(len(active)))
	return active
}

// retire publishes a finished row's output, releases its waiter, and
// recycles its decode state.
func (e *Engine) retire(row *engineRow, free *[]*genState) {
	row.job.out = row.out
	close(row.job.done)
	e.retired.Add(1)
	if e.m.obs != nil {
		e.m.obs.recordGeneration(len(row.out), time.Since(row.start))
	}
	row.st.reset()
	*free = append(*free, row.st)
	row.st = nil
}
