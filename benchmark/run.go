package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"wisdom/internal/serve"
	"wisdom/internal/wisdom"
)

// runOpts sizes one workload run.
type runOpts struct {
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64 // length of the untraced, timed window
	setups   int     // how often set-up is repeated; setup_s is the median
	warmup   int     // untimed requests per client before each window
	traceN   int     // requests per client in the traced window
	outDir   string  // where trace-<workload>.jsonl is written; "" writes none
	logf     func(format string, args ...any)
	// source does the model half of set-up; newSource outside tests, which
	// under the race detector substitute a transformer small enough to decode
	// inside the servers' 2 s request deadline.
	source func(workload string) (modelSource, error)
}

// workloadSizes sizes each workload's run. Set-up is repeated so its median is
// steady: often where it is cheap (loading the checked-in transformer, ~40
// ms), less often where it trains the n-gram model (~0.9 s). The warm-up lets
// lazy set-up finish and, for burst_repeats, fills the working set the repeats
// draw from. The traced window is a fixed number of requests, so that its
// counts (decode steps, generated tokens) repeat exactly from run to run; the
// rates put it at roughly 40% of --seconds at the seed commit.
var workloadSizes = map[string]struct {
	setups       int
	warmup       int
	tracedPerSec float64
}{
	wlUnaryDistinct:  {setups: 11, warmup: 12, tracedPerSec: 4.5},
	wlEditorSessions: {setups: 11, warmup: 12, tracedPerSec: 7},
	wlBurstRepeats:   {setups: 11, warmup: 40, tracedPerSec: 6},
	wlNgramDefault:   {setups: 5, warmup: 200, tracedPerSec: 200},
}

func defaultOpts(spec *benchSpec, workload string, seed int64, seconds float64) runOpts {
	size := workloadSizes[workload]
	n := int(size.tracedPerSec * seconds)
	if n < 8 {
		n = 8
	}
	return runOpts{
		spec: spec, workload: workload, seed: seed, seconds: seconds,
		setups: size.setups, warmup: size.warmup, traceN: n,
		logf: func(string, ...any) {}, source: newSource,
	}
}

// window is one measured slice of load and what the process spent on it.
type window struct {
	samples  [][]sample
	wall     time.Duration
	cpu      time.Duration // getrusage user+sys, whole process
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // seconds
	allCPU   float64 // seconds, as the runtime accounts it
	busy     int     // work still held in the fleet after the window
	leaked   int     // goroutines left over once the fleet is torn down
}

func (w *window) all() []sample {
	var out []sample
	for _, s := range w.samples {
		out = append(out, s...)
	}
	return out
}

// stack is one booted fleet with its clients connected.
type stack struct {
	src     modelSource
	fleet   *fleet
	clients []*client
}

// setUp is everything between a cold process and the first servable request:
// load (or train) the model, boot both replicas and the router on their
// sockets, connect every client and see one health round trip answered.
func setUp(o runOpts, tr *tracer) (*stack, error) {
	src, err := o.source(o.workload)
	if err != nil {
		return nil, err
	}
	f, err := bootFleet(src, tr)
	if err != nil {
		return nil, err
	}
	st := &stack{src: src, fleet: f}
	for i := 0; i < clientCount; i++ {
		c, err := newClient(i, f)
		if err != nil {
			return nil, errors.Join(err, st.tearDown())
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

func (st *stack) tearDown() error {
	for _, c := range st.clients {
		c.close()
	}
	return st.fleet.close()
}

func (st *stack) generators(o runOpts) []generator {
	return newGenerators(o.workload, o.seed, st.src.tasks(), clientCount)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// runWindow warms the stack up, then measures one window of load. Afterwards
// nothing may be left in a pool, a step batch or a stream (window.busy).
func runWindow(st *stack, gens []generator, warmup int, rule stopRule, traced bool) window {
	runClients(st.clients, gens, stopRule{count: warmup}, false)
	st.fleet.settle()
	if st.fleet.tr != nil {
		st.fleet.tr.reset()
	}
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, all0 := runtimeCPU()
	cpu0 := cpuTime()
	var w window
	w.samples, w.wall = runClients(st.clients, gens, rule, traced)
	w.cpu = cpuTime() - cpu0
	gc1, all1 := runtimeCPU()
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	w.gcCycles = after.NumGC - before.NumGC
	w.gcCPU, w.allCPU = gc1-gc0, all1-all0
	w.busy = st.fleet.settle()
	return w
}

// report is what one workload run produced. Either half may be nil.
type report struct {
	endToEnd *runResult
	perLayer *runResult
	budget   string // the layer budget beside mean latency, for printing
}

// measure runs one workload: timed set-ups, an untraced window for the
// end-to-end metrics and, when wanted, a traced window on a second fleet that
// has the benchmark's wrappers installed.
func measure(o runOpts, wantEndToEnd, wantPerLayer bool) (*report, error) {
	// Conservation across the whole workload: once its fleet is torn down,
	// the goroutine count must be back where it was before set-up.
	baseline := liveGoroutines()
	var setupTimes []float64
	var st *stack
	for i := 0; i < o.setups; i++ {
		if st != nil {
			if err := st.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		start := time.Now()
		var err error
		if st, err = setUp(o, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	o.logf("%s: set-up x%d median %.3f s", o.workload, len(setupTimes), median(setupTimes))
	ref, err := st.src.newModel()
	if err != nil {
		return nil, err
	}

	rep := &report{}
	seconds := o.seconds
	if !wantEndToEnd {
		seconds *= 0.4 // only the tracing-overhead baseline is needed
	}
	plain := runWindow(st, st.generators(o), o.warmup, stopRule{after: time.Duration(seconds * float64(time.Second))}, false)
	if err := st.tearDown(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	plain.leaked = goroutinesAbove(baseline)
	o.logf("%s: untraced window %.2f s, %d requests", o.workload, plain.wall.Seconds(), len(plain.all()))
	if wantEndToEnd {
		v := verify(ref, plain.samples)
		if rep.endToEnd, err = endToEndResult(o.spec.EndToEnd, &plain, v, setupTimes); err != nil {
			return nil, err
		}
		logVerdict(o, v, &plain)
	}
	if !wantPerLayer {
		return rep, nil
	}

	tr := newTracer()
	st, err = setUp(o, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	probe, err := probeIdle(st.fleet)
	if err != nil {
		return nil, errors.Join(err, st.tearDown())
	}
	// Warm up here rather than in runWindow, so that the counters' "before"
	// scrape falls between warm-up and window.
	gens := st.generators(o)
	runClients(st.clients, gens, stopRule{count: o.warmup}, false)
	before, err := scrapeFleet(st.fleet)
	if err != nil {
		return nil, errors.Join(err, st.tearDown())
	}
	sched0 := schedCounters(st.fleet)
	smp := startSampler(st.fleet)
	traced := runWindow(st, gens, 0, stopRule{count: o.traceN}, true)
	smp.stop()
	sched1 := schedCounters(st.fleet)
	after, err := scrapeFleet(st.fleet)
	if err != nil {
		return nil, errors.Join(err, st.tearDown())
	}
	in := layerInputs{
		opts: o, win: &traced, plain: &plain, tr: tr, before: before, after: after,
		sched0: sched0, sched1: sched1, smp: smp, probe: probe, ref: ref,
		sessionReuse: sessionReuse(st.fleet),
	}
	if err := st.tearDown(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	traced.leaked = goroutinesAbove(baseline)
	o.logf("%s: traced window %.2f s, %d requests", o.workload, traced.wall.Seconds(), len(traced.all()))
	in.verdict = verify(ref, traced.samples)
	logVerdict(o, in.verdict, &traced)
	if rep.perLayer, rep.budget, err = perLayerResult(in); err != nil {
		return nil, err
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func logVerdict(o runOpts, v verdict, w *window) {
	if v.firstFailure != "" {
		o.logf("%s: first failed request: %s", o.workload, v.firstFailure)
	}
	if v.firstMismatch != "" {
		o.logf("%s: first answer mismatch: %s", o.workload, v.firstMismatch)
	}
	if w.busy != 0 || w.leaked != 0 {
		o.logf("%s: conservation violated: %d units of work still held, %d goroutines leaked", o.workload, w.busy, w.leaked)
	}
}

// endToEndResult turns the untraced window into the user-visible metrics.
func endToEndResult(specs []metricSpec, w *window, v verdict, setupTimes []float64) (*runResult, error) {
	var latency, first []float64
	for _, s := range w.all() {
		if s.err == nil {
			latency = append(latency, ms(s.latency))
			first = append(first, ms(s.first))
		}
	}
	n := float64(v.attempted)
	m := newMetricSet(specs)
	m.set("setup_s", median(setupTimes))
	m.set("latency_p50_ms", percentile(latency, 50))
	m.set("latency_p90_ms", percentile(latency, 90))
	m.set("first_delta_p50_ms", percentile(first, 50))
	m.set("first_delta_p90_ms", percentile(first, 90))
	m.set("req_per_s", share(float64(v.attempted-v.failed), w.wall.Seconds()))
	m.set("tok_per_s", share(float64(v.bodyTokens), w.wall.Seconds()))
	m.set("cpu_ms_per_req", share(ms(w.cpu), n))
	m.set("allocs_per_req", share(float64(w.mallocs), n))
	m.set("alloc_kb_per_req", share(float64(w.bytes)/1024, n))
	m.set("ok_share", share(float64(v.attempted-v.failed), n))
	m.set("answer_match_share", share(float64(v.matched), n))
	m.set("schema_correct_share", share(float64(v.schemaCorrect), n))
	metrics, err := m.result()
	return &runResult{
		Correct:   v.correct() && w.busy == 0 && w.leaked == 0,
		Attempted: v.attempted, Failed: v.failed, Metrics: metrics,
	}, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// correct: every request was answered, and answered with the serial answer.
func (v verdict) correct() bool {
	return v.attempted > 0 && v.failed == 0 && v.matched == v.attempted
}

// schedCount is the replicas' cumulative engine step counters, summed.
type schedCount struct{ steps, rowSteps uint64 }

func schedCounters(f *fleet) (c schedCount) {
	for _, r := range f.replicas {
		_, _, _, _, _, _, steps, rowSteps := r.model.SchedStats()
		c.steps += steps
		c.rowSteps += rowSteps
	}
	return c
}

// sessionReuse is the request-weighted mean of the replicas' prefix reuse
// ratios over the fleet's life (warm-up included: the caches export no
// numerators to difference).
func sessionReuse(f *fleet) float64 {
	var sum, weight float64
	for _, r := range f.replicas {
		if enabled, _, _, ratio := r.model.SessionStats(); enabled {
			n := float64(r.srv.Requests())
			sum += ratio * n
			weight += n
		}
	}
	return share(sum, weight)
}

// idleProbe is what was measured on the fleet before any load.
type idleProbe struct {
	rpcRTTus []float64
}

// probeIdle times Client.Health against a replica: codec plus loopback.
func probeIdle(f *fleet) (idleProbe, error) {
	var p idleProbe
	c, err := serve.Dial(f.replicas[0].addr)
	if err != nil {
		return p, err
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := c.Health(); err != nil {
			return p, err
		}
		p.rpcRTTus = append(p.rpcRTTus, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return p, nil
}

// sampler polls gauges that only have a current value, to keep their maxima.
type sampler struct {
	quit, done       chan struct{}
	poolQueuedMax    int
	sessionActiveMax int
}

func startSampler(f *fleet) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			queued, active := 0, 0
			for _, r := range f.replicas {
				queued += r.srv.Pool().Queued()
				_, a, _, _ := r.model.SessionStats()
				active += a
			}
			if queued > s.poolQueuedMax {
				s.poolQueuedMax = queued
			}
			if active > s.sessionActiveMax {
				s.sessionActiveMax = active
			}
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// neuralOf returns the transformer behind a model, or nil for the n-gram zoo.
func neuralOf(m *wisdom.Model) *wisdom.NeuralLM {
	nl, _ := m.LM.(*wisdom.NeuralLM)
	return nl
}
