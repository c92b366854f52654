package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"wisdom/internal/ansible"
	"wisdom/internal/neural"
	"wisdom/internal/router"
	"wisdom/internal/wisdom"
	"wisdom/internal/yaml"
)

// layerInputs is everything the traced run gathered.
type layerInputs struct {
	opts    runOpts
	win     *window // the traced window
	plain   *window // the untraced window, for the tracing overhead
	verdict verdict
	tr      *tracer
	before  fleetScrape
	after   fleetScrape
	sched0  schedCount // before the traced window
	sched1  schedCount // after it
	smp     *sampler
	probe   idleProbe
	ref     *wisdom.Model

	sessionReuse float64
}

// perLayerResult computes the per-layer metrics and the layer budget line.
func perLayerResult(in layerInputs) (*runResult, string, error) {
	m := newMetricSet(in.opts.spec.PerLayer)
	samples := in.win.all()
	n := float64(len(samples))
	v := in.verdict

	// client: bookkeeping for ok_share, and the gated metrics' ungated tail.
	var latency []float64
	streams, deltas, replaced := 0.0, 0.0, 0.0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		latency = append(latency, ms(s.latency))
		if s.req.Via.streams() {
			streams++
			deltas += float64(s.deltas)
			if s.resp.Replaced {
				replaced++
			}
		}
	}
	m.set("client.requests_sent", n)
	m.set("client.requests_ok", float64(v.attempted-v.failed))
	m.set("client.requests_failed", float64(v.failed))
	m.set("client.latency_p99_ms", percentile(latency, 99))

	// Spans: self time per layer, and the budget they add up to.
	// The fleet is torn down: nothing writes to the tracer any more.
	spans, emits, waits, ngramCalls := in.tr.spans, in.tr.emits, in.tr.waits, in.tr.ngram
	self := selfTimes(spans)
	var selfUS, durMS [layerCount][]float64
	for _, s := range spans {
		selfUS[s.layer] = append(selfUS[s.layer], float64(self[s.Span])/1e3)
		durMS[s.layer] = append(durMS[s.layer], float64(s.End-s.Start)/1e6)
	}
	m.set("client.self_us_p50", median(selfUS[layerClient]))
	m.set("router.front_self_us_p50", median(selfUS[layerFront]))
	m.set("router.hop_us_p50", median(selfUS[layerForward]))
	m.set("router.hop_us_p90", percentile(selfUS[layerForward], 90))
	m.set("serve.handle_self_us_p50", median(selfUS[layerHandle]))
	m.set("wisdom.predict_ms_p50", median(durMS[layerPredict]))
	m.set("wisdom.predict_ms_p90", percentile(durMS[layerPredict], 90))

	// Front (router tier) and replica (serve tier) counters, from /metrics.
	fa, fb := in.after.front, in.before.front
	ra, rb := in.after.replicas, in.before.replicas
	frontServed := delta(fa, fb, "wisdom_requests_total")
	m.set("router.front_cache_hit_share", share(delta(fa, fb, "wisdom_cached_responses_total"), frontServed))
	m.set("router.front_coalesced_share", share(delta(fa, fb, "wisdom_coalesced_requests_total"), frontServed))
	sessionReqs := 0.0
	for _, s := range samples {
		if s.req.Req.SessionID != "" && !s.resp.Cached {
			sessionReqs++
		}
	}
	if sessionReqs > 0 {
		m.set("router.session_owner_hit_share", 1-share(delta(fa, fb, "wisdom_router_session_moves_total"), sessionReqs))
	}
	m.set("router.spillovers", delta(fa, fb, "wisdom_router_spillover_total"))
	m.set("router.backend_errors", delta(fa, fb, "wisdom_router_backend_errors_total"))
	m.set("router.replica_balance", replicaBalance(fa, fb))
	m.set("router.ring_lookup_ns", ringLookupNS(samples))

	replicaServed := delta(ra, rb, "wisdom_requests_total")
	hits, misses := delta(ra, rb, "wisdom_cache_hits_total"), delta(ra, rb, "wisdom_cache_misses_total")
	m.set("serve.cache_hit_share", share(hits, hits+misses))
	m.set("serve.cache_evictions", delta(ra, rb, "wisdom_cache_evictions_total"))
	m.set("serve.coalesced_share", share(delta(ra, rb, "wisdom_coalesced_requests_total"), replicaServed))
	m.set("serve.shed", delta(ra, rb, "wisdom_shed_requests_total")+delta(fa, fb, "wisdom_shed_requests_total"))
	m.set("serve.pool_queued_max", float64(in.smp.poolQueuedMax))
	m.set("serve.rpc_rtt_us_p50", median(in.probe.rpcRTTus))
	m.set("serve.deltas_per_stream", share(deltas, streams))
	m.set("serve.stream_cancelled", delta(ra, rb, "wisdom_stream_cancelled_total")+delta(fa, fb, "wisdom_stream_cancelled_total"))

	// wisdom: what the model wrapper saw of each streamed prediction.
	var nameLineUS, firstBodyMS []float64
	for _, e := range emits {
		nameLineUS = append(nameLineUS, float64(e.nameLine.Nanoseconds())/1e3)
		if e.firstBody > 0 {
			firstBodyMS = append(firstBodyMS, ms(e.firstBody))
		}
	}
	m.set("wisdom.name_line_us_p50", median(nameLineUS))
	m.set("wisdom.first_body_ms_p50", median(firstBodyMS))
	m.set("wisdom.replaced_share", share(replaced, streams))

	// neural: exact counts and busy time from the transformer's own
	// instrumentation, which only the traced fleet switches on.
	steps := delta(ra, rb, "wisdom_decode_steps_total")
	stepBusyMS := delta(ra, rb, "wisdom_decode_step_seconds_sum") * 1e3
	m.set("neural.steps_per_req", share(steps, n))
	m.set("neural.generated_tokens_per_req", share(delta(ra, rb, "wisdom_generated_tokens_total"), n))
	m.set("neural.step_busy_ms_per_req", share(stepBusyMS, n))
	m.set("neural.step_us_mean", share(stepBusyMS*1e3, delta(ra, rb, "wisdom_decode_step_seconds_count")))
	predictMS := 0.0
	for _, d := range durMS[layerPredict] {
		predictMS += d
	}
	m.set("wisdom.self_ms_per_req", share(predictMS-stepBusyMS, n))
	for i := range waits {
		waits[i] *= 1e6
	}
	m.set("neural.sched_queue_wait_us_p50", median(waits))
	engineSteps := float64(in.sched1.steps - in.sched0.steps)
	rowSteps := float64(in.sched1.rowSteps - in.sched0.rowSteps)
	m.set("neural.sched_occupancy", share(rowSteps, engineSteps*schedMaxBatch))
	m.set("neural.sched_rows_per_step", share(rowSteps, engineSteps))
	m.set("neural.session_reuse_ratio", in.sessionReuse)
	m.set("neural.session_evictions", delta(ra, rb, "wisdom_session_evictions_total"))
	m.set("neural.session_active_max", float64(in.smp.sessionActiveMax))
	if nl := neuralOf(in.ref); nl != nil {
		m.set("neural.kernel_procs", float64(neural.KernelProcs()))
		replayNeural(m, in.ref, nl, samples)
	}

	replayCodecs(m, in.ref, samples)

	for i := range ngramCalls {
		ngramCalls[i] *= 1e6
	}
	m.set("ngram.complete_us_p50", median(ngramCalls))
	if in.opts.workload == wlNgramDefault {
		// A prediction that never reached the LM was answered from the
		// nearest-neighbour memory.
		predicts := float64(len(durMS[layerPredict]))
		m.set("retrieval.hit_share", share(predicts-float64(len(ngramCalls)), predicts))
	}

	m.set("observe.scrape_ms", ms(in.after.took))
	m.set("observe.series", float64(in.after.series))

	m.set("process.peak_rss_mb", peakRSSMB())
	m.set("process.gc_cpu_share", share(in.win.gcCPU, in.win.allCPU))
	m.set("process.gc_cycles", float64(in.win.gcCycles))
	m.set("process.goroutines_leaked", float64(in.win.leaked))
	m.set("process.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	// Tracing overhead: the same leading requests, traced against untraced.
	var plainLatency []float64
	for _, c := range in.plain.samples {
		if len(c) > in.opts.traceN {
			c = c[:in.opts.traceN]
		}
		for _, s := range c {
			if s.err == nil {
				plainLatency = append(plainLatency, ms(s.latency))
			}
		}
	}
	if p50 := median(plainLatency); p50 > 0 {
		m.set("trace.overhead_share", (median(latency)-p50)/p50)
	}

	// The budget: each layer's self time per request, summed, beside the mean
	// latency it should account for.
	perReq := func(selfUS []float64) float64 {
		total := 0.0
		for _, us := range selfUS {
			total += us
		}
		return share(total/1e3, n)
	}
	parts := []struct {
		name string
		ms   float64
	}{
		{"client.self", perReq(selfUS[layerClient])},
		{"router.front_self", perReq(selfUS[layerFront])},
		{"router.hop", perReq(selfUS[layerForward])},
		{"serve.handle_self", perReq(selfUS[layerHandle])},
		{"wisdom.self", share(predictMS-stepBusyMS, n)},
		{"neural.step_busy", share(stepBusyMS, n)},
	}
	sum, line := 0.0, "budget (ms/req):"
	for _, p := range parts {
		sum += p.ms
		line += fmt.Sprintf(" %s %.3f +", p.name, p.ms)
	}
	meanLatency := mean(latency)
	residual := share(meanLatency-sum, meanLatency)
	if residual < 0 {
		residual = -residual
	}
	m.set("budget.residual_share", residual)
	line = fmt.Sprintf("%s = %.3f against mean latency %.3f (residual %.1f%%)",
		line[:len(line)-2], sum, meanLatency, 100*residual)

	metrics, err := m.result()
	return &runResult{
		Correct:   v.correct() && in.win.busy == 0 && in.win.leaked == 0,
		Attempted: v.attempted, Failed: v.failed, Metrics: metrics,
	}, line, err
}

// replicaBalance is the least-loaded replica's forwards over the most-loaded
// one's: 1 is an even split.
func replicaBalance(after, before scrape) float64 {
	lo, hi := -1.0, 0.0
	for id := range after {
		if strings.HasPrefix(id, "wisdom_router_backend_requests_total{") {
			d := after[id] - before[id]
			if lo < 0 || d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
	}
	if lo < 0 {
		return 0
	}
	return share(lo, hi)
}

// fleetRing is a ring shaped like the fleet's: the router's default virtual
// nodes over the replicas' fixed addresses.
func fleetRing() *router.Ring {
	ring := router.NewRing(0)
	for i := 0; i < replicaCount; i++ {
		ring.Add(loopback(replicaPort0 + i))
	}
	return ring
}

// ringLookupNS times Ring.Lookup directly, over the window's own affinity keys.
func ringLookupNS(samples []sample) float64 {
	ring := fleetRing()
	var keys []string
	for _, s := range samples {
		keys = append(keys, "k\x00"+s.req.Req.Context+"\x00"+s.req.Req.Prompt)
	}
	if len(keys) == 0 {
		return 0
	}
	const rounds = 20000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		ring.Lookup(keys[i%len(keys)])
	}
	return float64(time.Since(start).Nanoseconds()) / rounds
}

// replayCodecs re-runs the tokenizer, the YAML parser and the Ansible
// validator over what the window sent and served, one call at a time.
func replayCodecs(m *metricSet, ref *wisdom.Model, samples []sample) {
	var encode, decode, parse, validate time.Duration
	promptTokens, answerTokens, answerBytes := 0, 0, 0
	parseFail, invalid, served := 0, 0, 0
	validator := ansible.NewValidator()
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		served++
		input := s.req.Req.Context + nameLine(s.req.Req.Prompt) + "\n"
		t0 := time.Now()
		ids := ref.Tok.Encode(input)
		encode += time.Since(t0)
		promptTokens += len(ids)

		out := ref.Tok.Encode(s.text)
		answerTokens += len(out)
		answerBytes += len(s.text)
		t0 = time.Now()
		ref.Tok.Decode(out)
		decode += time.Since(t0)

		t0 = time.Now()
		node, err := yaml.Parse(s.text)
		parse += time.Since(t0)
		if err != nil {
			parseFail++
			invalid++
			continue
		}
		t0 = time.Now()
		ok := validator.Valid(node)
		validate += time.Since(t0)
		if !ok {
			invalid++
		}
	}
	n := float64(served)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	m.set("tokenizer.encode_us_per_req", share(us(encode), n))
	m.set("tokenizer.decode_us_per_req", share(us(decode), n))
	m.set("tokenizer.prompt_tokens_per_req", share(float64(promptTokens), n))
	m.set("tokenizer.tokens_per_yaml_byte", share(float64(answerTokens), float64(answerBytes)))
	m.set("yaml.parse_us_per_req", share(us(parse), n))
	m.set("yaml.parse_fail_share", share(float64(parseFail), n))
	m.set("ansible.validate_us_per_req", share(us(validate), n))
	m.set("ansible.invalid_share", share(float64(invalid), n))
}

// replayNeuralLimit bounds the prefill/decode replay, which costs a full cold
// decode per request.
const replayNeuralLimit = 16

// replayNeural feeds the window's first prompts through GenerateCached one at
// a time: the wait for the first token is the prefill, the gaps after it the
// decode. It also computes (from tensor sizes, not measured) the arithmetic
// and the weight traffic of one decode step at the replayed sequence length.
func replayNeural(m *metricSet, ref *wisdom.Model, nl *wisdom.NeuralLM, samples []sample) {
	var prefill, perToken []float64
	positions, replayed := 0, 0
	for _, s := range samples {
		if replayed == replayNeuralLimit {
			break
		}
		if s.err != nil {
			continue
		}
		replayed++
		prefix := ref.Tok.Encode(s.req.Req.Context + nameLine(s.req.Req.Prompt) + "\n")
		start := time.Now()
		var first, last time.Time
		tokens := 0
		nl.Model.GenerateCached(prefix, ref.MaxNewTask, neural.GenOptions{
			StopToken: ref.Tok.Sep(),
			OnToken: func(int) {
				last = time.Now()
				if tokens == 0 {
					first = last
				}
				tokens++
			},
		})
		if tokens == 0 {
			continue
		}
		prefill = append(prefill, ms(first.Sub(start)))
		if tokens > 1 {
			perToken = append(perToken, ms(last.Sub(first))/float64(tokens-1))
		}
		positions += len(prefix) + tokens/2
	}
	m.set("neural.prefill_ms_p50", median(prefill))
	m.set("neural.decode_ms_per_token_p50", median(perToken))

	cfg := nl.Model.Config()
	hidden := cfg.MLPHidden
	if hidden == 0 {
		hidden = 4 * cfg.Dim
	}
	weights := float64(cfg.Layers*(4*cfg.Dim*cfg.Dim+2*cfg.Dim*hidden) + cfg.Dim*cfg.Vocab)
	meanPos := share(float64(positions), float64(len(prefill)))
	attention := float64(cfg.Layers) * 2 * meanPos * float64(cfg.Dim) // QK^T and AV, multiply-adds
	m.set("neural.step_flops", 2*(weights+attention))
	m.set("neural.step_weight_bytes", 8*weights) // float64 weights, each read once per step
}
