package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wisdom/internal/neural"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func bound(b float64) *float64 { return &b }

// testSpec is the repository's BENCHMARK.json; tests run in this directory.
func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkAgainst reports the first way res departs from the metric list it was
// supposed to report: a missing or extra name, or a wrong unit.
func (res *runResult) checkAgainst(specs []metricSpec) error {
	if len(res.Metrics) != len(specs) {
		return fmt.Errorf("result has %d metrics, the spec lists %d", len(res.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is missing from the result", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s is reported in %q, the spec says %q", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {90, 37}, {100, 40}, {-5, 10}, {120, 40}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || mean(nil) != 0 {
		t.Error("empty samples must report 0")
	}
	if !near(mean(xs), 25) || !near(median([]float64{3}), 3) {
		t.Error("mean or single-value median wrong")
	}
}

// The spread rule is written against Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5}, 5, 5},
		{[]float64{1, 2, 4, 8}, 1.25, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spreadShare([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("spreadShare = %v, want 0.2", got)
	}
	if spreadShare([]float64{0, 0}) != 0 || share(1, 0) != 0 {
		t.Error("a zero median or denominator must not divide")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Span: 1, Parent: 0, Start: 0, End: 100},
		{Span: 2, Parent: 1, Start: 10, End: 30},
		{Span: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: covers 30..50 more
		{Span: 4, Parent: 1, Start: 90, End: 130}, // runs past its parent: clipped to 90..100
		{Span: 5, Parent: 2, Start: 10, End: 30},  // covers its parent entirely
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 0, 3: 30, 4: 40, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	tr.begin("k", 7)
	now := tr.epoch
	tr.add(tr.reqFor("k"), layerPredict, now, now.Add(10))
	tr.add(tr.reqFor("unknown"), layerPredict, now, now.Add(10)) // nobody announced it: dropped
	tr.addReported(7, layerHandle, now, now.Add(1000), 0.0005)
	tr.addReported(7, layerFront, now, now.Add(100), 5) // reported longer than its parent: clamped
	tr.end("k")
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	if s := tr.spans[0]; s.Span != 7*8+layerPredict+1 || s.Parent != s.Span-1 || s.Name != "wisdom.predict" {
		t.Errorf("predict span mislabelled: %+v", s)
	}
	if s := tr.spans[1]; s.Start != 0 || s.End != 500 {
		t.Errorf("reported span not placed at its parent's start: %+v", s)
	}
	if s := tr.spans[2]; s.Start != 0 || s.End != 100 {
		t.Errorf("over-long reported span not clamped: %+v", s)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || len(lines) != 3 {
		t.Fatalf("trace file malformed: %v, %d lines", err, len(lines))
	}
	for _, key := range []string{"req", "span", "parent", "name", "start_ns", "end_ns"} {
		if _, ok := first[key]; !ok {
			t.Errorf("span line lacks %q", key)
		}
	}
	tr.reset()
	if len(tr.spans) != 0 {
		t.Error("reset kept spans")
	}
}

func TestParseProm(t *testing.T) {
	s := parseProm("# HELP x y\n# TYPE x counter\nx{proto=\"http\"} 3\nx{proto=\"rpc\"} 4\nxy 9\nh_sum 0.5\nbroken\nbad value\n")
	if s.sum("x") != 7 || s.sum("xy") != 9 || s.sum("h_sum") != 0.5 || len(s) != 4 {
		t.Errorf("parsed %v", s)
	}
	other := scrape{"xy": 1}
	other.merge(s)
	if delta(other, s, "xy") != 1 {
		t.Errorf("delta = %v, want 1", delta(other, s, "xy"))
	}
	if got := replicaBalance(
		scrape{`wisdom_router_backend_requests_total{backend="a"}`: 30, `wisdom_router_backend_requests_total{backend="b"}`: 50},
		scrape{`wisdom_router_backend_requests_total{backend="a"}`: 10, `wisdom_router_backend_requests_total{backend="b"}`: 10},
	); !near(got, 0.5) {
		t.Errorf("replicaBalance = %v, want 0.5", got)
	}
	if replicaBalance(scrape{}, scrape{}) != 0 {
		t.Error("no backends must balance to 0")
	}
}

// BENCHMARK.json keeps the shape the driver's contract and ISSUE 11 give it.
func TestSpecShape(t *testing.T) {
	spec := testSpec(t)
	want := []string{wlUnaryDistinct, wlEditorSessions, wlBurstRepeats, wlNgramDefault}
	if !reflect.DeepEqual(spec.workloadNames(), want) {
		t.Errorf("workloads %v, want %v", spec.workloadNames(), want)
	}
	if len(spec.EndToEnd) != 13 || len(spec.PerLayer) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("%d end-to-end, %d per-layer metrics, run_seconds %d", len(spec.EndToEnd), len(spec.PerLayer), spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
}

func TestSpecValidation(t *testing.T) {
	ok := func() benchSpec {
		return benchSpec{
			Workloads: []workloadSpec{{Name: wlNgramDefault, Why: "because"}},
			EndToEnd:  []metricSpec{{Name: "a_ms", Unit: "ms", Better: "lower", Bound: bound(0.1)}},
			PerLayer:  []metricSpec{{Name: "x.y", Unit: "count", Better: "higher"}},
		}
	}
	if s := ok(); s.validate() != nil {
		t.Fatalf("valid spec rejected: %v", s.validate())
	}
	for name, breakIt := range map[string]func(*benchSpec){
		"bad name":          func(s *benchSpec) { s.EndToEnd[0].Name = "a b" },
		"leading dash":      func(s *benchSpec) { s.PerLayer[0].Name = "-x" },
		"duplicate":         func(s *benchSpec) { s.PerLayer[0].Name = "a_ms" },
		"no unit":           func(s *benchSpec) { s.PerLayer[0].Unit = "" },
		"bad direction":     func(s *benchSpec) { s.EndToEnd[0].Better = "faster" },
		"no bound":          func(s *benchSpec) { s.EndToEnd[0].Bound = nil },
		"bound too wide":    func(s *benchSpec) { s.EndToEnd[0].Bound = bound(0.3) },
		"bound on a layer":  func(s *benchSpec) { s.PerLayer[0].Bound = bound(0.1) },
		"workload no why":   func(s *benchSpec) { s.Workloads[0].Why = "" },
		"workload bad name": func(s *benchSpec) { s.Workloads[0].Name = "w/1" },
		"unknown workload":  func(s *benchSpec) { s.Workloads[0].Name = "w1" },
	} {
		s := ok()
		breakIt(&s)
		if s.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := loadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing spec file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := loadSpec(bad); err == nil {
		t.Error("malformed spec file accepted")
	}
}

func TestResultSchema(t *testing.T) {
	spec := testSpec(t)
	m := newMetricSet(spec.EndToEnd)
	m.set("setup_s", 0.5)
	metrics, err := m.result()
	if err != nil {
		t.Fatal(err)
	}
	res := &runResult{Metrics: metrics}
	if err := res.checkAgainst(spec.EndToEnd); err != nil {
		t.Fatal(err)
	}
	if res.Metrics["latency_p50_ms"].Unit != "ms" || res.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("metrics %v", res.Metrics)
	}
	if res.checkAgainst(spec.PerLayer) == nil {
		t.Error("end-to-end result passed as per-layer")
	}
	delete(res.Metrics, "setup_s")
	res.Metrics["extra"] = measured{}
	if res.checkAgainst(spec.EndToEnd) == nil {
		t.Error("missing metric accepted")
	}
	res.Metrics, _ = m.result()
	res.Metrics["setup_s"] = measured{Value: 1, Unit: "ms"}
	if res.checkAgainst(spec.EndToEnd) == nil {
		t.Error("wrong unit accepted")
	}
	m.set("nonsense", 1)
	if _, err := m.result(); err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Errorf("a metric BENCHMARK.json does not list was reported: %v", err)
	}
}

func TestRefCheckpointGoldens(t *testing.T) {
	d, err := loadRefData()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.pool) != refPool || d.manifest.Config.Dim != refDim || d.manifest.Config.Layers != refLayers ||
		d.manifest.Config.Vocab != refVocab || d.manifest.Config.Ctx != refCtx || d.manifest.Recipe != defaultRecipe {
		t.Fatalf("manifest %+v does not describe %s under the default recipe", d.manifest, refName)
	}
	m, err := d.newModel()
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for i := 0; i < len(d.pool); i += len(d.pool) / 6 {
		task := d.pool[i]
		if got := m.Predict("", task.Prompt); got != task.Golden {
			t.Errorf("golden %d: Predict(%q) =\n%q\nwant\n%q", i, task.Prompt, got, task.Golden)
		}
		if schemaCorrect(task.Golden) {
			valid++
		}
	}
	if valid == 0 {
		t.Error("no checked golden is schema correct")
	}
}

func TestTrainRefTiny(t *testing.T) {
	r := defaultRecipe
	r.PoolSize, r.Variants, r.Epochs = 8, 2, 1
	dir := t.TempDir()
	var log []string
	if err := trainRef(dir, r, func(s string) { log = append(log, s) }); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, refName+".manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man refManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	weights, err := os.ReadFile(filepath.Join(dir, refName+".weights.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Recipe != r || man.SHA256[refName+".weights.gob"] != sha256Hex(weights) || len(log) == 0 {
		t.Errorf("manifest %+v does not describe what was written", man)
	}
	again := t.TempDir()
	if err := trainRef(again, r, func(string) {}); err != nil {
		t.Fatal(err)
	}
	if raw2, _ := os.ReadFile(filepath.Join(again, refName+".manifest.json")); !bytes.Equal(raw, raw2) {
		t.Error("two trainings of one recipe wrote different checkpoints")
	}
	r.MaxTaskToks = 1
	if trainRef(dir, r, func(string) {}) == nil {
		t.Error("a pool no task fits must fail")
	}
}

func refUniverse(t *testing.T) *universe {
	t.Helper()
	d, err := loadRefData()
	if err != nil {
		t.Fatal(err)
	}
	return d.tasks()
}

func TestWorkloadDigests(t *testing.T) {
	u := refUniverse(t)
	for _, w := range testSpec(t).workloadNames() {
		a, b := digestRequests(w, 1, u, clientCount, 120), digestRequests(w, 1, u, clientCount, 120)
		if a != b {
			t.Errorf("%s: seed 1 gave two digests", w)
		}
		if c := digestRequests(w, 2, u, clientCount, 120); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w)
		}
	}
}

func TestDistinctSourceNeverRepeats(t *testing.T) {
	u := refUniverse(t)
	seen := map[string]bool{}
	empty := 0
	sizes := map[int]int{}
	for c, g := range newGenerators(wlUnaryDistinct, 3, u, clientCount) {
		for i := 0; i < 600; i++ {
			r := g.next()
			key := r.Req.Context + "\x00" + r.Req.Prompt
			if seen[key] {
				t.Fatalf("client %d request %d repeats a key", c, i)
			}
			seen[key] = true
			if r.Via != httpUnary || r.Req.SessionID != "" || r.Pause != 0 {
				t.Fatalf("unexpected request %+v", r)
			}
			if r.Req.Context == "" {
				empty++
			}
			sizes[strings.Count(r.Req.Context, "- name: ")]++
			if n := len(u.tok.Encode(r.Req.Context + nameLine(r.Req.Prompt) + "\n")); n > u.budget {
				t.Fatalf("input of %d tokens exceeds the budget %d", n, u.budget)
			}
		}
	}
	if empty != len(u.tasks) {
		t.Errorf("%d empty-context requests, want each of the %d tasks once", empty, len(u.tasks))
	}
	if sizes[1] < 300 || sizes[2] < 300 || sizes[3] < 250 || sizes[4] != 0 {
		t.Errorf("context sizes %v, want 1, 2 and 3 about equally often", sizes)
	}
}

// Any dozen consecutive requests of a client carry about the same work: the
// prompts of one round of the twelve (class, size) pairs cover every class.
func TestDistinctSourceIsStratified(t *testing.T) {
	u := refUniverse(t)
	class := map[string]int{}
	for q := 0; q < strata; q++ {
		lo, hi := u.stratum(q)
		for _, task := range u.tasks[lo:hi] {
			class[task.Prompt] = q
		}
	}
	g := newGenerators(wlNgramDefault, 5, u, clientCount)[1]
	for block := 0; block < 10; block++ {
		var perClass [strata]int
		for i := 0; i < 12; i++ {
			perClass[class[g.next().Req.Prompt]]++
		}
		if perClass != [strata]int{3, 3, 3, 3} {
			t.Fatalf("block %d drew %v prompts per class, want 3 of each", block, perClass)
		}
	}
}

func TestEditorGenTypesGrowingPrefixes(t *testing.T) {
	u := refUniverse(t)
	g := newGenerators(wlEditorSessions, 1, u, clientCount)[0]
	var prev request
	restarts := 0
	for i := 0; i < 200; i++ {
		r := g.next()
		if r.Via != httpSSE || r.Req.SessionID == "" || strings.TrimSpace(r.Req.Prompt) == "" {
			t.Fatalf("request %d: %+v", i, r)
		}
		// The editor pauses only between tasks, never while typing a name.
		if r.Pause < 0 || r.Pause >= acceptPauseMax || (i%keystrokesPerTask != 0 || i == 0) && r.Pause != 0 {
			t.Fatalf("request %d pauses %v", i, r.Pause)
		}
		if i%keystrokesPerTask != 0 {
			if !strings.HasPrefix(r.Req.Prompt, prev.Req.Prompt) || len(r.Req.Prompt) <= len(prev.Req.Prompt) || r.Req.Context != prev.Req.Context {
				t.Fatalf("keystroke %d does not extend %q: %q", i, prev.Req.Prompt, r.Req.Prompt)
			}
		} else if i > 0 {
			switch {
			case r.Req.Context == "":
				restarts++
			case !strings.HasPrefix(r.Req.Context, prev.Req.Context) || len(r.Req.Context) <= len(prev.Req.Context):
				t.Fatalf("task %d: the accepted task did not extend the buffer", i/keystrokesPerTask)
			}
		}
		if len(u.tok.Encode(r.Req.Context+nameLine(r.Req.Prompt)+"\n")) > u.budget {
			t.Fatalf("request %d outgrows the window", i)
		}
		prev = r
	}
	if restarts == 0 {
		t.Error("the buffer never restarted")
	}
}

// The two editors' sessions are owned by different replicas under every seed:
// the ring places a session by its id, which does not carry the seed.
func TestEditorsOwnDifferentReplicas(t *testing.T) {
	u := refUniverse(t)
	ring := fleetRing()
	for seed := int64(1); seed <= 3; seed++ {
		owners := map[string]bool{}
		for _, g := range newGenerators(wlEditorSessions, seed, u, clientCount) {
			owner, ok := ring.Lookup("s\x00" + g.next().Req.SessionID)
			if !ok {
				t.Fatal("the ring owns nothing")
			}
			owners[owner] = true
		}
		if len(owners) != clientCount {
			t.Errorf("seed %d: the editors' sessions live on %v, want one replica each", seed, owners)
		}
	}
}

// An editor accepts what it was served for the full name, not the pool body.
func TestEditorGenAcceptsServedSuggestion(t *testing.T) {
	u := refUniverse(t)
	g := newGenerators(wlEditorSessions, 1, u, clientCount)[0].(*editorGen)
	for k := 1; k <= keystrokesPerTask; k++ {
		r := g.next()
		g.served("- name: " + r.Req.Prompt + "\n  served: after keystroke\n")
	}
	if ctx := g.next().Req.Context; !strings.HasSuffix(ctx, "served: after keystroke\n") || strings.Count(ctx, "served:") != 1 {
		t.Errorf("buffer after the first task: %q", ctx)
	}
	for k := 2; k <= keystrokesPerTask; k++ {
		g.next()
	}
	g.served("no trailing newline")
	if ctx := g.next().Req.Context; strings.Contains(ctx, "no trailing newline") {
		t.Errorf("an unterminated suggestion was accepted: %q", ctx)
	}
}

func TestBurstGenRepeatShare(t *testing.T) {
	u := refUniverse(t)
	g := newGenerators(wlBurstRepeats, 1, u, clientCount)[1]
	seen := map[string]bool{}
	repeats, novelStreams, repeatStreams, n := 0, 0, 0, 1000
	for i := 0; i < n; i++ {
		r := g.next()
		key := r.Req.Context + "\x00" + r.Req.Prompt
		if seen[key] {
			repeats++
			if r.Req.SessionID != "" {
				t.Fatalf("repeat %d carries a session id", i)
			}
			if r.Via == rpcStream {
				repeatStreams++
			}
			continue
		}
		seen[key] = true
		if r.Req.SessionID == "" {
			t.Fatalf("novel request %d lacks its one-shot session id", i)
		}
		if r.Via == rpcStream {
			novelStreams++
		}
	}
	if got := float64(repeats) / float64(n); got < 0.69 || got > 0.71 {
		t.Errorf("repeat share %.3f, want 0.70", got)
	}
	if d := novelStreamOneIn*novelStreams - (n - repeats); d < -novelStreamOneIn || d > novelStreamOneIn {
		t.Errorf("%d of %d novel requests streamed, want one in %d", novelStreams, n-repeats, novelStreamOneIn)
	}
	if d := 2*repeatStreams - repeats; d < -1 || d > 1 {
		t.Errorf("%d of %d repeats streamed, want half", repeatStreams, repeats)
	}
}

func TestUniverseRejectsTinyPools(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a universe of three tasks must be refused")
		}
	}()
	newUniverse(make([]poolTask, 3), nil, 0)
}

// tinyRef is the reference checkpoint with its weights swapped for an
// untrained one-layer transformer over the same tokenizer and pool: it
// rambles to the token limit and the memory fallback answers, which is all a
// test of the plumbing needs.
func tinyRef(string) (modelSource, error) {
	d, err := loadRefData()
	if err != nil {
		return nil, err
	}
	nm, err := neural.NewModel(neural.Config{Vocab: refVocab, Ctx: refCtx, Dim: 16, Heads: 2, Layers: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := nm.Save(&buf); err != nil {
		return nil, err
	}
	d.weights = buf.Bytes()
	return d, nil
}

func tinyOpts(t *testing.T, workload string, seed int64) runOpts {
	o := defaultOpts(testSpec(t), workload, seed, 0.25)
	o.setups, o.warmup, o.traceN = 1, 3, 6
	if raceDetector && workload != wlNgramDefault {
		o.source = tinyRef
	}
	if workload == wlNgramDefault {
		o.traceN = 60 // five in six prompts are answered from memory; some must reach the LM
	}
	return o
}

// TestSmoke runs every workload for a handful of requests on a seed no number
// in the README was taken on: every answer must match the serial golden,
// nothing may fail or leak, and every listed metric must be reported.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	for _, w := range spec.workloadNames() {
		o := tinyOpts(t, w, 2)
		o.outDir = t.TempDir()
		o.logf = t.Logf
		rep, err := measure(o, true, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if err := rep.endToEnd.checkAgainst(spec.EndToEnd); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		if err := rep.perLayer.checkAgainst(spec.PerLayer); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		for name, res := range map[string]*runResult{"end to end": rep.endToEnd, "traced": rep.perLayer} {
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w, name, res.Correct, res.Attempted, res.Failed)
			}
		}
		for _, name := range []string{"setup_s", "latency_p50_ms", "first_delta_p50_ms", "req_per_s", "tok_per_s", "cpu_ms_per_req", "allocs_per_req"} {
			if rep.endToEnd.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w, name, rep.endToEnd.Metrics[name].Value)
			}
		}
		if got := rep.endToEnd.Metrics["answer_match_share"].Value; got != 1 {
			t.Errorf("%s: answer_match_share = %v", w, got)
		}
		pl := rep.perLayer.Metrics
		if pl["client.requests_sent"].Value != float64(clientCount*o.traceN) || pl["process.goroutines_leaked"].Value != 0 {
			t.Errorf("%s: sent %v, leaked %v", w, pl["client.requests_sent"].Value, pl["process.goroutines_leaked"].Value)
		}
		if w != wlNgramDefault && (pl["neural.steps_per_req"].Value <= 0 || pl["wisdom.predict_ms_p50"].Value <= 0) {
			t.Errorf("%s: the traced run saw no transformer work: %v steps/req", w, pl["neural.steps_per_req"].Value)
		}
		if w == wlNgramDefault && (pl["neural.steps_per_req"].Value != 0 || pl["ngram.complete_us_p50"].Value <= 0) {
			t.Errorf("%s: neural %v steps/req, ngram %v us", w, pl["neural.steps_per_req"].Value, pl["ngram.complete_us_p50"].Value)
		}
		if !strings.Contains(rep.budget, "against mean latency") {
			t.Errorf("%s: budget line %q", w, rep.budget)
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w+".jsonl")); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestTracedCountsRepeat: the traced window is a fixed request list, so the
// decode-step and generated-token counts of two runs of one seed are equal.
func TestTracedCountsRepeat(t *testing.T) {
	var counts [2][2]float64
	for i := range counts {
		rep, err := measure(tinyOpts(t, wlUnaryDistinct, 1), false, true)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = [2]float64{rep.perLayer.Metrics["neural.steps_per_req"].Value, rep.perLayer.Metrics["neural.generated_tokens_per_req"].Value}
	}
	if counts[0] != counts[1] || counts[0][0] == 0 {
		t.Errorf("counts differ between two runs of seed 1: %v", counts)
	}
}

func TestDriverMode(t *testing.T) {
	if raceDetector {
		t.Skip("the command line always serves the full reference transformer, which outruns the 2 s request deadline under the race detector")
	}
	spec := testSpec(t)
	var stdout, stderr bytes.Buffer
	out := t.TempDir()
	args := []string{"--workload", wlEditorSessions, "--seed", "1", "--seconds", "0.3", "--trace", "0", "-out", out, "-spec", "../BENCHMARK.json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if err := res.checkAgainst(spec.EndToEnd); err != nil || !res.Correct || res.Attempted < 1 {
		t.Errorf("result %+v: %v", res, err)
	}
	var asMap map[string]any
	json.Unmarshal([]byte(lines[len(lines)-1]), &asMap)
	if len(asMap) != 4 {
		t.Errorf("result object has keys %v, want exactly correct, attempted, failed, metrics", asMap)
	}

	stdout.Reset()
	args[7] = "1"
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("traced: exit %d: %s", code, stderr.String())
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var traced runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &traced); err != nil {
		t.Fatal(err)
	}
	if err := traced.checkAgainst(spec.PerLayer); err != nil {
		t.Error(err)
	}

	if code := run([]string{"--workload", "nope", "-spec", "../BENCHMARK.json"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"--workload", wlEditorSessions}, &stdout, &stderr); code != 1 {
		t.Errorf("a directory without BENCHMARK.json: exit %d, want 1", code)
	}
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	zeros, _ := newMetricSet(spec.EndToEnd).result()
	if emit(&stdout, "w", spec.EndToEnd, &runResult{Metrics: zeros}) == 0 {
		t.Error("an incorrect run must exit non-zero")
	}
}

func resultWith(t *testing.T, dir, name string, latency float64, correct bool) string {
	t.Helper()
	spec := testSpec(t)
	m := newMetricSet(spec.EndToEnd)
	for _, s := range spec.EndToEnd {
		m.set(s.Name, 1)
	}
	m.set("latency_p50_ms", latency)
	metrics, err := m.result()
	if err != nil {
		t.Fatal(err)
	}
	rf := resultFile{Workloads: map[string]workloadResult{}}
	for _, w := range spec.workloadNames() {
		rf.Workloads[w] = workloadResult{EndToEnd: &runResult{Correct: correct, Attempted: 1, Metrics: metrics}}
	}
	raw, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "l", Better: "lower", Bound: bound(0.10)}
	higher := metricSpec{Name: "h", Better: "higher", Bound: bound(0.10)}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{103, 104, 102}, verdictUnchanged},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictRegression},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictImproved},
		{lower, []float64{100, 130, 80}, []float64{103, 104, 102}, verdictUnresolved}, // a's own spread is 50%
		{lower, []float64{100, 101, 99}, []float64{100, 140, 70}, verdictUnresolved},  // so is b's
		{lower, []float64{100, 130, 80}, []float64{150, 151, 149}, verdictRegression}, // worse beyond any spread
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictRegression},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictImproved},
	} {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	var base, same, slow []string
	for i, l := range []float64{10, 10.1, 9.9} {
		base = append(base, resultWith(t, dir, "a"+string(rune('0'+i))+".json", l, true))
		same = append(same, resultWith(t, dir, "b"+string(rune('0'+i))+".json", l+0.2, true))
		slow = append(slow, resultWith(t, dir, "c"+string(rune('0'+i))+".json", l*1.5, true))
	}
	broken := resultWith(t, dir, "d.json", 10, false)
	var stdout, stderr bytes.Buffer
	cmp := func(a, b string) int {
		stdout.Reset()
		return run([]string{"-compare", "-spec", "../BENCHMARK.json", a, b}, &stdout, &stderr)
	}
	if code := cmp(strings.Join(base, ","), strings.Join(same, ",")); code != 0 || strings.Contains(stdout.String(), verdictRegression) {
		t.Errorf("same code: exit %d\n%s", code, stdout.String())
	}
	if n := strings.Count(stdout.String(), "\n"); n != 1+len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("%d lines, want a header and one row per workload and metric", n)
	}
	if code := cmp(strings.Join(base, ","), strings.Join(slow, ",")); code != 1 || strings.Count(stdout.String(), verdictRegression) != len(spec.Workloads) {
		t.Errorf("slower code: exit %d\n%s", code, stdout.String())
	}
	if code := cmp(strings.Join(base, ","), broken); code != 1 {
		t.Errorf("a failed correctness check must count as a regression: exit %d", code)
	}
	if code := cmp(base[0], filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("missing file: exit %d", code)
	}
	os.WriteFile(filepath.Join(dir, "junk.json"), []byte("["), 0o644)
	if code := cmp(filepath.Join(dir, "junk.json"), base[0]); code != 1 {
		t.Errorf("malformed file: exit %d", code)
	}
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", base[0]}, &stdout, &stderr); code != 1 {
		t.Errorf("one argument: exit %d", code)
	}
	if code := run([]string{"-compare", "-spec", filepath.Join(dir, "missing.json"), base[0], base[0]}, &stdout, &stderr); code != 1 {
		t.Errorf("missing spec: exit %d", code)
	}
}
