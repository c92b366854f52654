// Package wisdom implements the paper's primary contribution: the Ansible
// Wisdom natural-language → Ansible-YAML generation system. It ties the
// substrates together — tokenizer, language models (n-gram and transformer),
// retrieval, the dataset pipeline and the metrics — into pre-training,
// fine-tuning, generation and evaluation, and defines the model zoo of
// Table 2 (CodeGen-NL/-Multi/-Mono, Codex, and the four Wisdom variants).
package wisdom

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"wisdom/internal/ansible"
	"wisdom/internal/dataset"
	"wisdom/internal/lexical"
	"wisdom/internal/neural"
	"wisdom/internal/ngram"
	"wisdom/internal/retrieval"
	"wisdom/internal/tokenizer"
	"wisdom/internal/yaml"
)

// Generator is the decoding interface a language model must provide. The
// prompt tokens are passed separately so conditioned models (n-gram +
// lexical channel) can attend to them over any distance, the way the
// paper's transformers attend to the name line.
type Generator interface {
	// Complete extends prefix by up to maxNew tokens. prompt carries the
	// NL intent tokens (may be nil). stop (optional) halts generation
	// early; stopToken (when >= 0) halts on that token.
	Complete(prefix, prompt []int, maxNew int, stop func(generated []int) bool, stopToken int) []int
}

// promptTokens encodes a natural-language prompt for the lexical channel:
// the original tokens plus, when different, the lower-cased tokens, so
// "Start SSH server" associates with bodies written as "ssh" while exact
// case matches keep their full weight.
func promptTokens(tok *tokenizer.Tokenizer, prompt string) []int {
	ids := tok.Encode(prompt)
	if lower := strings.ToLower(prompt); lower != prompt {
		ids = append(ids, tok.Encode(lower)...)
	}
	return ids
}

// memoryKey encodes a prompt for the nearest-neighbour memory. Keys are
// case-folded: the user's intent is the same whether they type "Install
// nginx" or "INSTALL NGINX", and case-insensitive keying is what makes the
// memory robust to the letter-case perturbations the paper's limitations
// section asks about.
func memoryKey(tok *tokenizer.Tokenizer, prompt string) []int {
	return tok.Encode(strings.ToLower(prompt))
}

// decodeGreedy runs a generic greedy decoding loop over a next-token
// chooser.
func decodeGreedy(next func(seq []int) (int, bool), prefix []int, maxNew int, stop func([]int) bool, stopToken int) []int {
	seq := append([]int(nil), prefix...)
	var out []int
	for len(out) < maxNew {
		tok, ok := next(seq)
		if !ok {
			break
		}
		out = append(out, tok)
		seq = append(seq, tok)
		if stopToken >= 0 && tok == stopToken {
			break
		}
		if stop != nil && stop(out) {
			break
		}
	}
	return out
}

// NgramLM adapts an ngram.Model to the Generator interface, optionally
// conditioned on the prompt through a lexical translation channel.
type NgramLM struct {
	*ngram.Model
	// Lex, when non-nil, rescores candidates by their prompt affinity.
	Lex *lexical.Model
	// LexWeight scales the affinity term (default 1 when Lex is set).
	LexWeight float64
	// Temperature/TopK/Seed enable sampling; zero values mean greedy.
	Temperature float64
	TopK        int
	Seed        int64
}

// Complete implements Generator.
func (g *NgramLM) Complete(prefix, prompt []int, maxNew int, stop func([]int) bool, stopToken int) []int {
	if g.Lex != nil && g.Lex.Trained() && len(prompt) > 0 {
		w := g.LexWeight
		if w == 0 {
			w = 1
		}
		cov := newCoverage(len(prefix))
		next := func(seq []int) (int, bool) {
			// Interpolated decoding: candidates from the whole backoff
			// chain scored by the smoothed probability plus prompt
			// affinity. Pre-trained models decode this way because their
			// crawl-style corpora only partially match the standardised
			// test formatting; smoothing over all orders is what lets them
			// generalise across the style gap (fine-tuned models, whose
			// counts match the target style exactly, use longest-match
			// decoding instead — see blendLM).
			return argmaxCandidate(g.Model.Candidates(seq), func(tok int) float64 {
				p := g.Model.Prob(seq, tok)
				if p <= 0 {
					return math.Inf(-1)
				}
				return math.Log(p) + w*shapeAffinity(g.Lex.Affinity(prompt, tok), cov, seq, tok, g.Model.VocabSize())
			})
		}
		return decodeGreedy(next, prefix, maxNew, stop, stopToken)
	}
	opts := ngram.GenOptions{Stop: stop, StopToken: stopToken, Temperature: g.Temperature, TopK: g.TopK}
	if g.Temperature > 0 {
		opts.Rand = rand.New(rand.NewSource(g.Seed))
	}
	return g.Model.Generate(prefix, maxNew, opts)
}

// defaultLexWeight scales the lexical-affinity term against the n-gram
// log-probability during decoding. Values near 2 let the prompt's content
// words override the corpus-frequency prior at value positions (which is
// what attention does in the real model) while structural positions, where
// affinities are ~0, stay governed by the n-gram.
const defaultLexWeight = 2.0

// shapeAffinity turns a raw lexical affinity into the decoding bonus:
// positive affinities are damped by coverage (no repeated boosting);
// negative affinities pass through, suppressing content unrelated to the
// prompt. Special control tokens (the trailing vocabulary ids: separator,
// end-of-text, pad) are exempt — they never appear in bodies, so the
// channel has no signal about them, and suppressing them would prevent the
// model from ever ending a completion.
func shapeAffinity(a float64, cov *coverage, seq []int, tok, vocabSize int) float64 {
	if tok >= vocabSize-3 {
		return 0
	}
	if a > 0 {
		return cov.damp(seq, tok) * a
	}
	return a
}

// coverage implements the coverage damping of prompt-affinity rescoring: a
// token's positive affinity bonus decays with each time the token has
// already been emitted, preventing the degenerate loops that pure affinity
// boosting causes (the n-gram analogue of attention coverage in NMT).
type coverage struct {
	prefixLen int
}

func newCoverage(prefixLen int) *coverage { return &coverage{prefixLen: prefixLen} }

// damp returns the multiplier for tok's positive affinity given the tokens
// generated so far in seq (everything past the original prefix).
func (c *coverage) damp(seq []int, tok int) float64 {
	n := 0
	for _, t := range seq[c.prefixLen:] {
		if t == tok {
			n++
		}
	}
	switch n {
	case 0:
		return 1
	case 1:
		return 0.25
	default:
		return 0
	}
}

// chooseCandidate picks the next token from scored candidates: greedy when
// rng is nil or temperature <= 0, otherwise softmax sampling over the top-k
// scores at the given temperature.
func chooseCandidate(cands []int, score func(int) float64, temperature float64, topK int, rng *rand.Rand) (int, bool) {
	if rng == nil || temperature <= 0 {
		return argmaxCandidate(cands, score)
	}
	type scored struct {
		tok int
		s   float64
	}
	all := make([]scored, 0, len(cands))
	for _, tok := range cands {
		if v := score(tok); !math.IsInf(v, -1) {
			all = append(all, scored{tok, v})
		}
	}
	if len(all) == 0 {
		return 0, false
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].tok < all[j].tok
	})
	if topK > 0 && len(all) > topK {
		all = all[:topK]
	}
	maxs := all[0].s
	sum := 0.0
	ws := make([]float64, len(all))
	for i, c := range all {
		w := math.Exp((c.s - maxs) / temperature)
		ws[i] = w
		sum += w
	}
	r := rng.Float64() * sum
	for i, w := range ws {
		r -= w
		if r <= 0 {
			return all[i].tok, true
		}
	}
	return all[len(all)-1].tok, true
}

// argmaxCandidate picks the highest-scoring candidate (ties break on the
// smaller token id for determinism).
func argmaxCandidate(cands []int, score func(int) float64) (int, bool) {
	best, bestS := -1, math.Inf(-1)
	for _, tok := range cands {
		s := score(tok)
		if s > bestS || (s == bestS && best >= 0 && tok < best) {
			best, bestS = tok, s
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// NeuralLM adapts a neural.Model to the Generator interface. The prompt is
// ignored: the transformer attends to it natively within the prefix.
type NeuralLM struct {
	*neural.Model
	Temperature float64
	TopK        int
	Seed        int64
	// sessions, when set via EnableSessions, retains per-session decode
	// state so CompleteSession can reuse a shared token prefix.
	sessions *neural.SessionCache
	// engine, when set via EnableScheduler, continuous-batches concurrent
	// decodes through one persistent scheduling loop.
	engine *neural.Engine
}

// genOpts builds the GenOptions of one decode. Every NeuralLM path — solo,
// streamed, session and scheduled — goes through it, so they all run the
// same stop conditions and, when sampling, a per-request source seeded the
// same way: that is what keeps their outputs byte-identical.
func (g *NeuralLM) genOpts(stop func([]int) bool, stopToken int, onToken func(int), cancel <-chan struct{}) neural.GenOptions {
	opts := neural.GenOptions{
		Stop: stop, StopToken: stopToken,
		Temperature: g.Temperature, TopK: g.TopK,
		OnToken: onToken, Cancel: cancel,
	}
	if g.Temperature > 0 {
		opts.Rand = rand.New(rand.NewSource(g.Seed))
	}
	return opts
}

// Complete implements Generator. Decoding uses the KV cache, which is
// bit-identical to the full forward pass but linear per token.
func (g *NeuralLM) Complete(prefix, _ []int, maxNew int, stop func([]int) bool, stopToken int) []int {
	return g.Model.GenerateCached(prefix, maxNew, g.genOpts(stop, stopToken, nil, nil))
}

// Model is one NL→Ansible generation system: a tokenizer, a language model,
// an optional retrieval component, and the prompt/window policy.
//
// Once built (Pretrain/Finetune/LoadModel), a Model is frozen: Predict,
// GenerateSample and Evaluate read immutable state and derive any
// per-generation randomness and coverage tracking locally, so one Model
// instance serves concurrent requests without locking — the contract the
// serve package's worker pool relies on (see
// TestConcurrentPredictMatchesSerial).
type Model struct {
	// Name identifies the variant (Table 2 row).
	Name string
	// Tok is the BPE tokenizer shared by the zoo.
	Tok *tokenizer.Tokenizer
	// LM is the generative component.
	LM Generator
	// Retr, when non-nil, supplies memorised completions (the Codex
	// signature, and the fine-tuned nearest-neighbour memory); used when
	// its prompt similarity beats RetrThreshold.
	Retr *Memory
	// RetrThreshold is the minimum prompt similarity for a retrieval hit.
	RetrThreshold float64
	// CtxWindow is the inference context window in tokens; longer inputs
	// are left-truncated, as in the paper.
	CtxWindow int
	// Style selects the prompt formulation (name-completion vs prefix).
	Style dataset.PromptStyle
	// FewShotHint prepends "Ansible\n" on empty-context prompts, the trick
	// the paper applies to CodeGen and Codex in the few-shot setting.
	FewShotHint bool
	// MaxNewTask / MaxNewPlaybook bound generation length in tokens.
	MaxNewTask     int
	MaxNewPlaybook int
}

// defaultMax fills unset generation budgets.
func (m *Model) defaults() (maxTask, maxPB int) {
	maxTask, maxPB = m.MaxNewTask, m.MaxNewPlaybook
	if maxTask == 0 {
		maxTask = 120
	}
	if maxPB == 0 {
		maxPB = 300
	}
	return maxTask, maxPB
}

// genPlan is the resolved decoding work of one sample: either a completion
// already answered without the LM (retrieval hit) or the Complete call that
// still has to run.
type genPlan struct {
	done      bool
	text      string // valid when done
	prefix    []int
	prompt    []int
	maxNew    int
	stop      func([]int) bool
	stopToken int
}

// planSample runs everything in generate that precedes the LM call:
// prompt rendering, the retrieval channel, and context truncation.
func (m *Model) planSample(s dataset.Sample) genPlan {
	maxTask, maxPB := m.defaults()
	maxNew := maxTask
	if s.Type == dataset.NLtoPB {
		maxNew = maxPB
	}

	input := dataset.RenderInput(s, m.Style)
	if m.FewShotHint && s.Context == "" {
		input = dataset.FewShotPrefix + input
	}

	// Retrieval channel: a sufficiently similar memorised prompt returns
	// its stored completion verbatim.
	if m.Retr != nil {
		promptIDs := memoryKey(m.Tok, s.Prompt)
		ctxIDs := dataset.LeftTruncate(m.Tok.Encode(s.Context), m.CtxWindow/2)
		if val, srcIndent, ok := m.Retr.Lookup(promptIDs, ctxIDs, m.RetrThreshold); ok {
			body := m.Tok.Decode(val)
			return genPlan{done: true,
				text: dataset.ShiftIndent(body, srcIndent, dataset.NameLineIndent(s.NameLine))}
		}
	}

	ids := m.Tok.Encode(input)
	budget := m.CtxWindow - maxNew
	if budget < 8 {
		budget = 8
	}
	ids = dataset.LeftTruncate(ids, budget)

	indent := dataset.NameLineIndent(s.NameLine)
	return genPlan{
		prefix:    ids,
		prompt:    promptTokens(m.Tok, s.Prompt),
		maxNew:    maxNew,
		stop:      m.stopFunc(s.Type, indent),
		stopToken: m.Tok.Sep(),
	}
}

// finishSample turns the LM's raw token output into completion text.
func (m *Model) finishSample(out []int) string {
	text := m.Tok.Decode(out)
	text = strings.TrimSuffix(text, tokenizer.SepToken)
	text = strings.TrimSuffix(text, tokenizer.EndToken)
	return CutRepeatedLines(text)
}

// decoder starts the LM call of one planned request and returns the
// function that waits for its tokens. cancel and onToken (both optional)
// are the streaming hooks. The start/wait split is for the scheduler: its
// admission can fail, and must do so before a stream emits its first byte;
// the other decoders do all their work in wait and never fail.
type decoder func(p genPlan, cancel <-chan struct{}, onToken func(int)) (wait func() []int, err error)

// soloDecoder decodes on the caller's goroutine with no state carried
// between requests. An LM without a streaming path (the n-gram zoo) ignores
// the hooks and returns its tokens in one piece: sub-second n-gram decodes
// gain nothing from per-token emission.
func (m *Model) soloDecoder(p genPlan, cancel <-chan struct{}, onToken func(int)) (func() []int, error) {
	return func() []int {
		if sg, ok := m.LM.(StreamGenerator); ok {
			return sg.CompleteStream(cancel, p.prefix, p.prompt, p.maxNew, p.stop, p.stopToken, onToken)
		}
		return m.LM.Complete(p.prefix, p.prompt, p.maxNew, p.stop, p.stopToken)
	}, nil
}

// generate produces the raw completion text for one sample: retrieval hit
// or plan → decode → detokenise.
func (m *Model) generate(s dataset.Sample, dec decoder) (string, error) {
	p := m.planSample(s)
	if p.done {
		return p.text, nil
	}
	wait, err := dec(p, nil, nil)
	if err != nil {
		return "", err
	}
	return m.finishSample(wait()), nil
}

// GenerateSample produces the completion text for one evaluation sample:
// the body the model writes after the name line (or after the prefix-style
// prompt). The output is raw; use dataset.TruncateFirstTask for task types.
func (m *Model) GenerateSample(s dataset.Sample) string {
	raw, _ := m.generate(s, m.soloDecoder) // the solo decoder never fails
	return raw
}

// CutRepeatedLines truncates a completion at the first exactly-repeated
// complete line, the guard against degenerate repetition loops (repeated
// mapping keys cannot occur in valid YAML at one level, and repeated lines
// across levels are vanishingly rare in real tasks).
func CutRepeatedLines(text string) string {
	lines := strings.Split(text, "\n")
	seen := make(map[string]bool, len(lines))
	for i, l := range lines {
		if i == len(lines)-1 && !strings.HasSuffix(text, "\n") {
			break // incomplete trailing line
		}
		if strings.TrimSpace(l) == "" {
			continue
		}
		if seen[l] {
			return strings.Join(lines[:i], "\n") + "\n"
		}
		seen[l] = true
	}
	return text
}

// Memory is a nearest-neighbour store over (prompt, context) → completion
// examples. Lookup keys on prompt cosine similarity and re-ranks the
// qualifying hits by context overlap; the context view is truncated to the
// model's window, which is how the paper's context-window ablation
// manifests in this channel.
type Memory struct {
	ix      *retrieval.Index
	ctxBags []map[int]bool
	indents []int
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{ix: retrieval.New()} }

// Add stores one example; indent is the source sample's task indentation,
// so retrieved bodies can be re-indented when spliced into a differently
// nested context.
func (mem *Memory) Add(promptIDs, ctxIDs, value []int, indent int) {
	mem.ix.Add(promptIDs, value)
	mem.ctxBags = append(mem.ctxBags, tokenBag(ctxIDs))
	mem.indents = append(mem.indents, indent)
}

// Build finalises the memory; call after the last Add.
func (mem *Memory) Build() { mem.ix.Build() }

// Len returns the number of stored examples.
func (mem *Memory) Len() int { return mem.ix.Len() }

// Lookup returns the completion whose prompt matches with similarity >=
// threshold, breaking ties between similar prompts by context overlap, along
// with the indentation the stored body was written at.
func (mem *Memory) Lookup(promptIDs, ctxIDs []int, threshold float64) (value []int, indent int, ok bool) {
	hits := mem.ix.Query(promptIDs, 8)
	qBag := tokenBag(ctxIDs)
	bestIdx, bestScore := -1, -1.0
	for _, h := range hits {
		if h.Score < threshold {
			break // hits are sorted by score
		}
		// Prompt similarity dominates; context overlap breaks ties.
		score := h.Score + 0.05*jaccard(qBag, mem.ctxBags[h.Index])
		if score > bestScore {
			bestIdx, bestScore = h.Index, score
		}
	}
	if bestIdx < 0 {
		return nil, 0, false
	}
	return mem.ix.Entry(bestIdx).Value, mem.indents[bestIdx], true
}

func tokenBag(ids []int) map[int]bool {
	bag := make(map[int]bool, len(ids))
	for _, id := range ids {
		bag[id] = true
	}
	return bag
}

func jaccard(a, b map[int]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// stopFunc halts generation once the decoded completion has clearly left
// the snippet being generated: a dedent to or beyond the task's own indent
// (task types), or a blank line (both), or a second document marker
// (playbooks).
func (m *Model) stopFunc(t dataset.GenType, indent int) func([]int) bool {
	return func(generated []int) bool {
		if len(generated)%8 != 0 {
			return false // only inspect every 8 tokens; decoding is O(n)
		}
		text := m.Tok.Decode(generated)
		nl := strings.LastIndexByte(text, '\n')
		if nl < 0 {
			return false
		}
		complete := text[:nl]
		for _, line := range strings.Split(complete, "\n") {
			if strings.TrimSpace(line) == "" {
				return true
			}
			if t != dataset.NLtoPB {
				ind := len(line) - len(strings.TrimLeft(line, " "))
				if ind <= indent {
					return true
				}
			}
			if t == dataset.NLtoPB && strings.HasPrefix(line, "---") {
				return true
			}
		}
		return false
	}
}

// Predict generates a completion for a natural-language prompt with an
// optional Ansible context, the public one-shot API used by the serving
// layer and the examples. The context must be a (possibly empty) sequence
// of tasks or a playbook prefix; the prompt becomes the new task's name.
//
// Unlike the raw evaluation path, Predict post-processes its suggestion the
// way a product deployment would (the paper's ethics section anticipates
// "basic post-processing analysis" before productisation): when the sampled
// body is empty or fails the strict schema, the nearest memorised
// completion is offered instead, if one exists at all.
func (m *Model) Predict(context, prompt string) string {
	out, _ := m.predict(context, prompt, m.soloDecoder) // the solo decoder never fails
	return out
}

// predict is the one unary prediction pipeline: sample → generate →
// product post-processing. The exported Predict* methods differ only in
// the decoder they hand it.
func (m *Model) predict(context, prompt string, dec decoder) (string, error) {
	s, nameLine, indent := m.predictSample(context, prompt)
	raw, err := m.generate(s, dec)
	if err != nil {
		return "", err
	}
	return m.finishPredict(s, nameLine, indent, raw), nil
}

// predictSample builds the evaluation sample behind one Predict request.
func (m *Model) predictSample(context, prompt string) (dataset.Sample, string, int) {
	indent := 0
	if hasTaskList(context) {
		indent = 4
	}
	nameLine := strings.Repeat(" ", indent) + "- name: " + prompt
	s := dataset.Sample{
		Type:     dataset.TNLtoT,
		Context:  context,
		Prompt:   prompt,
		NameLine: nameLine,
	}
	if context == "" {
		s.Type = dataset.NLtoT
	}
	return s, nameLine, indent
}

// hasTaskList reports whether the context is a playbook whose new task
// nests under a play's task list: some line's key is exactly tasks,
// pre_tasks or post_tasks. A role task file that merely mentions
// include_tasks: or import_tasks: is not one.
func hasTaskList(context string) bool {
	for rest := context; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimPrefix(strings.TrimLeft(line, " "), "- ")
		key, _, ok := strings.Cut(line, ":")
		if ok && (key == "tasks" || key == "pre_tasks" || key == "post_tasks") {
			return true
		}
	}
	return false
}

// finishPredict applies Predict's product post-processing to a raw sampled
// completion: first-task truncation, schema validation, and the memorised
// fallback for invalid bodies.
func (m *Model) finishPredict(s dataset.Sample, nameLine string, indent int, raw string) string {
	body := dataset.TruncateFirstTask(raw, indent)
	if !m.bodyValid(nameLine, body, indent) {
		if fallback, ok := m.nearestBody(s, indent); ok && m.bodyValid(nameLine, fallback, indent) {
			body = fallback
		}
	}
	return nameLine + "\n" + body
}

// bodyValid reports whether name line + body parses and passes the strict
// task schema.
func (m *Model) bodyValid(nameLine, body string, indent int) bool {
	if strings.TrimSpace(body) == "" {
		return false
	}
	text := dataset.StripIndent(nameLine+"\n"+body, indent)
	node, err := yaml.Parse(text)
	if err != nil {
		return false
	}
	return ansible.NewValidator().Valid(node)
}

// nearestBody returns the closest memorised completion for the sample's
// prompt with a permissive threshold, re-indented to the requested nesting.
func (m *Model) nearestBody(s dataset.Sample, indent int) (string, bool) {
	if m.Retr == nil {
		return "", false
	}
	promptIDs := memoryKey(m.Tok, s.Prompt)
	ctxIDs := dataset.LeftTruncate(m.Tok.Encode(s.Context), m.CtxWindow/2)
	val, srcIndent, ok := m.Retr.Lookup(promptIDs, ctxIDs, 0.3)
	if !ok {
		return "", false
	}
	return dataset.ShiftIndent(m.Tok.Decode(val), srcIndent, indent), true
}
