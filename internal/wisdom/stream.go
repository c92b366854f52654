package wisdom

import (
	"context"
	"strings"

	"wisdom/internal/dataset"
)

// StreamGenerator is implemented by generators whose decode loop can emit
// tokens as they are produced instead of buffering them until the end
// (NeuralLM over the transformer's KV-cached engine). onToken receives each
// generated token id the moment it is picked; cancel, when closed, aborts
// the decode at the next step and returns the tokens produced so far. The
// returned tokens are exactly what Complete with the same arguments would
// produce — streaming never changes the output.
type StreamGenerator interface {
	Generator
	CompleteStream(cancel <-chan struct{}, prefix, prompt []int, maxNew int,
		stop func(generated []int) bool, stopToken int, onToken func(tok int)) []int
}

// CompleteStream implements StreamGenerator on the transformer's cached
// decode engine: tokens leave the loop through onToken as they are chosen,
// and a closed cancel channel stops the generation (the serving layer wires
// a dropped client connection here so abandoned streams stop burning a
// worker slot).
func (g *NeuralLM) CompleteStream(cancel <-chan struct{}, prefix, _ []int, maxNew int,
	stop func([]int) bool, stopToken int, onToken func(int)) []int {
	return g.Model.GenerateCached(prefix, maxNew, g.genOpts(stop, stopToken, onToken, cancel))
}

// StreamPredictor is the streaming face of a predictor: PredictStream
// answers one request like Predict, but delivers the answer incrementally
// through emit while generation is still in flight. Both *Model and *Chain
// implement it.
//
// The contract emit-side: deltas are emitted in order, their concatenation
// is a prefix of the final answer at every point in time, and in the normal
// case the concatenation of all deltas equals the returned answer exactly.
// When late post-processing rewrites the answer (the schema-fallback path),
// the emitted prefix may disagree with the return value; callers that
// forward deltas to a client compare the two and send a corrected terminal
// message (see serve's "replaced" flag). A cancelled ctx stops the
// underlying generation; the partial answer assembled so far is returned.
type StreamPredictor interface {
	Predictor
	PredictStream(ctx context.Context, context, prompt string, emit func(delta string)) string
}

// PredictStream implements StreamPredictor: Predict's exact answer,
// delivered incrementally. The name line is emitted immediately (the
// time-to-first-token of every streamed completion is one prompt render,
// not one generation), then each completed body line as soon as the decode
// loop has produced it and the post-processing filters have committed to
// it, then whatever tail the final validation pass adds.
//
// Emission goes through an incremental re-run of the unary path's
// line-level filters (CutRepeatedLines, dataset.TruncateFirstTask), so a
// line is only emitted once no future token can remove it — which is what
// makes the concatenated deltas byte-identical to Predict's answer. The
// one rewrite those filters cannot predict is the schema-validation
// fallback (an invalid body is replaced wholesale by the nearest memorised
// completion); when that fires, emission stops and the caller reconciles
// against the returned answer.
func (m *Model) PredictStream(ctx context.Context, yamlCtx, prompt string, emit func(delta string)) string {
	final, _ := m.predictStream(ctx, yamlCtx, prompt, emit, m.soloDecoder) // the solo decoder never fails
	return final
}

// predictStream is the one streamed prediction pipeline; the exported
// PredictStream* methods differ only in the decoder they hand it. A decoder
// error means nothing was emitted, so the caller can shed the request
// cleanly.
func (m *Model) predictStream(ctx context.Context, yamlCtx, prompt string, emit func(delta string), dec decoder) (string, error) {
	s, nameLine, indent := m.predictSample(yamlCtx, prompt)
	plan := m.planSample(s)
	if plan.done {
		// Retrieval hit: the whole answer exists before any decoding.
		final := m.finishPredict(s, nameLine, indent, plan.text)
		emit(final)
		return final, nil
	}

	asm := &streamAssembler{indent: indent, emit: emit}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	// Start the decode before emitting anything: a scheduler rejection must
	// leave the stream untouched. A scheduled decode may produce tokens
	// before this goroutine has emitted the name line, so the token hook
	// parks on begun until begin has run; that stalls only this sequence's
	// relay goroutine, never the engine loop. wait returns only after the
	// hook has seen every token, so the assembler is safe to read afterwards.
	begun := make(chan struct{})
	wait, err := dec(plan, cancel, func(tok int) { <-begun; asm.onToken(m, tok) })
	if err != nil {
		return "", err
	}
	asm.begin(nameLine)
	close(begun)
	final := m.finishPredict(s, nameLine, indent, m.finishSample(wait()))
	asm.finalize(final)
	return final, nil
}

// streamAssembler incrementally re-runs the line-level post-processing of
// the unary Predict path over the raw decoded stream and emits every line
// the filters have irrevocably committed to. Both filters decide a line's
// fate from that line and the ones before it only (CutRepeatedLines cuts at
// the first repeated complete line, TruncateFirstTask at the first blank or
// dedented one), so a committed line can never be retracted by later
// tokens; the trailing incomplete line — and any trailing special-token
// text the final pass trims — is held back until the next newline or the
// end of generation.
type streamAssembler struct {
	indent int
	emit   func(string)

	raw      strings.Builder // decoded tokens so far
	sent     string          // emitted so far (nameLine + committed body lines)
	head     string          // nameLine + "\n"
	diverged bool            // incremental and final output disagreed; stop emitting
}

// begin emits the answer's guaranteed first bytes: the rendered name line.
func (a *streamAssembler) begin(nameLine string) {
	a.head = nameLine + "\n"
	a.sent = a.head
	a.emit(a.head)
}

// onToken accumulates one decoded token and emits newly committed lines.
func (a *streamAssembler) onToken(m *Model, tok int) {
	if a.diverged {
		return
	}
	text := m.Tok.Token(tok)
	a.raw.WriteString(text)
	if strings.IndexByte(text, '\n') < 0 {
		return
	}
	raw := a.raw.String()
	complete := raw[:strings.LastIndexByte(raw, '\n')+1]
	body := dataset.TruncateFirstTask(CutRepeatedLines(complete), a.indent)
	cand := a.head + body
	if !strings.HasPrefix(cand, a.sent) {
		a.diverged = true
		return
	}
	if delta := cand[len(a.sent):]; delta != "" {
		a.sent += delta
		a.emit(delta)
	}
}

// finalize reconciles the stream against the authoritative unary answer:
// the unemitted tail goes out as the last delta. When the final answer
// rewrote already-emitted text (the validation-fallback path), nothing more
// is emitted — the caller detects the mismatch by comparing its
// concatenated deltas with the returned answer.
func (a *streamAssembler) finalize(final string) {
	if a.diverged || !strings.HasPrefix(final, a.sent) {
		a.diverged = true
		return
	}
	if rest := final[len(a.sent):]; rest != "" {
		a.sent = final
		a.emit(rest)
	}
}
