package neural

import "time"

// decodeRow is the one decode state machine behind every KV-cached
// generation: feed the prefix, then pick → OnToken → StopToken → Stop →
// budget, with the cancel check ahead of every transition. It owns no model
// state. A driver — decodeSolo over one genState, or the Engine over its
// step batch — feeds the token the row hands it and passes the resulting
// logits back, so the drivers cannot disagree on which tokens a request
// produces (FuzzDecodePathsAgree holds them to that).
type decodeRow struct {
	prefix []int // tokens to prime with
	fed    int   // prefix tokens handed to the driver so far
	out    []int // generated tokens; capacity maxNew, so advance never grows it
	maxNew int
	opts   GenOptions
}

func newDecodeRow(prefix []int, maxNew int, opts GenOptions) decodeRow {
	if maxNew < 0 {
		maxNew = 0
	}
	return decodeRow{prefix: prefix, out: make([]int, 0, maxNew), maxNew: maxNew, opts: opts}
}

// advance consumes the logits of the step that fed the row's previous token
// (nil before the first step) and returns the token to feed next. live is
// false once the row has finished — cancelled, stopped or out of budget —
// and r.out is final.
func (r *decodeRow) advance(logits []float64) (next int, live bool) {
	if r.opts.cancelled() {
		return 0, false
	}
	if r.fed < len(r.prefix) {
		next = r.prefix[r.fed]
		r.fed++
		return next, true
	}
	if len(r.out) >= r.maxNew {
		return 0, false
	}
	tok := pickToken(logits, r.opts)
	r.out = append(r.out, tok)
	if r.opts.OnToken != nil {
		r.opts.OnToken(tok)
	}
	if r.opts.StopToken > 0 && tok == r.opts.StopToken {
		return 0, false
	}
	if r.opts.Stop != nil && r.opts.Stop(r.out) {
		return 0, false
	}
	// The final emitted token is never fed back.
	return tok, len(r.out) < r.maxNew
}

// windowHopDiv sets the re-prime stride of the windowed decode path: when
// the cache fills, the state is rebuilt over the last Ctx - Ctx/windowHopDiv
// tokens, buying Ctx/windowHopDiv cached steps per rebuild. Amortised cost
// per token stays O(window), against O(window^2) for the full re-forward
// the pre-decode-engine code paid.
const windowHopDiv = 4

// reprime rebuilds st, whose cache is full, over the freshest window of the
// row's history: the Ctx - Ctx/windowHopDiv most recent tokens, the last of
// which (the newest generated token) is left for the caller to step. It
// reports false when the row was cancelled mid-rebuild — a disconnecting
// streamer must not keep stepping for a whole window.
func (r *decodeRow) reprime(st *genState) bool {
	ctx := st.m.cfg.Ctx
	keep := max(ctx-ctx/windowHopDiv, 1)
	st.reset()
	hist := len(r.prefix) + len(r.out) - 1 // tokens ahead of the one to step
	for i := max(hist-(keep-1), 0); i < hist; i++ {
		if r.opts.cancelled() {
			return false
		}
		if i < len(r.prefix) {
			st.step(r.prefix[i])
		} else {
			st.step(r.out[i-len(r.prefix)])
		}
	}
	return true
}

// decodeSolo drives the row to completion over st, one st.step per token,
// and returns the generated tokens (partial when cancelled). st may arrive
// pre-warmed: the row's prefix is whatever st has not been fed yet. A cache
// that fills while the row is live is re-primed over a hopped window.
func (m *Model) decodeSolo(st *genState, row *decodeRow) []int {
	var start time.Time
	if m.obs != nil {
		start = time.Now()
	}
	tok, live := row.advance(nil)
	for live {
		if st.pos == m.cfg.Ctx && !row.reprime(st) {
			break
		}
		tok, live = row.advance(st.step(tok))
	}
	if m.obs != nil {
		m.obs.recordGeneration(len(row.out), time.Since(start))
	}
	return row.out
}
