package neural

// Generate is the full-forward reference decoder the KV-cached paths are
// pinned to: each token re-runs the whole forward pass over the sequence,
// so there is no cache state to get wrong. The context window slides when
// the sequence exceeds the configured length (left truncation, as the
// paper describes for over-long inputs). GenerateCached matches it
// token for token whenever prefix+maxNew fits the window.
func (m *Model) Generate(prefix []int, maxNew int, opts GenOptions) []int {
	seq := append([]int(nil), prefix...)
	var out []int
	for len(out) < maxNew && !opts.cancelled() {
		window := seq
		if len(window) > m.cfg.Ctx {
			window = window[len(window)-m.cfg.Ctx:]
		}
		if len(window) == 0 {
			break
		}
		tr := m.forward(window)
		logits := m.logitsAt(tr, len(window)-1)
		tok := pickToken(logits, opts)
		out = append(out, tok)
		seq = append(seq, tok)
		if opts.OnToken != nil {
			opts.OnToken(tok)
		}
		if opts.StopToken > 0 && tok == opts.StopToken {
			break
		}
		if opts.Stop != nil && opts.Stop(out) {
			break
		}
	}
	return out
}
