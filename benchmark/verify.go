package main

import (
	"strings"
	"sync"

	"wisdom/internal/wisdom"
)

// verdict is what checking one window's samples against the reference found.
type verdict struct {
	attempted     int
	failed        int
	matched       int // byte-identical to the serial Predict golden
	schemaCorrect int // passes yaml.Parse + ansible.NewValidator().Valid
	bodyTokens    int // tokenizer tokens of all served suggestion bodies
	firstMismatch string
	firstFailure  string
}

// cacheKey is what the program's caches key an answer on.
type cacheKey struct{ context, prompt string }

// verify recomputes every served answer with a serial model.Predict on a
// model of its own (no sessions, no scheduler, no cache) and compares byte
// for byte. The goldens are computed after the timed window rather than at
// set-up: they cost as much CPU as the window itself, and set-up time is a
// metric.
func verify(ref *wisdom.Model, windows [][]sample) verdict {
	index := map[cacheKey]int{}
	var keys []cacheKey
	for _, w := range windows {
		for _, s := range w {
			k := cacheKey{s.req.Req.Context, s.req.Req.Prompt}
			if _, ok := index[k]; !ok && s.err == nil {
				index[k] = len(keys)
				keys = append(keys, k)
			}
		}
	}
	golden := predictAll(ref, keys)

	var v verdict
	for _, w := range windows {
		for _, s := range w {
			v.attempted++
			if s.err != nil {
				v.failed++
				if v.firstFailure == "" {
					v.firstFailure = s.err.Error()
				}
				continue
			}
			want := golden[index[cacheKey{s.req.Req.Context, s.req.Req.Prompt}]]
			if s.text == want {
				v.matched++
			} else if v.firstMismatch == "" {
				v.firstMismatch = "prompt " + s.req.Req.Prompt + ": got " + s.text + " want " + want
			}
			if schemaCorrect(s.text) {
				v.schemaCorrect++
			}
			v.bodyTokens += len(ref.Tok.Encode(suggestionBody(s.text)))
		}
	}
	return v
}

// predictAll answers every key with one serial Predict each, spread over
// clientCount goroutines; Predict is safe for concurrent use on a frozen model.
func predictAll(ref *wisdom.Model, keys []cacheKey) []string {
	out := make([]string, len(keys))
	var wg sync.WaitGroup
	for g := 0; g < clientCount; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keys); i += clientCount {
				out[i] = ref.Predict(keys[i].context, keys[i].prompt)
			}
		}(g)
	}
	wg.Wait()
	return out
}

// suggestionBody is the suggestion without its name line.
func suggestionBody(s string) string {
	if nl := strings.IndexByte(s, '\n'); nl >= 0 {
		return s[nl+1:]
	}
	return ""
}
