// Package retrieval implements an IDF-weighted nearest-neighbour index over
// token sequences. It supplies the memorisation channel of the model zoo:
// large models that saw (parts of) the evaluation distribution at training
// time reproduce whole completions verbatim — the signature the paper
// observes on Codex ("the exact match is the highest of all models tested,
// which indicates that Codex likely saw large portions of our Galaxy
// dataset"). An ensemble of an n-gram model and this index reproduces that
// behaviour honestly: the index can only return items that were actually in
// its training data.
package retrieval

import (
	"math"
	"sort"
)

// Entry is one indexed key/value pair: a prompt-like key and the completion
// associated with it.
type Entry struct {
	Key   []int
	Value []int
}

// Match is one retrieval result.
type Match struct {
	// Index is the position of the matched entry (see Entry).
	Index int
	// Score is the cosine similarity in [0, 1].
	Score float64
}

// Index is a bag-of-tokens cosine index with IDF weighting. Add entries,
// then call Build before querying. The zero value is not usable; use New.
// Add and Build mutate; after Build, Query and Best are pure reads and safe
// for concurrent use (see TestConcurrentQueries).
type Index struct {
	entries  []Entry
	counts   []map[int]int   // per-entry token counts
	postings map[int][]int32 // token -> entry ids containing it (deduped)
	idf      map[int]float64
	norms    []float64
	built    bool
}

// New returns an empty index.
func New() *Index {
	return &Index{postings: make(map[int][]int32)}
}

// Add registers a key/value pair. Build must be called (again) afterwards.
func (ix *Index) Add(key, value []int) {
	id := int32(len(ix.entries))
	ix.entries = append(ix.entries, Entry{Key: key, Value: value})
	c := tokenCounts(key)
	ix.counts = append(ix.counts, c)
	for tok := range c {
		ix.postings[tok] = append(ix.postings[tok], id)
	}
	ix.built = false
}

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Entry returns the i-th entry.
func (ix *Index) Entry(i int) Entry { return ix.entries[i] }

// Build computes IDF weights and vector norms. It must be called after the
// last Add and before the first Query.
func (ix *Index) Build() {
	n := float64(len(ix.entries))
	ix.idf = make(map[int]float64, len(ix.postings))
	for tok, ids := range ix.postings {
		ix.idf[tok] = math.Log(1 + n/float64(len(ids)))
	}
	ix.norms = make([]float64, len(ix.entries))
	var toks []int
	for i := range ix.entries {
		toks = sortedTokens(toks, ix.counts[i])
		s := 0.0
		for _, tok := range toks {
			w := float64(ix.counts[i][tok]) * ix.idf[tok]
			s += w * w
		}
		ix.norms[i] = math.Sqrt(s)
	}
	ix.built = true
}

// Query returns the k best matches for a key, ordered by descending score.
// It panics if Build has not been called, which is a programming error.
func (ix *Index) Query(key []int, k int) []Match {
	if !ix.built {
		panic("retrieval: Query before Build")
	}
	if len(ix.entries) == 0 || len(key) == 0 || k <= 0 {
		return nil
	}
	q := tokenCounts(key)
	toks := sortedTokens(nil, q)
	qnorm := 0.0
	for _, tok := range toks {
		w := float64(q[tok]) * ix.idf[tok] // unseen tokens have idf 0
		qnorm += w * w
	}
	if qnorm == 0 {
		return nil
	}
	qnorm = math.Sqrt(qnorm)

	scores := make(map[int32]float64)
	for _, tok := range toks {
		idf := ix.idf[tok]
		if idf == 0 {
			continue
		}
		qw := float64(q[tok]) * idf
		for _, id := range ix.postings[tok] {
			scores[id] += qw * float64(ix.counts[id][tok]) * idf
		}
	}
	matches := make([]Match, 0, len(scores))
	for id, dot := range scores {
		den := qnorm * ix.norms[id]
		if den == 0 {
			continue
		}
		matches = append(matches, Match{Index: int(id), Score: dot / den})
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Index < matches[j].Index
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches
}

// Best returns the single best match, or ok=false when nothing matches.
func (ix *Index) Best(key []int) (Match, bool) {
	m := ix.Query(key, 1)
	if len(m) == 0 {
		return Match{}, false
	}
	return m[0], true
}

// sortedTokens returns the keys of counts in ascending order, reusing buf.
// Every floating-point sum over a token bag walks this order: Go's map
// order changes per iteration, and a sum's rounding depends on its order,
// so summing in map order would score duplicate entries an ulp apart in a
// way that differs from call to call and from replica to replica.
func sortedTokens(buf []int, counts map[int]int) []int {
	buf = buf[:0]
	for tok := range counts {
		buf = append(buf, tok)
	}
	sort.Ints(buf)
	return buf
}

func tokenCounts(seq []int) map[int]int {
	m := make(map[int]int, len(seq))
	for _, t := range seq {
		m[t]++
	}
	return m
}
