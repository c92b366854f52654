package retrieval

import (
	"math/rand"
	"testing"
)

func buildToy(t *testing.T) *Index {
	t.Helper()
	ix := New()
	// Keys use distinctive tokens; token 1 and 2 are "common words".
	ix.Add([]int{1, 2, 10, 11, 12}, []int{100}) // doc 0
	ix.Add([]int{1, 2, 20, 21, 22}, []int{200}) // doc 1
	ix.Add([]int{1, 2, 30, 31, 32}, []int{300}) // doc 2
	ix.Build()
	return ix
}

func TestExactKeyRetrievesItself(t *testing.T) {
	ix := buildToy(t)
	m, ok := ix.Best([]int{1, 2, 20, 21, 22})
	if !ok || m.Index != 1 {
		t.Fatalf("Best = %+v, %v", m, ok)
	}
	if m.Score < 0.999 {
		t.Errorf("exact-key score = %v, want ~1", m.Score)
	}
	if got := ix.Entry(m.Index).Value[0]; got != 200 {
		t.Errorf("value = %d", got)
	}
}

func TestPartialOverlapRanks(t *testing.T) {
	ix := buildToy(t)
	// Query shares 2 distinctive tokens with doc 0, none with others.
	ms := ix.Query([]int{10, 11, 99}, 3)
	if len(ms) == 0 || ms[0].Index != 0 {
		t.Fatalf("Query = %+v", ms)
	}
	for _, m := range ms[1:] {
		if m.Score >= ms[0].Score {
			t.Errorf("ranking broken: %+v", ms)
		}
	}
}

func TestCommonTokensAreDownweighted(t *testing.T) {
	ix := buildToy(t)
	// Tokens 1,2 appear in every doc; a query of only common tokens should
	// score lower against doc 0 than a query with distinctive overlap.
	common := ix.Query([]int{1, 2}, 1)
	distinct := ix.Query([]int{10, 11}, 1)
	if len(common) == 0 || len(distinct) == 0 {
		t.Fatal("no results")
	}
	if common[0].Score >= distinct[0].Score {
		t.Errorf("IDF weighting broken: common %v >= distinct %v", common[0].Score, distinct[0].Score)
	}
}

func TestUnseenTokensNoMatch(t *testing.T) {
	ix := buildToy(t)
	if ms := ix.Query([]int{77, 88}, 5); len(ms) != 0 {
		t.Errorf("unseen-token query returned %+v", ms)
	}
	if _, ok := ix.Best(nil); ok {
		t.Error("empty query matched")
	}
}

func TestScoresBounded(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ix := New()
	for i := 0; i < 50; i++ {
		key := make([]int, r.Intn(20)+1)
		for j := range key {
			key[j] = r.Intn(30)
		}
		ix.Add(key, []int{i})
	}
	ix.Build()
	for i := 0; i < 100; i++ {
		q := make([]int, r.Intn(20)+1)
		for j := range q {
			q[j] = r.Intn(40)
		}
		for _, m := range ix.Query(q, 10) {
			if m.Score < -1e-9 || m.Score > 1+1e-9 {
				t.Fatalf("score %v out of [0,1]", m.Score)
			}
		}
	}
}

func TestQueryBeforeBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on Query before Build")
		}
	}()
	ix := New()
	ix.Add([]int{1}, []int{2})
	ix.Query([]int{1}, 1)
}

func TestKLimit(t *testing.T) {
	ix := buildToy(t)
	if got := len(ix.Query([]int{1, 2}, 2)); got != 2 {
		t.Errorf("k=2 returned %d", got)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestRebuildAfterAdd(t *testing.T) {
	ix := buildToy(t)
	ix.Add([]int{40, 41, 42}, []int{400})
	ix.Build()
	m, ok := ix.Best([]int{40, 41, 42})
	if !ok || ix.Entry(m.Index).Value[0] != 400 {
		t.Errorf("new entry not retrievable: %+v %v", m, ok)
	}
}

// TestTwinEntriesScoreDeterministically pins the summation order of Build
// and Query: an index holding the same key twice must score both copies
// bit-identically on every call, so the tie always breaks on the lower
// index. Summed in map order the two norms and dot products differed by a
// rounding error that changed per call, and replicas disagreed on Best.
func TestTwinEntriesScoreDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := New()
	// Background entries give every token its own IDF weight, so the sums
	// mix magnitudes and their rounding depends on the order.
	for i := 0; i < 40; i++ {
		key := make([]int, 6+rng.Intn(10))
		for j := range key {
			key[j] = rng.Intn(60)
		}
		ix.Add(key, []int{i})
	}
	twin := make([]int, 0, 40)
	for tok := 0; tok < 24; tok++ {
		for c := 0; c <= tok%4; c++ {
			twin = append(twin, tok)
		}
	}
	first := ix.Len()
	ix.Add(twin, []int{1000})
	ix.Add(append([]int(nil), twin...), []int{1001})
	ix.Build()

	query := append([]int{58, 59}, twin[3:]...)
	want := ix.Query(query, 4)
	if len(want) < 2 || want[0].Index != first || want[1].Index != first+1 {
		t.Fatalf("twins are not the two best matches in index order: %+v", want)
	}
	if want[0].Score != want[1].Score {
		t.Fatalf("twin entries scored %v and %v", want[0].Score, want[1].Score)
	}
	for i := 0; i < 200; i++ {
		got := ix.Query(query, 4)
		if len(got) != len(want) {
			t.Fatalf("call %d returned %d matches, first call %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("call %d match %d = %+v, first call %+v", i, j, got[j], want[j])
			}
		}
		if best, ok := ix.Best(query); !ok || best.Index != first {
			t.Fatalf("call %d: Best = %+v, want index %d", i, best, first)
		}
	}
}
