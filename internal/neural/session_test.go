package neural

import (
	"sync"
	"testing"
	"time"

	"wisdom/internal/observe"
)

func sessionTestModel(t testing.TB) *Model {
	t.Helper()
	m, err := NewModel(Config{Vocab: 32, Ctx: 64, Dim: 16, Heads: 2, Layers: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionGenerateMatchesCold drives a session through an editor-like
// sequence — extend, mid-edit divergence, full replacement — and checks each
// warm output byte-identical to a cold GenerateCached of the same request.
func TestSessionGenerateMatchesCold(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{})
	opts := GenOptions{StopToken: -1}

	base := []int{3, 14, 1, 5, 9, 2, 6, 5, 8, 7, 11, 4}
	extend := append(append([]int(nil), base...), 13, 2)
	diverged := append([]int(nil), extend...)
	diverged[6] = 17 // mid-edit: user changed an earlier token
	replaced := []int{21, 20, 19, 18, 17, 16}

	cases := []struct {
		name       string
		prefix     []int
		wantReuse  int  // exact reused positions, -1 to skip the check
		wantReused bool // reused > 0
	}{
		{"cold", base, 0, false},
		{"extend", extend, -1, true},
		{"diverge", diverged, 6, true},
		{"replace", replaced, 0, false},
	}
	for _, tc := range cases {
		warm, reused := sc.Generate("sess", tc.prefix, 6, opts)
		cold := m.GenerateCached(tc.prefix, 6, opts)
		if !equalInts(warm, cold) {
			t.Fatalf("%s: warm %v != cold %v (reused %d)", tc.name, warm, cold, reused)
		}
		if tc.wantReuse >= 0 && reused != tc.wantReuse {
			t.Errorf("%s: reused = %d, want %d", tc.name, reused, tc.wantReuse)
		}
		if tc.wantReused && reused == 0 {
			t.Errorf("%s: expected prefix reuse, got none", tc.name)
		}
	}
	if sc.ReuseRatio() <= 0 {
		t.Errorf("reuse ratio = %v, want > 0", sc.ReuseRatio())
	}
}

// TestSessionWarmStepsOnlySuffix pins the core latency claim: a warm request
// whose prefix extends the session's fed tokens re-steps only the appended
// suffix (plus the always-re-stepped final prefix position), not the whole
// context.
func TestSessionWarmStepsOnlySuffix(t *testing.T) {
	m := sessionTestModel(t)
	reg := observe.NewRegistry()
	ins := NewInstrumentation(reg)
	m.Instrument(ins)
	sc := m.NewSessionCache(SessionCacheConfig{})
	opts := GenOptions{StopToken: -1}

	prefix := []int{3, 14, 1, 5, 9, 2, 6, 5, 8, 7, 11, 4}
	const maxNew = 4

	before := ins.DecodeSteps.Value()
	out, reused := sc.Generate("sess", prefix, maxNew, opts)
	coldSteps := ins.DecodeSteps.Value() - before
	if reused != 0 {
		t.Fatalf("first request reused %d, want 0", reused)
	}
	// Cold: prime len(prefix), then feed each emitted token except the last.
	if want := uint64(len(prefix) + len(out) - 1); coldSteps != want {
		t.Fatalf("cold steps = %d, want %d", coldSteps, want)
	}

	// The session now holds prefix+out[:len(out)-1]; extending by exactly the
	// generated tokens means only one prefix position (the final one) must be
	// re-stepped.
	next := append(append([]int(nil), prefix...), out...)
	before = ins.DecodeSteps.Value()
	out2, reused2 := sc.Generate("sess", next, maxNew, opts)
	warmSteps := ins.DecodeSteps.Value() - before
	if want := len(next) - 1; reused2 != want {
		t.Fatalf("warm request reused %d, want %d", reused2, want)
	}
	if want := uint64(1 + len(out2) - 1); warmSteps != want {
		t.Fatalf("warm steps = %d, want %d (suffix only)", warmSteps, want)
	}
	if cold := m.GenerateCached(next, maxNew, opts); !equalInts(out2, cold) {
		t.Fatalf("warm %v != cold %v", out2, cold)
	}
}

// TestSessionOverflowFallsBackAndInvalidates checks the windowed regime: a
// request that cannot fit the context as a pure prefix state falls back to
// GenerateCached and drops the session (a hopped window is not a prefix).
func TestSessionOverflowFallsBackAndInvalidates(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 8, Dim: 8, Heads: 2, Layers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.NewSessionCache(SessionCacheConfig{})
	opts := GenOptions{StopToken: -1}

	seed := []int{1, 2, 3}
	if _, reused := sc.Generate("s", seed, 2, opts); reused != 0 {
		t.Fatal("unexpected reuse on first request")
	}
	if sc.Len() != 1 {
		t.Fatalf("resident sessions = %d, want 1", sc.Len())
	}

	// 3 + 10 - 1 > 8: overflow regime.
	warm, reused := sc.Generate("s", seed, 10, opts)
	cold := m.GenerateCached(seed, 10, opts)
	if !equalInts(warm, cold) {
		t.Fatalf("overflow warm %v != cold %v", warm, cold)
	}
	if reused != 0 {
		t.Errorf("overflow request reused %d, want 0", reused)
	}
	if sc.Len() != 0 {
		t.Errorf("session survived overflow: %d resident", sc.Len())
	}
}

// TestSessionEmptyIDBypasses checks that requests without a session id do
// not create or consume session state.
func TestSessionEmptyIDBypasses(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{})
	out, reused := sc.Generate("", []int{1, 2, 3}, 4, GenOptions{StopToken: -1})
	if reused != 0 || sc.Len() != 0 || sc.Active() != 0 {
		t.Fatalf("empty id leaked state: reused %d len %d active %d", reused, sc.Len(), sc.Active())
	}
	if cold := m.GenerateCached([]int{1, 2, 3}, 4, GenOptions{StopToken: -1}); !equalInts(out, cold) {
		t.Fatalf("bypass output %v != cold %v", out, cold)
	}
}

// TestSessionLRUEviction fills the cache past MaxSessions and checks the
// least recently used session is evicted.
func TestSessionLRUEviction(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{MaxSessions: 2, TTL: -1})
	opts := GenOptions{StopToken: -1}

	sc.Generate("a", []int{1, 2, 3}, 2, opts)
	sc.Generate("b", []int{4, 5, 6}, 2, opts)
	sc.Generate("a", []int{1, 2, 3, 7}, 2, opts) // refresh a; b is now LRU
	sc.Generate("c", []int{8, 9, 10}, 2, opts)   // evicts b

	if sc.Len() != 2 {
		t.Fatalf("resident = %d, want 2", sc.Len())
	}
	if sc.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", sc.Evictions())
	}
	// Check the survivor first: re-querying b below re-inserts it and
	// evicts another resident.
	if _, reused := sc.Generate("a", []int{1, 2, 3, 7}, 2, opts); reused == 0 {
		t.Error("retained session a got no reuse")
	}
	if _, reused := sc.Generate("b", []int{4, 5, 6, 11}, 2, opts); reused != 0 {
		t.Errorf("evicted session b reused %d positions", reused)
	}
}

// TestSessionMemoryCapEviction bounds resident state by bytes: a cap below
// two states keeps at most one session resident no matter how many ids talk
// to the cache.
func TestSessionMemoryCapEviction(t *testing.T) {
	m := sessionTestModel(t)
	one := m.stateBytes()
	sc := m.NewSessionCache(SessionCacheConfig{MaxBytes: one + one/2, TTL: -1})
	opts := GenOptions{StopToken: -1}

	sc.Generate("a", []int{1, 2, 3}, 2, opts)
	if sc.Bytes() != one {
		t.Fatalf("bytes = %d, want %d", sc.Bytes(), one)
	}
	sc.Generate("b", []int{4, 5, 6}, 2, opts)
	if sc.Len() != 1 || sc.Bytes() != one {
		t.Fatalf("after cap: resident %d bytes %d, want 1 resident %d bytes", sc.Len(), sc.Bytes(), one)
	}
	if sc.Evictions() == 0 {
		t.Error("memory-cap eviction not counted")
	}
}

// TestSessionTTLEviction advances an injected clock past the idle TTL and
// checks the stale session is swept on the next cache operation.
func TestSessionTTLEviction(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{TTL: time.Minute})
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	sc.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	opts := GenOptions{StopToken: -1}

	sc.Generate("a", []int{1, 2, 3}, 2, opts)
	mu.Lock()
	now = now.Add(30 * time.Second)
	mu.Unlock()
	sc.Generate("b", []int{4, 5, 6}, 2, opts)

	mu.Lock()
	now = now.Add(45 * time.Second) // a idle 75s > TTL, b idle 45s < TTL
	mu.Unlock()
	if _, reused := sc.Generate("b", []int{4, 5, 6, 7}, 2, opts); reused == 0 {
		t.Error("fresh session b was swept")
	}
	if sc.Len() != 1 {
		t.Fatalf("resident = %d, want 1 after TTL sweep", sc.Len())
	}
	if _, reused := sc.Generate("a", []int{1, 2, 3, 7}, 2, opts); reused != 0 {
		t.Error("stale session a survived the TTL")
	}
}

// TestSessionInvalidate drops a session on demand.
func TestSessionInvalidate(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{})
	opts := GenOptions{StopToken: -1}
	sc.Generate("a", []int{1, 2, 3}, 2, opts)
	sc.Invalidate("a")
	sc.Invalidate("missing") // no-op
	if sc.Len() != 0 || sc.Bytes() != 0 {
		t.Fatalf("invalidate left %d resident, %d bytes", sc.Len(), sc.Bytes())
	}
}

// TestSessionCancelRetainsState cancels a warm request before its prime
// completes and checks the reusable state is put back, so the client's next
// request still skips the re-prime and produces byte-identical output.
func TestSessionCancelRetainsState(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{})
	opts := GenOptions{StopToken: -1}
	prefix := []int{3, 14, 1, 5, 9, 2, 6, 5, 8, 7, 11, 4}

	out, _ := sc.Generate("s", prefix, 4, opts)
	next := append(append([]int(nil), prefix...), out...)

	cancel := make(chan struct{})
	close(cancel)
	got, reused := sc.Generate("s", next, 4, GenOptions{StopToken: -1, Cancel: cancel})
	if len(got) != 0 {
		t.Fatalf("cancelled generation produced %v", got)
	}
	if want := len(next) - 1; reused != want {
		t.Fatalf("cancelled request reused %d, want %d", reused, want)
	}
	if sc.Active() != sc.Len() {
		t.Fatalf("checkout leaked: active %d, resident %d", sc.Active(), sc.Len())
	}
	warm, reused2 := sc.Generate("s", next, 4, opts)
	if reused2 == 0 {
		t.Error("state was not retained across the cancelled request")
	}
	if cold := m.GenerateCached(next, 4, opts); !equalInts(warm, cold) {
		t.Fatalf("post-cancel warm %v != cold %v", warm, cold)
	}
}

// TestSessionConcurrent hammers the cache from many goroutines — distinct
// ids plus deliberate same-id collisions — and checks outputs stay correct
// under -race with no checkout leaks.
func TestSessionConcurrent(t *testing.T) {
	m := sessionTestModel(t)
	sc := m.NewSessionCache(SessionCacheConfig{MaxSessions: 4})
	opts := GenOptions{StopToken: -1}

	prefixes := [][]int{
		{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}, {13, 14, 15, 16},
	}
	cold := make([][]int, len(prefixes))
	for i, p := range prefixes {
		cold[i] = m.GenerateCached(p, 4, opts)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(prefixes)
			id := string(rune('a' + i)) // ids collide across goroutine pairs
			for iter := 0; iter < 10; iter++ {
				out, _ := sc.Generate(id, prefixes[i], 4, opts)
				if !equalInts(out, cold[i]) {
					t.Errorf("goroutine %d: %v != %v", g, out, cold[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sc.Active() != sc.Len() {
		t.Fatalf("checkout leaked: active %d, resident %d", sc.Active(), sc.Len())
	}
}

// TestGenerateCachedWindowedReprimeCancelled is the regression test for the
// windowed re-prime loop ignoring cancellation: a cancel arriving while the
// cache is being rebuilt must stop stepping within one step, not after up to
// keep (= 3/4 Ctx) more. Pre-fix this test fails with ~keep extra decode
// steps.
func TestGenerateCachedWindowedReprimeCancelled(t *testing.T) {
	m, err := NewModel(Config{Vocab: 16, Ctx: 16, Dim: 8, Heads: 2, Layers: 1, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	reg := observe.NewRegistry()
	ins := NewInstrumentation(reg)
	m.Instrument(ins)

	prefix := []int{1, 2, 3, 4, 5, 6, 7, 8}
	cancel := make(chan struct{})
	var picked int
	opts := GenOptions{
		StopToken: -1,
		Cancel:    cancel,
		OnToken: func(tok int) {
			picked++
			// The 9th pick happens with the cache full (pos == Ctx); the
			// decode loop enters the re-prime branch right after this hook.
			if picked == 9 {
				close(cancel)
			}
		},
	}
	before := ins.DecodeSteps.Value()
	m.GenerateCached(prefix, 40, opts)
	steps := ins.DecodeSteps.Value() - before

	// 8 prime steps + 8 cached decode steps fill the cache; a cancelled
	// re-prime must add no further steps.
	if steps > 16 {
		t.Fatalf("cancelled windowed decode ran %d steps, want <= 16 (re-prime ignored cancellation)", steps)
	}
}
