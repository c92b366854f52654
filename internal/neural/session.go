package neural

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// SessionCacheConfig tunes a SessionCache. The zero value of each field
// selects the documented default.
type SessionCacheConfig struct {
	// MaxSessions bounds resident session states (LRU evicted beyond it);
	// <= 0 selects 64.
	MaxSessions int
	// MaxBytes caps the estimated memory held by resident session states;
	// <= 0 leaves memory unbounded (the session-count bound still applies).
	// A single state larger than the cap is never retained.
	MaxBytes int64
	// TTL evicts sessions idle longer than this on the next cache mutation;
	// 0 selects 5 minutes, < 0 disables idle eviction.
	TTL time.Duration
}

// sessionCacheDefaults fill unset SessionCacheConfig fields.
const (
	defaultMaxSessions = 64
	defaultSessionTTL  = 5 * time.Minute
)

// SessionCache keeps per-session KV-cache decode states alive across
// requests, so an interactive client (an editor sending a request per
// keystroke) re-steps only the tokens that changed since its last request
// instead of re-priming the whole context.
//
// Each session id maps to the genState left behind by that session's last
// generation together with the exact token sequence fed into it. On the next
// request the cache diffs the new prefix against that sequence: the longest
// common prefix is kept (the state is truncated to it — the KV rows of a
// position depend only on the tokens at and before it), and only the
// changed suffix is stepped. An appended keystroke therefore costs O(suffix)
// where a cold decode costs O(context).
//
// States are checked out for the duration of a generation: a session's
// state is exclusive, so a concurrent request for the same id simply
// decodes cold and the last writer wins the slot. Resident states are
// bounded by an LRU with a session-count cap, an estimated-memory cap, and
// idle TTL eviction; evicting a session is always safe (the next request
// just pays one cold prime).
//
// The session id is an opaque, client-chosen affinity key. It is
// deliberately the only routing input a multi-replica frontend needs:
// hashing the id picks the replica whose SessionCache holds the state.
type SessionCache struct {
	m   *Model
	cfg SessionCacheConfig

	mu         sync.Mutex
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64 // estimated bytes of resident states
	checkedOut int   // states currently out for a generation

	evictions atomic.Uint64
	// reusedSteps / freshSteps count prefix positions served from a
	// retained state vs re-stepped, across all session generations.
	reusedSteps atomic.Uint64
	freshSteps  atomic.Uint64

	now func() time.Time // injectable clock for TTL tests
}

// sessionEntry is one resident session state.
type sessionEntry struct {
	id   string
	st   *genState
	seq  []int // tokens fed into st, len(seq) == st.pos
	last time.Time
	size int64
}

// NewSessionCache builds a session cache over the model's decode engine.
// The model must be trained and frozen; every retained state belongs to
// this model.
func (m *Model) NewSessionCache(cfg SessionCacheConfig) *SessionCache {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = defaultMaxSessions
	}
	if cfg.TTL == 0 {
		cfg.TTL = defaultSessionTTL
	}
	return &SessionCache{
		m:     m,
		cfg:   cfg,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		now:   time.Now,
	}
}

// stateBytes estimates the resident size of one session state: the
// full-capacity KV buffers, the logits row, and the scratch arena (eight
// Dim-sized rows plus the MLP hidden row and the attention score buffer —
// see decodeScratch).
func (m *Model) stateBytes() int64 {
	kv := int64(m.cfg.Layers) * 2 * int64(m.cfg.Ctx) * int64(m.cfg.Dim)
	scratch := int64(8*m.cfg.Dim + m.cfg.MLPHidden + m.cfg.Ctx)
	return (kv + int64(m.cfg.Vocab) + scratch) * 8
}

// truncate drops every cached position at index n and beyond, rewinding the
// state to exactly the first n fed tokens. The KV rows of a position depend
// only on the tokens at and before it, so the surviving rows are identical
// to what re-priming those n tokens would produce.
func (s *genState) truncate(n int) {
	d := s.m.cfg.Dim
	for l := range s.k {
		s.k[l] = s.k[l][:n*d]
		s.v[l] = s.v[l][:n*d]
	}
	s.pos = n
}

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// take checks the session's state out of the cache (removing it from the
// resident set) or returns nil when the id has no retained state.
func (sc *SessionCache) take(id string) *sessionEntry {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.sweepLocked()
	el, ok := sc.items[id]
	if !ok {
		return nil
	}
	ent := el.Value.(*sessionEntry)
	sc.ll.Remove(el)
	delete(sc.items, id)
	sc.bytes -= ent.size
	sc.checkedOut++
	return ent
}

// put returns a state to the resident set under id, evicting LRU entries
// beyond the configured bounds. fromCheckout marks a put that pairs with an
// earlier take.
func (sc *SessionCache) put(id string, st *genState, seq []int, fromCheckout bool) {
	ent := &sessionEntry{id: id, st: st, seq: seq, size: sc.m.stateBytes()}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if fromCheckout {
		sc.checkedOut--
	}
	ent.last = sc.now()
	if el, ok := sc.items[id]; ok {
		// A concurrent request for the same id raced this one and already
		// stored a state; last writer wins the slot.
		old := el.Value.(*sessionEntry)
		sc.bytes -= old.size
		el.Value = ent
		sc.bytes += ent.size
		sc.ll.MoveToFront(el)
	} else {
		sc.items[id] = sc.ll.PushFront(ent)
		sc.bytes += ent.size
	}
	sc.sweepLocked()
	for sc.ll.Len() > sc.cfg.MaxSessions || (sc.cfg.MaxBytes > 0 && sc.bytes > sc.cfg.MaxBytes) {
		if !sc.evictOldestLocked() {
			break
		}
	}
}

// begin registers a generation that starts from a fresh state (no retained
// state was checked out). Its put pairs with this the same way a take does.
func (sc *SessionCache) begin() {
	sc.mu.Lock()
	sc.checkedOut++
	sc.mu.Unlock()
}

// sweepLocked evicts sessions idle past the TTL; the caller holds mu.
func (sc *SessionCache) sweepLocked() {
	if sc.cfg.TTL <= 0 {
		return
	}
	cutoff := sc.now().Add(-sc.cfg.TTL)
	for {
		el := sc.ll.Back()
		if el == nil || !el.Value.(*sessionEntry).last.Before(cutoff) {
			return
		}
		sc.evictOldestLocked()
	}
}

// evictOldestLocked removes the least recently used resident state; the
// caller holds mu. It reports whether an entry was evicted.
func (sc *SessionCache) evictOldestLocked() bool {
	el := sc.ll.Back()
	if el == nil {
		return false
	}
	ent := el.Value.(*sessionEntry)
	sc.ll.Remove(el)
	delete(sc.items, ent.id)
	sc.bytes -= ent.size
	sc.evictions.Add(1)
	return true
}

// Invalidate drops any retained state for id (a no-op for unknown ids).
func (sc *SessionCache) Invalidate(id string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.items[id]; ok {
		ent := el.Value.(*sessionEntry)
		sc.ll.Remove(el)
		delete(sc.items, id)
		sc.bytes -= ent.size
	}
}

// Len returns the number of resident (not checked-out) session states.
func (sc *SessionCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ll.Len()
}

// Active returns the number of live sessions: resident states plus states
// checked out by in-flight generations.
func (sc *SessionCache) Active() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ll.Len() + sc.checkedOut
}

// Bytes returns the estimated memory held by resident session states.
func (sc *SessionCache) Bytes() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.bytes
}

// Evictions returns how many session states have been evicted (LRU, memory
// cap, or TTL).
func (sc *SessionCache) Evictions() uint64 { return sc.evictions.Load() }

// ReuseRatio returns the fraction of prefix positions served from retained
// states across all session generations (0 when none have run).
func (sc *SessionCache) ReuseRatio() float64 {
	reused := float64(sc.reusedSteps.Load())
	fresh := float64(sc.freshSteps.Load())
	if reused+fresh == 0 {
		return 0
	}
	return reused / (reused + fresh)
}

// Generate extends prefix by up to maxNew tokens like Model.GenerateCached,
// reusing (and then retaining) the KV-cache state of the given session. The
// longest common prefix between the session's fed tokens and the new prefix
// is kept; only the changed suffix is re-stepped. Output is byte-identical
// to a cold GenerateCached call with the same arguments.
//
// reused reports how many prefix positions were served from the retained
// state (0 on a cold session). An empty id, an empty prefix, or a request
// that overflows the context window (prefix+maxNew-1 > Ctx, the windowed
// re-prime regime — a hopped window cannot be represented as a prefix
// state) falls back to GenerateCached; overflow additionally invalidates
// the session, since its retained state no longer matches what the client
// sees.
func (sc *SessionCache) Generate(id string, prefix []int, maxNew int, opts GenOptions) (out []int, reused int) {
	if id == "" || len(prefix) == 0 {
		return sc.m.GenerateCached(prefix, maxNew, opts), 0
	}
	m := sc.m
	if len(prefix)+maxNew-1 > m.cfg.Ctx {
		sc.Invalidate(id)
		return m.GenerateCached(prefix, maxNew, opts), 0
	}
	st, reused := sc.resume(id, prefix)
	// At least one prefix token is always stepped (reuse stops before the
	// final prefix position), so logits are fresh for the first pick.
	row := newDecodeRow(prefix, maxNew, opts)
	row.fed = reused
	out = m.decodeSolo(st, &row)
	if st.pos >= len(prefix) { // the prime ran to completion
		sc.reusedSteps.Add(uint64(reused))
		sc.freshSteps.Add(uint64(len(prefix) - reused))
	}
	// The state now holds the first st.pos tokens of prefix+out: the final
	// emitted token is never fed, and a cancel can stop the prime early.
	fed := append(append(make([]int, 0, len(prefix)+len(out)), prefix...), out...)[:st.pos]
	sc.put(id, st, fed, true)
	return out, reused
}

// resume checks out the session's state and rewinds it to the longest
// common prefix with the request, returning the state and how many
// positions were reused. A cold session (or one whose state diverges at
// position 0) gets a fresh state.
func (sc *SessionCache) resume(id string, prefix []int) (st *genState, reused int) {
	if ent := sc.take(id); ent != nil {
		// Reuse stops one position short of the full prefix: the retained
		// logits of intermediate steps are gone, so the final prefix token
		// is always re-stepped to regenerate the next-token distribution.
		lcp := min(commonPrefixLen(ent.seq, prefix), len(prefix)-1)
		if lcp > 0 {
			ent.st.truncate(lcp)
			return ent.st, lcp
		}
		// Divergence at position 0: the retained state is useless; decode
		// fresh but keep the checkout so the eventual put balances it.
		return sc.m.newGenState(), 0
	}
	sc.begin()
	return sc.m.newGenState(), 0
}
