package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"wisdom/internal/serve"
	"wisdom/internal/tokenizer"
)

// transport is how a client sends one request.
type transport int

const (
	httpUnary transport = iota // POST /v1/completions
	httpSSE                    // POST /v1/completions/stream
	rpcUnary                   // serve.Client.Predict
	rpcStream                  // serve.Client.PredictStream
)

func (t transport) streams() bool { return t == httpSSE || t == rpcStream }

// request is one generated input: what the program under test is sent and
// over which transport. The loop is closed: a client sends when its previous
// request has completed and Pause, the user's think time, has passed.
type request struct {
	Via   transport
	Req   serve.Request
	Pause time.Duration
}

// generator yields one client's request sequence. The sequence depends only
// on the seed, the workload and the client index, never on responses or on
// timing, so a run's inputs can be regenerated and digested without running it.
type generator interface {
	next() request
}

// universe is the set of tasks a workload draws prompts and contexts from,
// shortest first. When tok is set, contexts are trimmed so the rendered input
// fits budget tokens and the model never left-truncates (which would defeat
// prefix reuse and cut a context task in half).
type universe struct {
	tasks  []poolTask
	tok    *tokenizer.Tokenizer
	budget int
}

// strata is how many length classes a universe is cut into. Generators deal
// from the classes in turn, so any dozen consecutive requests carry nearly the
// same amount of work whatever the seed: run-to-run spread then comes from the
// machine, not from which tasks a seed happened to draw.
const strata = 4

func newUniverse(tasks []poolTask, tok *tokenizer.Tokenizer, budget int) *universe {
	if len(tasks) < 2*strata {
		panic(fmt.Sprintf("benchmark: a universe needs %d tasks, got %d", 2*strata, len(tasks)))
	}
	u := &universe{tasks: append([]poolTask(nil), tasks...), tok: tok, budget: budget}
	sort.SliceStable(u.tasks, func(i, j int) bool { return u.size(u.tasks[i]) < u.size(u.tasks[j]) })
	return u
}

func (u *universe) size(t poolTask) int {
	if u.tok == nil {
		return len(t.text())
	}
	return len(u.tok.Encode(t.text()))
}

// stratum returns the index range of length class q.
func (u *universe) stratum(q int) (lo, hi int) {
	return q * len(u.tasks) / strata, (q + 1) * len(u.tasks) / strata
}

func nameLine(prompt string) string { return "- name: " + prompt }

// join renders context tasks oldest first, as they stand in a role file.
func (u *universe) join(ctx []int) string {
	var sb strings.Builder
	for _, i := range ctx {
		sb.WriteString(u.tasks[i].text())
	}
	return sb.String()
}

// fits reports whether the model input for prompt below context stays within
// the token budget.
func (u *universe) fits(context, prompt string) bool {
	return u.tok == nil || len(u.tok.Encode(context+nameLine(prompt)+"\n")) <= u.budget
}

// render joins ctx, dropping its oldest tasks until the input fits.
func (u *universe) render(ctx []int, prompt string) string {
	for len(ctx) > 0 && !u.fits(u.join(ctx), prompt) {
		ctx = ctx[1:]
	}
	return u.join(ctx)
}

// seededRand derives an independent random stream from the run seed.
func seededRand(seed int64, workload, role string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, workload, role)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// cycle deals lo..hi-1 in a fresh random order each round, so every value is
// used equally often whatever the run length.
type cycle struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCycle(rng *rand.Rand, lo, hi int) *cycle {
	c := &cycle{rng: rng, perm: make([]int, hi-lo)}
	for i := range c.perm {
		c.perm[i] = lo + i
	}
	c.pos = len(c.perm) // shuffle on first use
	return c
}

func (c *cycle) next() int {
	if c.pos == len(c.perm) {
		c.rng.Shuffle(len(c.perm), func(i, j int) { c.perm[i], c.perm[j] = c.perm[j], c.perm[i] })
		c.pos = 0
	}
	v := c.perm[c.pos]
	c.pos++
	return v
}

// stratified deals task indices from the length classes in turn.
type stratified struct {
	classes [strata]*cycle
	dealt   int
}

func newStratified(u *universe, rng *rand.Rand) *stratified {
	s := &stratified{}
	for q := range s.classes {
		lo, hi := u.stratum(q)
		s.classes[q] = newCycle(rng, lo, hi)
	}
	return s
}

func (s *stratified) next() int {
	q := s.dealt % strata
	s.dealt++
	return s.classes[q].next()
}

// roundRobin hands the items of one deterministic sequence to the clients in
// turn: item i goes to client i mod clients, whatever the clients' pace, so
// what a client receives does not depend on timing, and the clients together
// always hold a leading stretch of the one sequence.
type roundRobin[T any] struct {
	mu     sync.Mutex
	queues [][]T
	made   int
	gen    func(i int) T
}

func newRoundRobin[T any](clients int, gen func(i int) T) *roundRobin[T] {
	return &roundRobin[T]{queues: make([][]T, clients), gen: gen}
}

func (r *roundRobin[T]) next(client int) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.queues[client]) == 0 {
		to := r.made % len(r.queues)
		r.queues[to] = append(r.queues[to], r.gen(r.made))
		r.made++
	}
	item := r.queues[client][0]
	r.queues[client] = r.queues[client][1:]
	return item
}

// distinctSource generates requests that never repeat a (context, prompt)
// key, so caches, singleflight and sessions all miss; dealt round-robin, keys
// stay unique across clients. Targets and context tasks are dealt stratified,
// context sizes cycle through 1..3 (twelve class and size pairs in all, met in
// turn), and every zeroEvery-th request has an empty context instead, until
// each task has had its one empty-context request (there are no more such
// keys; zeroEvery 0: never).
type distinctSource struct {
	u         *universe
	clients   int
	targets   *stratified
	contexts  *stratified
	zeros     *stratified
	zeroEvery int
	seen      map[string]bool
}

// zeroContextEvery is coprime to the dozen (class, size) pairs requests cycle
// through, so the empty-context requests do not always displace the same pair.
const zeroContextEvery = 17

func newDistinctSource(u *universe, rng *rand.Rand, clients, zeroEvery int) *roundRobin[serve.Request] {
	d := &distinctSource{
		u: u, clients: clients,
		targets: newStratified(u, rng), contexts: newStratified(u, rng), zeros: newStratified(u, rng),
		zeroEvery: zeroEvery, seen: map[string]bool{},
	}
	return newRoundRobin(clients, d.generate)
}

func (d *distinctSource) generate(i int) serve.Request {
	if d.zeroEvery > 0 && i%d.zeroEvery == d.zeroEvery-1 && d.zeros.dealt < len(d.u.tasks) {
		return serve.Request{Prompt: d.u.tasks[d.zeros.next()].Prompt}
	}
	// Every client meets every (class, size) pair: the pair advances once per
	// round of clients, not once per request.
	round := i / d.clients
	target := d.targets.classes[round%strata].next()
	prompt := d.u.tasks[target].Prompt
	for tries := 0; tries < 1000; tries++ {
		// Consecutive deals come from different classes, so the (at most
		// three) context tasks of one request are distinct.
		ctx := make([]int, 1+round%3)
		for j := range ctx {
			class := d.contexts.classes[d.contexts.dealt%strata]
			for ctx[j] = d.contexts.next(); ctx[j] == target; {
				ctx[j] = class.next()
			}
		}
		req := serve.Request{Prompt: prompt, Context: d.u.render(ctx, prompt)}
		if key := req.Context + "\x00" + req.Prompt; !d.seen[key] {
			d.seen[key] = true
			return req
		}
	}
	panic("benchmark: the universe has no unused (context, prompt) key left for " + prompt)
}

// distinctGen is one client's share of a distinctSource.
type distinctGen struct {
	src    *roundRobin[serve.Request]
	client int
	via    transport
}

func (g *distinctGen) next() request {
	return request{Via: g.via, Req: g.src.next(g.client)}
}

// editorGen replays the PR 7 keystroke trace: one editor types each task name
// in four growing prefixes, a streamed session request per prefix, then
// accepts the suggestion served for the full name into its buffer, which
// becomes the next request's context. The buffer restarts before the model
// input would outgrow the token budget. The served answers are checked
// against a deterministic golden, so the sequence is still a function of the
// seed alone; generated offline (no answers, as the digest does) the editor
// accepts the pool body instead.
type editorGen struct {
	u        *universe
	tasks    *roundRobin[int] // one deck for all editors: a window covers the whole pool evenly
	client   int
	rng      *rand.Rand
	session  string
	buffer   string // accepted tasks above the cursor
	accepted string // the suggestion served for the current task's full name
	current  int
	typed    int // prefixes of the current task already sent
}

const (
	keystrokesPerTask = 4
	// acceptPauseMax bounds the editor's pause after it accepts a suggestion,
	// drawn uniformly per task. Without one, two closed loops against a server
	// that answers on a fixed rhythm fall into step with each other for a whole
	// run, or do not, and the run measures whichever it happened to start in.
	// The pause redraws the editors' relative phase every task, so every run
	// samples all of them.
	acceptPauseMax = 50 * time.Millisecond
)

func newEditorGen(u *universe, tasks *roundRobin[int], client int, rng *rand.Rand, session string) *editorGen {
	g := &editorGen{u: u, tasks: tasks, client: client, rng: rng, session: session}
	g.current = g.tasks.next(client)
	return g
}

func (g *editorGen) next() request {
	var pause time.Duration
	if g.typed == keystrokesPerTask {
		if g.accepted == "" {
			g.accepted = g.u.tasks[g.current].text()
		}
		g.buffer += g.accepted
		g.current, g.typed, g.accepted = g.tasks.next(g.client), 0, ""
		if !g.u.fits(g.buffer, g.u.tasks[g.current].Prompt) {
			g.buffer = ""
		}
		pause = time.Duration(g.rng.Int63n(int64(acceptPauseMax)))
	}
	g.typed++
	name := g.u.tasks[g.current].Prompt
	return request{Via: httpSSE, Pause: pause, Req: serve.Request{
		Prompt:    name[:typedLen(name, g.typed)],
		Context:   g.buffer,
		SessionID: g.session,
	}}
}

// served tells the editor what came back for its last request. A suggestion
// that does not end its last line cannot be typed below, so it is not accepted.
func (g *editorGen) served(suggestion string) {
	if g.typed == keystrokesPerTask && strings.HasSuffix(suggestion, "\n") {
		g.accepted = suggestion
	}
}

// burstGen is the evaluation-harness burst: 3 requests in 10 are novel keys,
// each under a one-shot session id, and the rest repeat one of the client's 64
// most recent novel keys, the more recent the likelier (weight 1/rank). The
// front's response cache answers the repeats; the session caches only ever see
// writes. Every second repeat and every fourth novel request is streamed. A
// novel stream takes 150 ms or more when its decode outlasts 50 ms (see
// README.md, findings); were half the novel requests streamed, those would be
// a tenth of the window, and latency_p90_ms would be decided by which side of
// a tenth a handful of requests put them: runs of one seed read 129 or 150 ms.
// At a quarter they stay below a tenth on any machine, and p90 falls among
// the unary misses, which follow decode speed.
type burstGen struct {
	novel   *roundRobin[serve.Request]
	client  int
	rng     *rand.Rand
	session string
	block   *cycle
	history []serve.Request // novel requests, oldest first
	repeats int
}

const (
	burstBlock        = 10
	burstNovelInTen   = 3
	burstWorkingSet   = 64
	repeatStreamOneIn = 2
	novelStreamOneIn  = 4
)

// oneIn streams every k-th request of a kind and sends the others unary.
func oneIn(k, n int) transport {
	if n%k == 0 {
		return rpcStream
	}
	return rpcUnary
}

func (g *burstGen) next() request {
	if g.block.next() < burstNovelInTen || len(g.history) == 0 {
		req := g.novel.next(g.client)
		g.history = append(g.history, req)
		req.SessionID = fmt.Sprintf("%s-%d", g.session, len(g.history))
		return request{Via: oneIn(novelStreamOneIn, len(g.history)), Req: req}
	}
	g.repeats++
	return request{Via: oneIn(repeatStreamOneIn, g.repeats), Req: g.history[len(g.history)-g.zipfRank()]}
}

// zipfRank draws a recency rank in 1..min(len(history), burstWorkingSet) with
// probability proportional to 1/rank.
func (g *burstGen) zipfRank() int {
	n := len(g.history)
	if n > burstWorkingSet {
		n = burstWorkingSet
	}
	total := 0.0
	for r := 1; r <= n; r++ {
		total += 1 / float64(r)
	}
	x := g.rng.Float64() * total
	for r := 1; r <= n; r++ {
		x -= 1 / float64(r)
		if x <= 0 {
			return r
		}
	}
	return n
}

// newGenerators builds every client's generator for a workload.
func newGenerators(workload string, seed int64, u *universe, clients int) []generator {
	gens := make([]generator, clients)
	shared := seededRand(seed, workload, "shared")
	var src *roundRobin[serve.Request]
	var deck *roundRobin[int]
	switch workload {
	case wlUnaryDistinct:
		src = newDistinctSource(u, shared, clients, zeroContextEvery)
	case wlBurstRepeats, wlNgramDefault:
		src = newDistinctSource(u, shared, clients, 0)
	case wlEditorSessions:
		// The class advances once per round of editors, so every editor
		// types tasks of every class.
		dealer := newStratified(u, shared)
		deck = newRoundRobin(clients, func(i int) int { return dealer.classes[i/clients%strata].next() })
	}
	for c := range gens {
		rng := seededRand(seed, workload, fmt.Sprint(c))
		// Session ids do not carry the seed: the ring places a session by
		// its id, and whether the two editors share a replica must not
		// change from seed to seed (as it is, each has its own).
		session := fmt.Sprintf("%s-%d", workload, c)
		switch workload {
		case wlUnaryDistinct, wlNgramDefault:
			gens[c] = &distinctGen{src: src, client: c, via: httpUnary}
		case wlEditorSessions:
			gens[c] = newEditorGen(u, deck, c, rng, session)
		case wlBurstRepeats:
			gens[c] = &burstGen{novel: src, client: c, rng: rng, session: session, block: newCycle(rng, 0, burstBlock)}
		default:
			panic("benchmark: unknown workload " + workload)
		}
	}
	return gens
}

// digestRequests hashes the first n requests of every client: the identity of
// a workload's inputs under a seed.
func digestRequests(workload string, seed int64, u *universe, clients, n int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, g := range newGenerators(workload, seed, u, clients) {
		for i := 0; i < n; i++ {
			if err := enc.Encode(g.next()); err != nil {
				panic(err) // requests are plain strings and ints
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
