package neural

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// decodeFuzzModel is the small untrained transformer every fuzz iteration
// decodes with; its weights are a pure function of the seed.
var decodeFuzzModel = sync.OnceValues(func() (*Model, error) {
	return NewModel(Config{Vocab: 24, Ctx: 24, Dim: 16, Heads: 2, Layers: 2, Seed: 32})
})

// decodeSpec is one generation request of the differential test, kept as
// plain values so every decode path gets freshly built, identical options.
type decodeSpec struct {
	prefix      []int
	maxNew      int
	stopToken   int
	stopLen     int // Stop fires once this many tokens exist (0: no Stop func)
	temperature float64
	topK        int
	seed        int64
	cancelAfter int // close Cancel from the hook after this many tokens (0: never)
}

// opts builds the spec's GenOptions with a hook recording every token into
// seen. Each call seeds a fresh sampling source, as each path must.
func (s decodeSpec) opts(seen *[]int) GenOptions {
	o := GenOptions{StopToken: s.stopToken, Temperature: s.temperature, TopK: s.topK}
	if s.temperature > 0 {
		o.Rand = rand.New(rand.NewSource(s.seed))
	}
	if s.stopLen > 0 {
		o.Stop = func(g []int) bool { return len(g) >= s.stopLen }
	}
	var cancel chan struct{}
	if s.cancelAfter > 0 {
		cancel = make(chan struct{})
		o.Cancel = cancel
	}
	o.OnToken = func(tok int) {
		*seen = append(*seen, tok)
		if len(*seen) == s.cancelAfter {
			close(cancel)
		}
	}
	return o
}

// fits reports whether the request decodes purely in cache.
func (s decodeSpec) fits(ctx int) bool {
	return len(s.prefix) > 0 && s.maxNew > 0 && len(s.prefix)+s.maxNew-1 <= ctx
}

func randomTokens(rng *rand.Rand, n, vocab int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = rng.Intn(vocab)
	}
	return toks
}

// FuzzDecodePathsAgree is the differential test over every KV-cached decode
// entry point: one request — random prefix, budget, stop token, Stop func,
// sampling and cancel-after-k — must produce the same tokens and the same
// OnToken sequence through GenerateCached, SessionCache.Generate (cold, then
// warm on an extended prefix) and the Engine at MaxBatch 1 and 8 among
// mixed co-runners, and match the full-forward Generate whenever the
// request fits the window. A cancelled run must be a prefix of the
// uncancelled one.
func FuzzDecodePathsAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, prefixLen, maxNew, stopToken, stopLen, tempTenths, topK, cancelAfter uint8) {
		m, err := decodeFuzzModel()
		if err != nil {
			t.Fatal(err)
		}
		vocab, ctx := m.cfg.Vocab, m.cfg.Ctx
		rng := rand.New(rand.NewSource(seed))
		// Prefix and budget range past Ctx so the windowed re-prime, the
		// session overflow fallback and the engine's solo rows are reached.
		target := decodeSpec{
			prefix:      randomTokens(rng, int(prefixLen)%(ctx+9), vocab),
			maxNew:      int(maxNew) % (ctx + 9),
			stopToken:   int(stopToken) % vocab,
			stopLen:     int(stopLen) % 16,
			temperature: float64(tempTenths%16) / 10,
			topK:        int(topK) % 8,
			seed:        seed,
		}

		var refSeen []int
		ref := m.GenerateCached(target.prefix, target.maxNew, target.opts(&refSeen))
		if !equalInts(refSeen, ref) {
			t.Fatalf("GenerateCached: hook saw %v, output %v", refSeen, ref)
		}
		if target.fits(ctx) {
			var seen []int
			if full := m.Generate(target.prefix, target.maxNew, target.opts(&seen)); !equalInts(full, ref) || !equalInts(seen, ref) {
				t.Fatalf("Generate %v (hook %v) != GenerateCached %v", full, seen, ref)
			}
		}

		// The paths under test run the (possibly cancelling) target. Solo
		// drivers see the cancel before the next pick, so they stop at
		// exactly k tokens; the engine's hook runs on a relay goroutine, so
		// its row may decode a few steps further before the boundary check.
		target.cancelAfter = int(cancelAfter) % 12
		soloWant := ref
		if k := target.cancelAfter; k > 0 && k < len(ref) {
			soloWant = ref[:k]
		}
		checkSolo := func(path string, got, seen []int) {
			t.Helper()
			if !equalInts(got, soloWant) || !equalInts(seen, soloWant) {
				t.Fatalf("%s: got %v (hook %v), want %v of uncancelled %v", path, got, seen, soloWant, ref)
			}
		}

		var seen []int
		checkSolo("GenerateCached", m.GenerateCached(target.prefix, target.maxNew, target.opts(&seen)), seen)

		sc := m.NewSessionCache(SessionCacheConfig{})
		seen = nil
		cold, reused := sc.Generate("s", target.prefix, target.maxNew, target.opts(&seen))
		if reused != 0 {
			t.Fatalf("cold session reused %d positions", reused)
		}
		checkSolo("session cold", cold, seen)
		if sc.Active() != sc.Len() {
			t.Fatalf("session checkout leaked: active %d, resident %d", sc.Active(), sc.Len())
		}
		// Warm: the client typed on. Whatever the cold run left behind —
		// full, cancelled mid-way or nothing — must not change the answer.
		ext := target
		ext.cancelAfter = 0
		ext.prefix = append(append([]int(nil), target.prefix...), randomTokens(rng, 1+rng.Intn(3), vocab)...)
		var extSeen []int
		extRef := m.GenerateCached(ext.prefix, ext.maxNew, ext.opts(&extSeen))
		seen = nil
		warm, reused := sc.Generate("s", ext.prefix, ext.maxNew, ext.opts(&seen))
		if !equalInts(warm, extRef) || !equalInts(seen, extRef) {
			t.Fatalf("session warm: got %v (hook %v), want %v", warm, seen, extRef)
		}
		if target.fits(ctx) && ext.fits(ctx) && target.cancelAfter == 0 && reused < len(target.prefix) {
			t.Fatalf("session warm reused %d positions, want >= %d", reused, len(target.prefix))
		}

		// Engine: the target decodes among co-runners of mixed shapes, all
		// of which must match their own solo run too.
		const targetRow = 2 // submitted between co-runners
		rows := make([]decodeSpec, 6)
		for i := range rows {
			rows[i] = decodeSpec{
				prefix:    randomTokens(rng, 1+rng.Intn(ctx/2), vocab),
				maxNew:    1 + rng.Intn(ctx/2),
				stopToken: rng.Intn(vocab),
				stopLen:   rng.Intn(10),
				seed:      rng.Int63(),
			}
			if i%2 == 1 {
				rows[i].temperature, rows[i].topK = 0.7, 1+rng.Intn(6)
			}
		}
		rows[targetRow] = target
		wants := make([][]int, len(rows))
		for i, r := range rows {
			if i == targetRow {
				continue
			}
			var s []int
			wants[i] = m.GenerateCached(r.prefix, r.maxNew, r.opts(&s))
		}
		for _, maxBatch := range []int{1, 8} {
			e := m.NewEngine(EngineConfig{MaxBatch: maxBatch, Queue: len(rows)})
			tickets := make([]*Ticket, len(rows))
			seens := make([][]int, len(rows))
			for i, r := range rows {
				if tickets[i], err = e.Submit(context.Background(), r.prefix, r.maxNew, r.opts(&seens[i])); err != nil {
					t.Fatalf("engine x%d submit row %d: %v", maxBatch, i, err)
				}
			}
			for i, tk := range tickets {
				got := tk.Wait()
				if !equalInts(seens[i], got) {
					t.Fatalf("engine x%d row %d: hook saw %v, output %v", maxBatch, i, seens[i], got)
				}
				if i != targetRow {
					if !equalInts(got, wants[i]) {
						t.Fatalf("engine x%d row %d: got %v, solo %v", maxBatch, i, got, wants[i])
					}
					continue
				}
				if len(got) < len(soloWant) || len(got) > len(ref) || !equalInts(got, ref[:len(got)]) {
					t.Fatalf("engine x%d target: got %v, want a prefix of %v at least %d long", maxBatch, got, ref, len(soloWant))
				}
			}
			if err := e.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	})
}
