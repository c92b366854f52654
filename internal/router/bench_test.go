// Router microbenchmarks: router-forwarded throughput over a
// single replica and a 3-replica fleet, plus the steady-state spillover
// path (dead owner with an open breaker, request served by the ring
// successor). Replicas are real in-process serve instances reached over
// loopback TCP, so every op pays the full RPC round trip.

package router

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wisdom/internal/resilience"
	"wisdom/internal/serve"
)

// benchRouterUnary drives distinct-key unary requests through a router over
// n replicas. Forwarding is I/O-bound, so the benchmark fans out 8
// goroutines per proc to keep backend workers busy even at GOMAXPROCS=1.
func benchRouterUnary(b *testing.B, n int) {
	rt, _ := startFleet(b, n, Options{})
	reqs := make([]serve.Request, 256)
	for i := range reqs {
		reqs[i] = serve.Request{Prompt: fmt.Sprintf("bench-%04d", i)}
	}
	ctx := context.Background()
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := rt.PredictRoute(ctx, reqs[i%len(reqs)]); err != nil {
				b.Errorf("PredictRoute: %v", err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkRouterUnary1(b *testing.B) { benchRouterUnary(b, 1) }
func BenchmarkRouterUnary3(b *testing.B) { benchRouterUnary(b, 3) }

// BenchmarkRouterSpillover measures the spillover path in steady state: the
// key's ring owner is down and its breaker is open, so every request skips
// the owner and is served by the next live ring node. The delta against
// BenchmarkRouterUnary3 is the per-request cost of failing over.
func BenchmarkRouterSpillover(b *testing.B) {
	rt, reps := startFleet(b, 3, Options{
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour},
	})
	victim := reps[0]
	req := serve.Request{Prompt: promptOwnedBy(b, rt, victim.addr)}
	victim.stop(b)
	ctx := context.Background()
	// One warm-up request pays the dial failure and opens the breaker.
	if _, err := rt.PredictRoute(ctx, req); err != nil {
		b.Fatalf("warm-up PredictRoute: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.PredictRoute(ctx, req); err != nil {
			b.Fatalf("PredictRoute: %v", err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if got := rt.Spillovers(); got == 0 {
		b.Fatal("benchmark never spilled over")
	}
}
