package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestFlightAbandonedWaiterNotCoalesced pins the singleflight accounting fix:
// a waiter whose ctx expires before the leader finishes must report
// coalesced=false — it never received a shared answer — and must increment
// the Abandoned counter instead of the coalesced-success metric.
func TestFlightAbandonedWaiterNotCoalesced(t *testing.T) {
	g := NewFlight()
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(context.Background(), "k", func() (string, error) {
			close(leaderIn)
			<-release
			return "v", nil
		})
		if err != nil {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the waiter's ctx is already dead when it joins the flight
	val, coalesced, err := g.Do(ctx, "k", func() (string, error) {
		t.Error("abandoned waiter ran fn")
		return "", nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if coalesced {
		t.Error("abandoned waiter reported coalesced=true")
	}
	if val != "" {
		t.Errorf("abandoned waiter got val %q", val)
	}
	if got := g.Abandoned(); got != 1 {
		t.Errorf("Abandoned() = %d, want 1", got)
	}

	close(release)
	wg.Wait()

	// A waiter that does receive the shared answer stays a plain coalesced
	// success and leaves the abandoned count alone.
	if got := g.Abandoned(); got != 1 {
		t.Errorf("Abandoned() after leader done = %d, want 1", got)
	}
}
