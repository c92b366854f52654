// Membership control-plane tests: runtime join/drain/remove against real
// in-process replicas, the session ownership tracker behind the cold-start
// check, and the router's AdminHandler implementation. Synchronisation is
// by channel signal (replicaModel.awaitBlocked) — no wall-clock sleeps on
// hot assertions.

package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wisdom/internal/serve"
)

// TestMembershipJoinServesTraffic joins a fourth replica at runtime and
// proves it takes ring ownership: the epoch bumps, the member table lists
// it active, and a prompt it owns is answered by it.
func TestMembershipJoinServesTraffic(t *testing.T) {
	rt, _ := startFleet(t, 3, Options{})
	joiner := startReplica(t, "joiner", "", serve.Options{})

	before := rt.MembershipEpoch()
	if err := rt.Join(context.Background(), joiner.addr); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got := rt.MembershipEpoch(); got != before+1 {
		t.Errorf("epoch = %d after join, want %d", got, before+1)
	}
	if got := rt.Joins(); got != 1 {
		t.Errorf("Joins() = %d, want 1", got)
	}

	found := false
	for _, m := range rt.Members() {
		if m.Addr == joiner.addr {
			found = true
			if m.State != memberActive {
				t.Errorf("joiner state = %q, want %q", m.State, memberActive)
			}
			if !m.Alive {
				t.Error("joiner not alive after warm-up heartbeat")
			}
			if m.RingShare <= 0 {
				t.Errorf("joiner ring share = %v, want > 0", m.RingShare)
			}
		}
	}
	if !found {
		t.Fatalf("joiner %s missing from Members(): %+v", joiner.addr, rt.Members())
	}

	// Find a prompt the joiner owns and forward it: the answer must carry
	// the joiner's name.
	prompt := ownedPrompt(t, rt.ring, joiner.addr)
	resp, err := rt.PredictRoute(context.Background(), serve.Request{Prompt: prompt})
	if err != nil {
		t.Fatalf("PredictRoute: %v", err)
	}
	if want := joiner.model.answer(prompt); resp.Suggestion != want {
		t.Fatalf("owned prompt answered %q, want the joiner's %q", resp.Suggestion, want)
	}
}

// ownedPrompt finds a prompt whose affinity key the given backend owns.
func ownedPrompt(t testing.TB, ring *Ring, addr string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("task-%d", i)
		if owner, ok := ring.Lookup(affinityKey(serve.Request{Prompt: p})); ok && owner == addr {
			return p
		}
	}
	t.Fatalf("no prompt owned by %s in 10000 tries", addr)
	return ""
}

// TestMembershipJoinRejectsUnhealthy joins an address nothing listens on:
// the warm-up round trip fails, the join is rejected with ErrJoinUnhealthy,
// and neither the ring nor the member table changed.
func TestMembershipJoinRejectsUnhealthy(t *testing.T) {
	rt, _ := startFleet(t, 2, Options{HeartbeatTimeout: 200 * time.Millisecond})
	before := rt.MembershipEpoch()
	err := rt.Join(context.Background(), "127.0.0.1:1") // reserved port, nothing listens
	if !errors.Is(err, ErrJoinUnhealthy) {
		t.Fatalf("Join(unreachable) = %v, want ErrJoinUnhealthy", err)
	}
	if got := rt.MembershipEpoch(); got != before {
		t.Errorf("epoch moved %d -> %d on a rejected join", before, got)
	}
	if got := len(rt.Members()); got != 2 {
		t.Errorf("members = %d after rejected join, want 2", got)
	}
	if got := rt.Joins(); got != 0 {
		t.Errorf("Joins() = %d after rejected join, want 0", got)
	}
}

// TestMembershipJoinDuplicate rejects joining an address already in the
// fleet.
func TestMembershipJoinDuplicate(t *testing.T) {
	rt, reps := startFleet(t, 2, Options{})
	if err := rt.Join(context.Background(), reps[0].addr); !errors.Is(err, ErrBackendExists) {
		t.Fatalf("Join(existing) = %v, want ErrBackendExists", err)
	}
	if err := rt.Join(context.Background(), "  "); err == nil {
		t.Fatal("Join(blank) succeeded, want error")
	}
}

// TestMembershipDrain drains one backend of three: it leaves the ring (its
// prompts reroute), stays in the member table as draining, and a second
// drain is a no-op.
func TestMembershipDrain(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{})
	target := reps[0]
	prompt := ownedPrompt(t, rt.ring, target.addr)

	before := rt.MembershipEpoch()
	if err := rt.Drain(target.addr); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := rt.MembershipEpoch(); got != before+1 {
		t.Errorf("epoch = %d after drain, want %d", got, before+1)
	}
	if got := rt.Drains(); got != 1 {
		t.Errorf("Drains() = %d, want 1", got)
	}

	// The drained backend's prompt now lands elsewhere.
	resp, err := rt.PredictRoute(context.Background(), serve.Request{Prompt: prompt})
	if err != nil {
		t.Fatalf("PredictRoute after drain: %v", err)
	}
	if strings.HasPrefix(resp.Suggestion, target.name+"|") {
		t.Fatalf("drained backend %s still receives new placements", target.name)
	}

	// Still a member, now draining.
	var st string
	for _, m := range rt.Members() {
		if m.Addr == target.addr {
			st = m.State
		}
	}
	if st != memberDraining {
		t.Errorf("drained backend state = %q, want %q", st, memberDraining)
	}

	// Idempotent: a second drain changes nothing.
	if err := rt.Drain(target.addr); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if got := rt.MembershipEpoch(); got != before+1 {
		t.Errorf("epoch = %d after idempotent drain, want %d", got, before+1)
	}

	// Unknown address is an error.
	if err := rt.Drain("10.0.0.1:1"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("Drain(unknown) = %v, want ErrUnknownBackend", err)
	}
}

// TestMembershipDrainLastBackendRefused refuses to drain the only active
// backend — a fleet with zero placeable backends answers nothing.
func TestMembershipDrainLastBackendRefused(t *testing.T) {
	rt, reps := startFleet(t, 2, Options{})
	if err := rt.Drain(reps[0].addr); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if err := rt.Drain(reps[1].addr); !errors.Is(err, ErrLastBackend) {
		t.Fatalf("Drain(last active) = %v, want ErrLastBackend", err)
	}
	if err := rt.Remove(context.Background(), reps[1].addr); !errors.Is(err, ErrLastBackend) {
		t.Fatalf("Remove(last active) = %v, want ErrLastBackend", err)
	}
}

// TestMembershipRemoveWaitsForInflight parks a forward on the victim, calls
// Remove concurrently, and proves Remove does not complete until the
// forward finishes — then the backend is gone from the member table and its
// pooled connections are closed.
func TestMembershipRemoveWaitsForInflight(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{})
	victim := replicaOwning(t, rt, reps, "block")

	// Park one forward on the victim.
	done := make(chan error, 1)
	go func() {
		_, err := rt.PredictRoute(context.Background(), serve.Request{Prompt: "block"})
		done <- err
	}()
	victim.model.awaitBlocked(t)

	removed := make(chan error, 1)
	go func() { removed <- rt.Remove(context.Background(), victim.addr) }()

	// Remove must be parked on the in-flight forward. Poll the membership
	// table: the victim must still be present (draining) while blocked.
	select {
	case err := <-removed:
		t.Fatalf("Remove returned (%v) while a forward was still in flight", err)
	case <-time.After(50 * time.Millisecond):
		// Still waiting — the expected state. This sleep bounds how long we
		// give a buggy Remove to return early; it is not a hot assertion.
	}
	if b := rt.backendFor(victim.addr); b == nil {
		t.Fatal("victim vanished from the backend table while in flight")
	} else if got := b.inflight.Load(); got != 1 {
		t.Fatalf("victim inflight = %d while parked, want 1", got)
	}

	victim.model.unblock()
	if err := <-done; err != nil {
		t.Fatalf("in-flight forward failed during remove: %v", err)
	}
	if err := <-removed; err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := rt.Removes(); got != 1 {
		t.Errorf("Removes() = %d, want 1", got)
	}
	for _, m := range rt.Members() {
		if m.Addr == victim.addr {
			t.Fatalf("removed backend %s still in Members()", victim.addr)
		}
	}
	if rt.backendFor(victim.addr) != nil {
		t.Fatal("removed backend still in the backend table")
	}
}

// TestRouteSeesJoinDuringForward pins the ring walk against a stale
// candidate list: while a request is parked on its owner, the only other
// candidate is removed and a new replica joins; then the owner's connection
// dies. Every address in the request's list is now dead or removed, but a
// healthy member exists, so the walk must pick up the joiner and succeed.
func TestRouteSeesJoinDuringForward(t *testing.T) {
	var owner string
	conns := make(chan net.Conn, 4)
	rt, reps := startFleet(t, 2, Options{Wrap: func(addr string, c net.Conn) net.Conn {
		if addr == owner {
			conns <- c
		}
		return c
	}})
	victim := replicaOwning(t, rt, reps, "block")
	owner = victim.addr
	done := make(chan serve.Response, 1)
	go func() {
		resp, err := rt.PredictRoute(context.Background(), serve.Request{Prompt: "block"})
		if err != nil {
			t.Errorf("request failed with a healthy joiner in the ring: %v", err)
		}
		done <- resp
	}()
	victim.model.awaitBlocked(t)

	for _, r := range reps {
		if r != victim {
			if err := rt.Remove(context.Background(), r.addr); err != nil {
				t.Fatalf("Remove: %v", err)
			}
		}
	}
	joiner := startReplica(t, "joiner", "", serve.Options{})
	joiner.model.unblock() // the joiner answers "block" at once
	if err := rt.Join(context.Background(), joiner.addr); err != nil {
		t.Fatalf("Join: %v", err)
	}
	(<-conns).Close() // the owner's forward fails with a transport error

	if resp, want := <-done, joiner.model.answer("block"); resp.Suggestion != want {
		t.Errorf("answer %q, want the joiner's %q", resp.Suggestion, want)
	}
	if got := rt.Spillovers(); got != 1 {
		t.Errorf("Spillovers() = %d, want 1", got)
	}
}

// replicaOwning returns the replica owning the given prompt.
func replicaOwning(t testing.TB, rt *Router, reps []*replica, prompt string) *replica {
	t.Helper()
	owner, ok := rt.ring.Lookup(affinityKey(serve.Request{Prompt: prompt}))
	if !ok {
		t.Fatal("empty ring")
	}
	for _, r := range reps {
		if r.addr == owner {
			return r
		}
	}
	t.Fatalf("owner %s not among replicas", owner)
	return nil
}

// TestMembershipRemoveCtxBound bounds Remove by context: with a forward
// parked forever, a context deadline unwedges the caller with an error and
// the backend stays (draining) in the table.
func TestMembershipRemoveCtxBound(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{})
	victim := replicaOwning(t, rt, reps, "block")

	go func() {
		_, _ = rt.PredictRoute(context.Background(), serve.Request{Prompt: "block"})
	}()
	victim.model.awaitBlocked(t)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := rt.Remove(ctx, victim.addr); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Remove with expired ctx = %v, want DeadlineExceeded", err)
	}
	if rt.backendFor(victim.addr) == nil {
		t.Fatal("backend removed despite the bounded wait failing")
	}
	victim.model.unblock()
}

// TestMembershipRejoinAfterRemove removes a backend and joins it back:
// the rejoin succeeds and the backend serves its owned prompts again.
func TestMembershipRejoinAfterRemove(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{})
	target := reps[2]
	if err := rt.Remove(context.Background(), target.addr); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := rt.Join(context.Background(), target.addr); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	prompt := ownedPrompt(t, rt.ring, target.addr)
	resp, err := rt.PredictRoute(context.Background(), serve.Request{Prompt: prompt})
	if err != nil {
		t.Fatalf("PredictRoute after rejoin: %v", err)
	}
	if want := target.model.answer(prompt); resp.Suggestion != want {
		t.Fatalf("rejoined backend's prompt answered %q, want %q", resp.Suggestion, want)
	}
}

// TestMembershipConcurrentChurn hammers Join/Drain/Remove from
// many goroutines; the invariant is freedom from deadlock and a consistent
// final table (run under -race to catch data races).
func TestMembershipConcurrentChurn(t *testing.T) {
	rt, _ := startFleet(t, 3, Options{HeartbeatTimeout: 200 * time.Millisecond})
	extras := make([]*replica, 4)
	for i := range extras {
		extras[i] = startReplica(t, fmt.Sprintf("extra%d", i), "", serve.Options{})
	}
	var wg sync.WaitGroup
	for _, e := range extras {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				_ = rt.Join(context.Background(), e.addr)
				_ = rt.Remove(context.Background(), e.addr)
			}
		}()
	}
	wg.Wait()
	// Every extra ended removed (the last op per goroutine); the core fleet
	// is intact.
	if got := len(rt.Members()); got != 3 {
		t.Fatalf("members = %d after churn, want the 3 originals: %+v", got, rt.Members())
	}
}

// TestSessionResetOnOwnerChange routes a session, drains its owner so the
// ring moves it, and checks the next request is stamped session_reset: the
// replica cold-starts instead of resuming another conversation's state.
func TestSessionResetOnOwnerChange(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{})
	const sid = "sess-move"
	req := serve.Request{Prompt: "hello", SessionID: sid}
	ownerAddr, _ := rt.ring.Lookup(affinityKey(req))
	var owner *replica
	for _, r := range reps {
		if r.addr == ownerAddr {
			owner = r
		}
	}
	if owner == nil {
		t.Fatalf("session owner %s not among replicas", ownerAddr)
	}

	// First request seats the session on its owner.
	if _, err := rt.PredictRoute(context.Background(), req); err != nil {
		t.Fatalf("first session request: %v", err)
	}
	if got := rt.SessionMoves(); got != 0 {
		t.Fatalf("SessionMoves = %d after first contact, want 0", got)
	}

	// Drain the owner: the session's arcs move to a successor.
	if err := rt.Drain(owner.addr); err != nil {
		t.Fatalf("Drain(owner): %v", err)
	}
	if _, err := rt.PredictRoute(context.Background(), req); err != nil {
		t.Fatalf("post-drain session request: %v", err)
	}
	if got := rt.SessionMoves(); got != 1 {
		t.Errorf("SessionMoves = %d after the owner drained, want 1", got)
	}

	// Steady state on the new owner: no further resets.
	if _, err := rt.PredictRoute(context.Background(), req); err != nil {
		t.Fatalf("steady-state session request: %v", err)
	}
	if got := rt.SessionMoves(); got != 1 {
		t.Errorf("SessionMoves = %d in steady state, want still 1", got)
	}
}

// TestSessionTrackerBounds exercises the LRU bound: beyond capacity the
// least-recently routed session is forgotten, and a forgotten session does
// not report a move.
func TestSessionTrackerBounds(t *testing.T) {
	var tr sessionTracker
	tr.init(2)
	tr.note("a", "x", 1)
	tr.note("b", "x", 1)
	if !tr.movedTo("a", "y", 1) {
		t.Error("tracked session a should report a move to a different addr")
	}
	if tr.movedTo("a", "x", 1) {
		t.Error("tracked session a reports a move to its own addr")
	}
	// Same addr under a newer epoch: still not a move (addr comparison).
	if tr.movedTo("a", "x", 2) {
		t.Error("same-addr lookup under a new epoch is not a move")
	}
	// movedTo does not bump recency, so "a" (noted first) is still the LRU
	// entry; noting "c" past capacity evicts it.
	tr.note("c", "x", 1)
	if tr.movedTo("a", "y", 1) {
		t.Error("evicted session should not report a move")
	}
	if tr.movedTo("never-seen", "y", 1) {
		t.Error("untracked session reports a move")
	}
}

// TestHandleAdminDispatch drives the AdminHandler seam directly: status
// lists members; join/drain/remove mutate; errors surface as status=error
// with the message, and every response carries the post-action epoch and
// table.
func TestHandleAdminDispatch(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{HeartbeatTimeout: 200 * time.Millisecond})
	joiner := startReplica(t, "joiner", "", serve.Options{})
	ctx := context.Background()

	st := rt.HandleAdmin(ctx, serve.AdminRequest{Action: serve.AdminStatus})
	if st.Status != "ok" || len(st.Members) != 3 || st.Epoch != rt.MembershipEpoch() {
		t.Fatalf("status response = %+v, want ok with 3 members at the current epoch", st)
	}

	jr := rt.HandleAdmin(ctx, serve.AdminRequest{Action: serve.AdminJoin, Backend: joiner.addr})
	if jr.Status != "ok" || len(jr.Members) != 4 {
		t.Fatalf("join response = %+v, want ok with 4 members", jr)
	}

	dr := rt.HandleAdmin(ctx, serve.AdminRequest{Action: serve.AdminDrain, Backend: reps[0].addr})
	if dr.Status != "ok" {
		t.Fatalf("drain response = %+v", dr)
	}

	rm := rt.HandleAdmin(ctx, serve.AdminRequest{Action: serve.AdminRemove, Backend: reps[0].addr})
	if rm.Status != "ok" || len(rm.Members) != 3 {
		t.Fatalf("remove response = %+v, want ok with 3 members", rm)
	}

	bad := rt.HandleAdmin(ctx, serve.AdminRequest{Action: serve.AdminJoin, Backend: "127.0.0.1:1"})
	if bad.Status != "error" || bad.Error == "" {
		t.Fatalf("failed join response = %+v, want status=error with a message", bad)
	}
	if len(bad.Members) != 3 {
		t.Errorf("error response carries %d members, want the table anyway", len(bad.Members))
	}

	unk := rt.HandleAdmin(ctx, serve.AdminRequest{Action: "explode"})
	if unk.Status != "error" {
		t.Fatalf("unknown action response = %+v, want status=error", unk)
	}
}

// TestMembershipStatsState checks AggregateStats reports per-backend state
// (active/draining) and keeps draining backends in the fleet view.
func TestMembershipStatsState(t *testing.T) {
	rt, reps := startFleet(t, 3, Options{})
	if err := rt.Drain(reps[1].addr); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	stats := rt.AggregateStats(serve.Stats{}).(FleetStats)
	if len(stats.Backends) != 3 {
		t.Fatalf("stats cover %d backends, want 3 (draining stays visible)", len(stats.Backends))
	}
	states := map[string]string{}
	for _, b := range stats.Backends {
		states[b.Addr] = b.State
	}
	if states[reps[1].addr] != memberDraining {
		t.Errorf("drained backend state = %q, want %q", states[reps[1].addr], memberDraining)
	}
	if states[reps[0].addr] != memberActive {
		t.Errorf("active backend state = %q, want %q", states[reps[0].addr], memberActive)
	}
}
