// Tests for the fault-injection decorator: the DropFirst predicate's
// budget and re-arm semantics (including concurrent senders racing a
// budget of one, which the contract promises never double-counts), and
// FaultFilter's four verdicts over both backends, with broadcast
// expansion under an armed predicate.
package transport_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// recvAll drains ep for up to window, returning the payloads received.
func recvAll(ep transport.Endpoint, window time.Duration) []any {
	var out []any
	deadline := time.Now().Add(window)
	for {
		if m, ok := ep.TryRecv(); ok {
			out = append(out, m.Payload)
			for _, pb := range m.Piggyback {
				out = append(out, pb.Payload)
			}
			continue
		}
		if time.Now().After(deadline) {
			return out
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func countKind(payloads []any, kind string) int {
	n := 0
	for _, p := range payloads {
		if k, _ := transport.Describe(p); k == kind {
			n++
		}
	}
	return n
}

func TestDropFirstRearmResetsBudgetNotDropped(t *testing.T) {
	sim := simnet.New(simnet.Config{Seed: 1})
	defer sim.Close()
	f := transport.NewFaultFilter(sim)
	a, err := f.Attach(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Attach(pid(2))
	if err != nil {
		t.Fatal(err)
	}

	all := func(ids.PID, ids.PID, any) bool { return true }

	// Budget 1: first send dropped, second passes (budget spent).
	f.Arm(transport.DropFirst(1, all))
	a.Send(b.PID(), dataFrom(a.PID(), 1))
	a.Send(b.PID(), dataFrom(a.PID(), 2))
	if got := f.Dropped(); got != 1 {
		t.Fatalf("after first arm: Dropped = %d, want 1", got)
	}
	if got := len(recvAll(b, 50*time.Millisecond)); got != 1 {
		t.Fatalf("after first arm: b received %d, want 1", got)
	}

	// Re-arming starts a fresh budget (another drop is allowed) but does
	// not reset the cumulative Dropped counter.
	f.Arm(transport.DropFirst(1, all))
	a.Send(b.PID(), dataFrom(a.PID(), 3))
	if got := f.Dropped(); got != 2 {
		t.Fatalf("after re-arm: Dropped = %d, want 2 (cumulative)", got)
	}
	if got := len(recvAll(b, 20*time.Millisecond)); got != 0 {
		t.Fatalf("after re-arm: b received %d, want 0", got)
	}
}

func TestDropFirstZeroBudgetNeverDrops(t *testing.T) {
	sim := simnet.New(simnet.Config{Seed: 1})
	defer sim.Close()
	f := transport.NewFaultFilter(sim)
	a, _ := f.Attach(pid(1))
	b, _ := f.Attach(pid(2))

	called := false
	f.Arm(transport.DropFirst(0, func(ids.PID, ids.PID, any) bool { called = true; return true }))
	a.Send(b.PID(), dataFrom(a.PID(), 1))
	if got := len(recvAll(b, 50*time.Millisecond)); got != 1 {
		t.Fatalf("b received %d, want 1 (zero budget must pass)", got)
	}
	if called {
		t.Fatal("match ran despite a zero budget")
	}
	if got := f.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
}

// TestDropFirstConcurrentSendersNoDoubleCount hammers a budget-1
// predicate from many goroutines: exactly one send may be dropped,
// every other send must reach the receiver, no matter how the senders
// interleave with the budget running out.
func TestDropFirstConcurrentSendersNoDoubleCount(t *testing.T) {
	const senders = 32
	sim := simnet.New(simnet.Config{Seed: 1})
	defer sim.Close()
	f := transport.NewFaultFilter(sim)
	b, _ := f.Attach(pid(0))
	eps := make([]transport.Endpoint, senders)
	for i := range eps {
		ep, err := f.Attach(pid(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}

	f.Arm(transport.DropFirst(1, func(ids.PID, ids.PID, any) bool { return true }))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			ep.Send(b.PID(), dataFrom(ep.PID(), uint64(i)))
		}(i, ep)
	}
	wg.Wait()

	if got := f.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want exactly 1", got)
	}
	if got := len(recvAll(b, 200*time.Millisecond)); got != senders-1 {
		t.Fatalf("b received %d, want %d", got, senders-1)
	}
}

// faultBackends returns fresh filter-wrapped backends for FaultFilter
// tests: the simulator and real loopback UDP.
func faultBackends(t *testing.T) map[string]*transport.FaultFilter {
	t.Helper()
	out := make(map[string]*transport.FaultFilter, 2)
	for name, tr := range backends(t) {
		out[name] = transport.NewFaultFilter(tr)
	}
	return out
}

func TestFaultFilterVerdicts(t *testing.T) {
	for name, f := range faultBackends(t) {
		t.Run(name, func(t *testing.T) {
			a, err := f.Attach(pid(1))
			if err != nil {
				t.Fatal(err)
			}
			b, err := f.Attach(pid(2))
			if err != nil {
				t.Fatal(err)
			}

			// Drop.
			f.Arm(func(ids.PID, ids.PID, any) transport.Verdict { return transport.Drop() })
			a.Send(b.PID(), dataFrom(a.PID(), 1))
			if got := len(recvAll(b, 30*time.Millisecond)); got != 0 {
				t.Fatalf("drop: received %d, want 0", got)
			}
			if f.Dropped() != 1 {
				t.Fatalf("Dropped = %d, want 1", f.Dropped())
			}

			// Duplicate.
			f.Arm(func(ids.PID, ids.PID, any) transport.Verdict { return transport.Duplicate() })
			a.Send(b.PID(), dataFrom(a.PID(), 2))
			if got := len(recvAll(b, 100*time.Millisecond)); got != 2 {
				t.Fatalf("duplicate: received %d, want 2", got)
			}
			if f.Duplicated() != 1 {
				t.Fatalf("Duplicated = %d, want 1", f.Duplicated())
			}

			// Delay: the held packet arrives after a packet sent later.
			f.Arm(func(from, to ids.PID, payload any) transport.Verdict {
				if d, ok := payload.(wire.Data); ok && d.ID.Seq == 3 {
					return transport.Delay(40 * time.Millisecond)
				}
				return transport.Pass()
			})
			a.Send(b.PID(), dataFrom(a.PID(), 3))
			a.Send(b.PID(), dataFrom(a.PID(), 4))
			got := recvAll(b, 150*time.Millisecond)
			if len(got) != 2 {
				t.Fatalf("delay: received %d, want 2", len(got))
			}
			if first, ok := got[0].(wire.Data); !ok || first.ID.Seq != 4 {
				t.Fatalf("delay: first delivery %v, want seq 4 before the held seq 3", got[0])
			}
			if f.Delayed() != 1 {
				t.Fatalf("Delayed = %d, want 1", f.Delayed())
			}

			// Disarmed: pass-through.
			f.Disarm()
			a.Send(b.PID(), dataFrom(a.PID(), 5))
			if got := len(recvAll(b, 100*time.Millisecond)); got != 1 {
				t.Fatalf("disarmed: received %d, want 1", got)
			}
		})
	}
}

// TestFaultFilterBroadcastExpansion checks that an armed filter sees a
// concrete destination for every broadcast fan-out, so a one-way cut
// silences heartbeats toward one member only.
func TestFaultFilterBroadcastExpansion(t *testing.T) {
	for name, f := range faultBackends(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := f.Attach(pid(1))
			b, _ := f.Attach(pid(2))
			c, _ := f.Attach(pid(3))

			// One-way cut a -> b: b must miss a's broadcasts, c must not.
			f.Arm(func(from, to ids.PID, _ any) transport.Verdict {
				if from == a.PID() && to == b.PID() {
					return transport.Drop()
				}
				return transport.Pass()
			})
			for i := 0; i < 3; i++ {
				a.Broadcast(hbFrom(a.PID()))
			}
			if got := countKind(recvAll(b, 50*time.Millisecond), "hb"); got != 0 {
				t.Fatalf("cut side received %d heartbeats, want 0", got)
			}
			if got := countKind(recvAll(c, 100*time.Millisecond), "hb"); got != 3 {
				t.Fatalf("open side received %d heartbeats, want 3", got)
			}
			if f.Dropped() != 3 {
				t.Fatalf("Dropped = %d, want 3", f.Dropped())
			}
		})
	}
}

// TestFaultFilterDetachForgets checks a detached endpoint leaves the
// broadcast-expansion set: an armed broadcast after the detach must not
// fan out to it (the inner transport would silently drop, but the
// predicate should not even be consulted for a gone destination).
func TestFaultFilterDetachForgets(t *testing.T) {
	sim := simnet.New(simnet.Config{Seed: 1})
	defer sim.Close()
	f := transport.NewFaultFilter(sim)
	a, _ := f.Attach(pid(1))
	b, _ := f.Attach(pid(2))

	var mu sync.Mutex
	seen := make(map[ids.PID]int)
	f.Arm(func(_, to ids.PID, _ any) transport.Verdict {
		mu.Lock()
		seen[to]++
		mu.Unlock()
		return transport.Pass()
	})
	b.Detach()
	a.Broadcast(hbFrom(a.PID()))
	mu.Lock()
	defer mu.Unlock()
	if seen[b.PID()] != 0 {
		t.Fatalf("predicate consulted for detached destination %v", b.PID())
	}
}
