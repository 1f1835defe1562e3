package simnet

import (
	"testing"
	"time"

	"repro/internal/ids"
)

var (
	pa = ids.PID{Site: "a", Inc: 1}
	pb = ids.PID{Site: "b", Inc: 1}
	pc = ids.PID{Site: "c", Inc: 1}
)

func fastFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	if cfg.Delay == nil {
		cfg.Delay = NewUniformDelay(0, 100*time.Microsecond, 99)
	}
	f := New(cfg)
	t.Cleanup(f.Close)
	return f
}

func attach(t *testing.T, f *Fabric, pid ids.PID) *Endpoint {
	t.Helper()
	ep, err := f.Attach(pid)
	if err != nil {
		t.Fatalf("Attach(%v): %v", pid, err)
	}
	return ep.(*Endpoint)
}

func recvWithin(t *testing.T, ep *Endpoint, d time.Duration) (Message, bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if m, ok := ep.TryRecv(); ok {
			return m, true
		}
		if time.Now().After(deadline) {
			return Message{}, false
		}
		select {
		case <-ep.Wait():
		case <-time.After(time.Millisecond):
		}
	}
}

func TestUnicastDelivery(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	a.Send(pb, "hello")
	m, ok := recvWithin(t, b, time.Second)
	if !ok {
		t.Fatal("message not delivered")
	}
	if m.From != pa || m.To != pb || m.Payload != "hello" {
		t.Fatalf("wrong message: %+v", m)
	}
	s := f.Stats()
	if s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAttachDuplicateFails(t *testing.T) {
	f := fastFabric(t, Config{})
	attach(t, f, pa)
	if _, err := f.Attach(pa); err == nil {
		t.Fatal("duplicate Attach succeeded")
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	c := attach(t, f, pc)
	a.Broadcast("hb")
	for _, ep := range []*Endpoint{b, c} {
		if _, ok := recvWithin(t, ep, time.Second); !ok {
			t.Fatalf("broadcast not delivered to %v", ep.PID())
		}
	}
	if m, ok := recvWithin(t, a, 30*time.Millisecond); ok {
		t.Fatalf("sender received own broadcast: %+v", m)
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	f.SetPartitions([]string{"a"}, []string{"b"})
	if f.Reachable("a", "b") {
		t.Fatal("a and b should be unreachable")
	}
	a.Send(pb, "x")
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("message crossed a partition")
	}
	if s := f.Stats(); s.DroppedPartition != 1 {
		t.Fatalf("DroppedPartition = %d, want 1", s.DroppedPartition)
	}

	f.Heal()
	if !f.Reachable("a", "b") {
		t.Fatal("heal failed")
	}
	a.Send(pb, "y")
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("message not delivered after heal")
	}
}

func TestPartitionByComponentGroups(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	attach(t, f, pb)
	c := attach(t, f, pc)
	f.SetPartitions([]string{"a", "b"}, []string{"c"})
	if !f.Reachable("a", "b") || f.Reachable("a", "c") || f.Reachable("b", "c") {
		t.Fatal("component reachability wrong")
	}
	a.Send(pc, "blocked")
	if _, ok := recvWithin(t, c, 50*time.Millisecond); ok {
		t.Fatal("cross-component message delivered")
	}
	// Unmentioned sites share an implicit component: d,e reachable.
	f.SetPartitions([]string{"a"})
	if !f.Reachable("d", "e") || f.Reachable("a", "d") {
		t.Fatal("implicit component wrong")
	}
	_ = a
}

func TestInFlightMessageCutByPartition(t *testing.T) {
	f := fastFabric(t, Config{Delay: NewUniformDelay(80*time.Millisecond, 80*time.Millisecond, 1)})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	a.Send(pb, "slow")
	f.SetPartitions([]string{"a"}, []string{"b"}) // partition forms mid-flight
	if _, ok := recvWithin(t, b, 200*time.Millisecond); ok {
		t.Fatal("in-flight message survived partition")
	}
}

func TestDetachDropsTraffic(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	f.Detach(pb)
	if !b.Closed() {
		t.Fatal("detached endpoint not closed")
	}
	a.Send(pb, "x")
	time.Sleep(20 * time.Millisecond)
	if s := f.Stats(); s.DroppedDead != 1 {
		t.Fatalf("DroppedDead = %d, want 1", s.DroppedDead)
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("Recv on detached endpoint returned a message")
	}
}

func TestLossRateDropsSome(t *testing.T) {
	f := fastFabric(t, Config{LossRate: 0.5, Seed: 42})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	const n = 200
	for i := 0; i < n; i++ {
		a.Send(pb, i)
	}
	time.Sleep(100 * time.Millisecond)
	s := f.Stats()
	if s.DroppedLoss == 0 || s.DroppedLoss == n {
		t.Fatalf("DroppedLoss = %d, want strictly between 0 and %d", s.DroppedLoss, n)
	}
	got := 0
	for {
		if _, ok := b.TryRecv(); !ok {
			break
		}
		got++
	}
	if uint64(got) != s.Delivered {
		t.Fatalf("received %d, stats say %d", got, s.Delivered)
	}
}

type kindedPayload struct{ k string }

func (p kindedPayload) FabricKind() string { return p.k }
func (p kindedPayload) FabricSize() int    { return 64 }

func TestStatsPerKindAndBytes(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	attach(t, f, pb)
	a.Send(pb, kindedPayload{k: "data"})
	a.Send(pb, kindedPayload{k: "data"})
	a.Send(pb, kindedPayload{k: "propose"})
	a.Send(pb, "untyped")
	s := f.Stats()
	if s.PerKind["data"] != 2 || s.PerKind["propose"] != 1 || s.PerKind["other"] != 1 {
		t.Fatalf("PerKind = %v", s.PerKind)
	}
	if s.BytesSent != 64*3+1 {
		t.Fatalf("BytesSent = %d", s.BytesSent)
	}
	f.ResetStats()
	if s := f.Stats(); s.Sent != 0 || len(s.PerKind) != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

func TestDelayOrderingRoughlyFIFOForEqualDelay(t *testing.T) {
	// With a constant delay model, two sends to the same destination must
	// arrive in send order (tie-broken by sequence).
	f := fastFabric(t, Config{Delay: NewUniformDelay(time.Millisecond, time.Millisecond, 7)})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	for i := 0; i < 50; i++ {
		a.Send(pb, i)
	}
	for i := 0; i < 50; i++ {
		m, ok := recvWithin(t, b, time.Second)
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		if m.Payload.(int) != i {
			t.Fatalf("out of order: got %v at position %d", m.Payload, i)
		}
	}
}

func TestCloseStopsEverything(t *testing.T) {
	f := New(Config{Delay: NewUniformDelay(0, 0, 0)})
	a, err := f.Attach(pa)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Attach(pb); err == nil {
		t.Fatal("Attach succeeded on closed fabric")
	}
	if _, ok := a.Recv(); ok {
		t.Fatal("Recv returned message after Close")
	}
	a.Send(pa, "ignored") // must not panic
	f.Close()             // idempotent
}

func TestEndpointsSorted(t *testing.T) {
	f := fastFabric(t, Config{})
	attach(t, f, pc)
	attach(t, f, pa)
	attach(t, f, pb)
	got := f.Endpoints()
	if len(got) != 3 || got[0] != pa || got[1] != pb || got[2] != pc {
		t.Fatalf("Endpoints = %v", got)
	}
}

func TestBroadcastFollowsAttachAndDetach(t *testing.T) {
	// The sorted destination list is cached between broadcasts; every
	// change of the endpoint set must invalidate it.
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	c := attach(t, f, pc)
	a.Broadcast("hb")
	if _, ok := recvWithin(t, c, time.Second); !ok {
		t.Fatal("broadcast not delivered to c")
	}
	b := attach(t, f, pb) // sorts between the two cached pids
	a.Broadcast("hb")
	for _, ep := range []*Endpoint{b, c} {
		if _, ok := recvWithin(t, ep, time.Second); !ok {
			t.Fatalf("broadcast after Attach not delivered to %v", ep.PID())
		}
	}
	c.Detach()
	before := f.Stats().Sent
	a.Broadcast("hb")
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("broadcast after Detach not delivered to b")
	}
	if sent := f.Stats().Sent - before; sent != 1 {
		t.Fatalf("broadcast after Detach sent %d packets, want 1 (c is gone)", sent)
	}
	got := f.Endpoints()
	if len(got) != 2 || got[0] != pa || got[1] != pb {
		t.Fatalf("Endpoints = %v", got)
	}
	got[0] = pc // the caller owns the returned slice
	if again := f.Endpoints(); again[0] != pa {
		t.Fatalf("Endpoints returned its cache: %v", again)
	}
}

func TestBandwidthSerializesIngress(t *testing.T) {
	// 1 MB/s: a 100 KB message occupies the receiver link for ~100ms, so
	// two of them back-to-back take ~200ms while a lone small message to
	// another receiver arrives immediately.
	f := fastFabric(t, Config{
		Delay:     NewUniformDelay(0, 0, 1),
		Bandwidth: 1 << 20,
	})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	c := attach(t, f, pc)

	big := kindedBig{n: 100 << 10}
	start := time.Now()
	a.Send(pb, big)
	a.Send(pb, big)
	a.Send(pc, "small")

	if _, ok := recvWithin(t, c, time.Second); !ok {
		t.Fatal("small message to idle receiver not delivered")
	}
	if d := time.Since(start); d > 60*time.Millisecond {
		t.Fatalf("small message waited %v behind other receiver's traffic", d)
	}
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("first big message missing")
	}
	firstAt := time.Since(start)
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("second big message missing")
	}
	secondAt := time.Since(start)
	if firstAt < 80*time.Millisecond || secondAt < 160*time.Millisecond {
		t.Fatalf("bandwidth not modeled: first %v, second %v", firstAt, secondAt)
	}
}

type kindedBig struct{ n int }

func (k kindedBig) FabricKind() string { return "big" }
func (k kindedBig) FabricSize() int    { return k.n }

func TestUniformDelayBounds(t *testing.T) {
	u := NewUniformDelay(2*time.Millisecond, 5*time.Millisecond, 11)
	for i := 0; i < 1000; i++ {
		d := u.Delay("a", "b")
		if d < 2*time.Millisecond || d > 5*time.Millisecond {
			t.Fatalf("delay %v out of bounds", d)
		}
	}
	if NewUniformDelay(5, 1, 0).Max != 5*time.Nanosecond {
		// max < min clamps to min
		t.Fatal("clamp failed")
	}
}

func TestStatsPerKindBytesAndDelivered(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	a.Send(pb, kindedPayload{k: "data"})
	a.Send(pb, kindedPayload{k: "propose"})
	for got := 0; got < 2; {
		if _, ok := recvWithin(t, b, time.Second); !ok {
			t.Fatal("delivery timeout")
		} else {
			got++
		}
	}
	s := f.Stats()
	if s.PerKindBytes["data"] != 64 || s.PerKindBytes["propose"] != 64 {
		t.Fatalf("PerKindBytes = %v", s.PerKindBytes)
	}
	if s.PerKindDelivered["data"] != 1 || s.PerKindDelivered["propose"] != 1 {
		t.Fatalf("PerKindDelivered = %v", s.PerKindDelivered)
	}
}

// TestStatsSnapshotIsolation pins the documented snapshot semantics:
// Stats returns a deep copy — mutating it, or traffic after the call,
// must not show through; ResetStats starts a fresh epoch.
func TestStatsSnapshotIsolation(t *testing.T) {
	f := fastFabric(t, Config{})
	a := attach(t, f, pa)
	attach(t, f, pb)
	a.Send(pb, kindedPayload{k: "data"})
	snap := f.Stats()
	if snap.PerKind["data"] != 1 {
		t.Fatalf("PerKind = %v", snap.PerKind)
	}

	// Mutating the snapshot must not corrupt the fabric's live counters.
	snap.PerKind["data"] = 99
	snap.PerKindBytes["data"] = 99
	if live := f.Stats(); live.PerKind["data"] != 1 || live.PerKindBytes["data"] != 64 {
		t.Fatalf("snapshot mutation leaked into fabric: %+v", live)
	}

	// Traffic after the snapshot must not show in it.
	a.Send(pb, kindedPayload{k: "data"})
	if snap.PerKind["data"] != 99 {
		t.Fatal("snapshot changed after later traffic")
	}
	if live := f.Stats(); live.PerKind["data"] != 2 {
		t.Fatalf("PerKind after second send = %v", live.PerKind)
	}

	f.ResetStats()
	s := f.Stats()
	if s.Sent != 0 || s.BytesSent != 0 || len(s.PerKind) != 0 ||
		len(s.PerKindBytes) != 0 || len(s.PerKindDelivered) != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
	// And the fresh epoch counts normally.
	a.Send(pb, kindedPayload{k: "hb"})
	if s := f.Stats(); s.PerKind["hb"] != 1 {
		t.Fatalf("post-reset PerKind = %v", s.PerKind)
	}
}

func TestDescribe(t *testing.T) {
	if k, n := Describe(kindedPayload{k: "propose"}); k != "propose" || n != 64 {
		t.Fatalf("Describe(kinded) = %q, %d", k, n)
	}
	if k, n := Describe("untyped"); k != "other" || n != 1 {
		t.Fatalf("Describe(string) = %q, %d", k, n)
	}
}
