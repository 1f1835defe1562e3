package simnet

import (
	"sync"
	"testing"
	"time"
)

// fakeData and fakeHB stand in for protocol packets so the batching
// tests can exercise the "data"-carrier / "hb"-rider pairing without
// depending on the wire package.
type fakeData struct{ n int }

func (fakeData) FabricKind() string { return "data" }
func (fakeData) FabricSize() int    { return 100 }

type fakeHB struct{ n int }

func (fakeHB) FabricKind() string { return "hb" }
func (fakeHB) FabricSize() int    { return 40 }

// slowFabric keeps messages in flight long enough that a heartbeat
// broadcast reliably finds the data packet still queued.
func slowFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	cfg.Delay = NewUniformDelay(80*time.Millisecond, 80*time.Millisecond, 7)
	return fastFabric(t, cfg)
}

func TestHeartbeatPiggybacksOnQueuedData(t *testing.T) {
	f := slowFabric(t, Config{})
	a := attach(t, f, pa)
	b := attach(t, f, pb)
	_ = b

	a.Send(pb, fakeData{1})
	a.Broadcast(fakeHB{1})

	s := f.Stats()
	if s.PerKind["hb"] != 0 {
		t.Fatalf("hb got its own packet: PerKind[hb] = %d", s.PerKind["hb"])
	}
	if s.Piggybacked != 1 || s.PerKindPiggyback["hb"] != 1 {
		t.Fatalf("piggyback counters = %d / %v", s.Piggybacked, s.PerKindPiggyback)
	}
	if s.Sent != 1 {
		t.Fatalf("Sent = %d, want 1 (the data carrier only)", s.Sent)
	}
	// The rider's bytes still count as traffic even though it is not a
	// packet of its own.
	if want := uint64(100 + 40); s.BytesSent != want {
		t.Fatalf("BytesSent = %d, want %d", s.BytesSent, want)
	}
	if s.PerKindBytes["hb"] != 40 {
		t.Fatalf("PerKindBytes[hb] = %d, want 40", s.PerKindBytes["hb"])
	}

	m, ok := recvWithin(t, b, 2*time.Second)
	if !ok {
		t.Fatal("carrier not delivered")
	}
	if m.Kind != "data" || len(m.Piggyback) != 1 || m.Piggyback[0].Kind != "hb" {
		t.Fatalf("delivered message = kind %q with %d riders", m.Kind, len(m.Piggyback))
	}
	if _, ok := m.Piggyback[0].Payload.(fakeHB); !ok {
		t.Fatalf("rider payload = %T", m.Piggyback[0].Payload)
	}
	// Exactly one packet was delivered; the rider shares it.
	if s := f.Stats(); s.Delivered != 1 || s.PerKindDelivered["data"] != 1 {
		t.Fatalf("delivery stats = %+v", s)
	}
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("unexpected second packet")
	}
}

// TestPiggybackCutsHeartbeatPacketCount is the batching claim in
// miniature: at the same heartbeat cadence, heartbeats sent under data
// load emit strictly fewer hb packets than heartbeats with nothing
// queued to ride on — here, zero, because every destination always has
// a carrier queued.
func TestPiggybackCutsHeartbeatPacketCount(t *testing.T) {
	hbPackets := func(withData bool) uint64 {
		f := slowFabric(t, Config{})
		a := attach(t, f, pa)
		attach(t, f, pb)
		attach(t, f, pc)
		for i := 0; i < 5; i++ {
			if withData {
				a.Send(pb, fakeData{i})
				a.Send(pc, fakeData{i})
			}
			a.Broadcast(fakeHB{i})
		}
		return f.Stats().PerKind["hb"]
	}
	with, without := hbPackets(true), hbPackets(false)
	if without != 10 {
		t.Fatalf("baseline hb packets = %d, want 10", without)
	}
	if with != 0 {
		t.Fatalf("piggybacked hb packets = %d, want 0", with)
	}
}

// TestStatsSnapshotConsistency hammers broadcast from several goroutines
// while concurrently snapshotting Stats, asserting the documented
// contract (transport.Stats): totals equal the sum of their per-kind
// breakdowns in every snapshot, and whole broadcast fan-outs are atomic
// — a snapshot never observes half a fan-out.
func TestStatsSnapshotConsistency(t *testing.T) {
	f := slowFabric(t, Config{})
	a := attach(t, f, pa)
	attach(t, f, pb)
	attach(t, f, pc)

	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			a.Broadcast(fakeData{i}) // fan-out of 2, no piggyback (kind "data")
		}
		close(stop)
	}()

	check := func(s Stats) {
		t.Helper()
		var kinds, bytes, delivered uint64
		for _, v := range s.PerKind {
			kinds += v
		}
		for _, v := range s.PerKindBytes {
			bytes += v
		}
		for _, v := range s.PerKindDelivered {
			delivered += v
		}
		if s.Sent != kinds {
			t.Fatalf("Sent %d != sum(PerKind) %d", s.Sent, kinds)
		}
		if s.BytesSent != bytes {
			t.Fatalf("BytesSent %d != sum(PerKindBytes) %d", s.BytesSent, bytes)
		}
		if s.Delivered != delivered {
			t.Fatalf("Delivered %d != sum(PerKindDelivered) %d", s.Delivered, delivered)
		}
		if s.Sent%2 != 0 {
			t.Fatalf("Sent %d is odd: snapshot caught a broadcast fan-out mid-flight", s.Sent)
		}
	}
	for {
		select {
		case <-stop:
			wg.Wait()
			s := f.Stats()
			check(s)
			if s.Sent != 2*rounds {
				t.Fatalf("final Sent = %d, want %d", s.Sent, 2*rounds)
			}
			return
		default:
			check(f.Stats())
		}
	}
}
