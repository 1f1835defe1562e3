package fd

import (
	"testing"
	"time"

	"repro/internal/ids"
)

var (
	pa = ids.PID{Site: "a", Inc: 1}
	pb = ids.PID{Site: "b", Inc: 1}
)

func TestNeverHeardIsSuspected(t *testing.T) {
	d := New(100 * time.Millisecond)
	if !d.Suspects(pa, time.Now()) {
		t.Error("unknown peer must be suspected")
	}
}

func TestHeartbeatClearsSuspicion(t *testing.T) {
	d := New(100 * time.Millisecond)
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0)
	if d.Suspects(pa, t0.Add(50*time.Millisecond)) {
		t.Error("recently heard peer suspected")
	}
	if !d.Suspects(pa, t0.Add(150*time.Millisecond)) {
		t.Error("silent peer not suspected after timeout")
	}
	// a new heartbeat revises the suspicion
	d.Heard(pa, t0.Add(200*time.Millisecond))
	if d.Suspects(pa, t0.Add(250*time.Millisecond)) {
		t.Error("suspicion not revised by later heartbeat")
	}
}

func TestHeardIgnoresStaleTimestamps(t *testing.T) {
	d := New(100 * time.Millisecond)
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0.Add(time.Second))
	d.Heard(pa, t0) // stale, must not roll lastHeard back
	if d.Suspects(pa, t0.Add(time.Second+50*time.Millisecond)) {
		t.Error("stale Heard rolled back liveness")
	}
}

func TestForceSuspect(t *testing.T) {
	d := New(time.Hour)
	now := time.Unix(0, 0)
	d.Heard(pa, now)
	d.ForceSuspect(pa)
	if !d.Suspects(pa, now) {
		t.Error("forced suspicion ignored")
	}
	if d.Alive(now).Has(pa) {
		t.Error("forced-suspected peer in Alive")
	}
	d.Unforce(pa)
	if d.Suspects(pa, now) {
		t.Error("Unforce did not clear suspicion")
	}
}

func TestAliveAndKnown(t *testing.T) {
	d := New(100 * time.Millisecond)
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0)
	d.Heard(pb, t0.Add(-200*time.Millisecond)) // already timed out at t0
	known := d.Known()
	if !known.Has(pa) || !known.Has(pb) {
		t.Fatalf("Known = %v", known)
	}
	alive := d.Alive(t0.Add(10 * time.Millisecond))
	if !alive.Has(pa) || alive.Has(pb) {
		t.Fatalf("Alive = %v", alive)
	}
}

func TestForget(t *testing.T) {
	d := New(time.Hour)
	now := time.Unix(0, 0)
	d.Heard(pa, now)
	d.ForceSuspect(pa)
	d.Forget(pa)
	if d.Known().Has(pa) {
		t.Error("Forget left peer in Known")
	}
	// forced flag must be cleared too: after hearing again, not suspected
	d.Heard(pa, now)
	if d.Suspects(pa, now) {
		t.Error("Forget did not clear forced suspicion")
	}
}

func TestGC(t *testing.T) {
	d := New(10 * time.Millisecond)
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0)
	d.Heard(pb, t0.Add(5*time.Second))
	d.GC(t0.Add(6*time.Second), time.Second)
	if d.Known().Has(pa) || !d.Known().Has(pb) {
		t.Fatalf("GC kept wrong peers: %v", d.Known())
	}
}

func TestHooksHeartbeatGap(t *testing.T) {
	d := New(10 * time.Millisecond)
	var gaps []time.Duration
	d.SetHooks(Hooks{HeartbeatGap: func(p ids.PID, gap time.Duration) {
		if p != pa {
			t.Fatalf("gap for %v, want %v", p, pa)
		}
		gaps = append(gaps, gap)
	}})
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0) // first contact: no previous timestamp, no gap
	d.Heard(pa, t0.Add(3*time.Millisecond))
	d.Heard(pa, t0.Add(3*time.Millisecond)) // stale (not after): no gap
	d.Heard(pa, t0.Add(10*time.Millisecond))
	if len(gaps) != 2 || gaps[0] != 3*time.Millisecond || gaps[1] != 7*time.Millisecond {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestHooksSuspectChangeDedupes(t *testing.T) {
	d := New(10 * time.Millisecond)
	type flip struct {
		p         ids.PID
		suspected bool
	}
	var flips []flip
	d.SetHooks(Hooks{SuspectChange: func(p ids.PID, s bool) { flips = append(flips, flip{p, s}) }})
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0)                          // first contact -> cleared
	d.Heard(pa, t0.Add(time.Millisecond))    // still clear -> deduped
	d.Alive(t0.Add(2 * time.Millisecond))    // still clear -> deduped
	d.Alive(t0.Add(20 * time.Millisecond))   // timeout crossed -> suspected
	d.Alive(t0.Add(21 * time.Millisecond))   // still suspected -> deduped
	d.Heard(pa, t0.Add(25*time.Millisecond)) // heartbeat clears it
	want := []flip{{pa, false}, {pa, true}, {pa, false}}
	if len(flips) != len(want) {
		t.Fatalf("flips = %v, want %v", flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("flips[%d] = %v, want %v", i, flips[i], want[i])
		}
	}
}

func TestHooksForceSuspect(t *testing.T) {
	d := New(time.Hour)
	var flips []bool
	d.SetHooks(Hooks{SuspectChange: func(p ids.PID, s bool) { flips = append(flips, s) }})
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0) // cleared
	d.ForceSuspect(pa)
	d.Heard(pa, t0.Add(time.Millisecond)) // forced: heartbeat must NOT clear
	d.Unforce(pa)
	d.Heard(pa, t0.Add(2*time.Millisecond)) // now it clears
	want := []bool{false, true, false}
	if len(flips) != len(want) {
		t.Fatalf("flips = %v, want %v", flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("flips[%d] = %v, want %v", i, flips[i], want[i])
		}
	}
}

func TestStaleHeardDoesNotClearSuspicion(t *testing.T) {
	// Regression: a stale liveness indication (timestamp not after the
	// freshest one recorded) used to clear the reported suspicion even
	// though the peer had legitimately timed out since.
	d := New(10 * time.Millisecond)
	var flips []bool
	d.SetHooks(Hooks{SuspectChange: func(p ids.PID, s bool) { flips = append(flips, s) }})
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0)                        // first contact -> cleared
	d.Alive(t0.Add(20 * time.Millisecond)) // timed out -> suspected
	d.Heard(pa, t0)                        // stale: must NOT clear
	want := []bool{false, true}
	if len(flips) != len(want) || flips[0] != want[0] || flips[1] != want[1] {
		t.Fatalf("flips = %v, want %v (stale Heard cleared a suspicion)", flips, want)
	}
	if !d.Suspects(pa, t0.Add(20*time.Millisecond)) {
		t.Fatal("peer unsuspected by a stale indication")
	}
	// A genuinely fresh indication still clears it.
	d.Heard(pa, t0.Add(25*time.Millisecond))
	if len(flips) != 3 || flips[2] != false {
		t.Fatalf("fresh Heard did not clear: flips = %v", flips)
	}
}

func TestGCBoundsAllMaps(t *testing.T) {
	// Regression: a peer that was ForceSuspect'ed but never heard from
	// had no lastHeard entry, so GC never dropped its forced/suspState
	// entries.
	d := New(10 * time.Millisecond)
	d.SetHooks(Hooks{SuspectChange: func(ids.PID, bool) {}})
	t0 := time.Unix(0, 0)
	d.Heard(pa, t0)
	d.ForceSuspect(pb) // never heard from
	if len(d.forced) != 1 || len(d.suspState) != 2 {
		t.Fatalf("setup: forced=%d suspState=%d", len(d.forced), len(d.suspState))
	}
	// A GC that keeps pa must still drop the never-heard pb entries.
	d.GC(t0.Add(time.Millisecond), time.Second)
	if _, ok := d.forced[pb]; ok {
		t.Fatal("GC left forced entry for never-heard peer")
	}
	if _, ok := d.suspState[pb]; ok {
		t.Fatal("GC left suspState entry for never-heard peer")
	}
	if !d.Known().Has(pa) {
		t.Fatal("GC dropped a live peer")
	}
	// Aging pa out empties everything.
	d.GC(t0.Add(time.Hour), time.Second)
	if len(d.lastHeard)+len(d.forced)+len(d.suspState) != 0 {
		t.Fatalf("GC left state: %v %v %v", d.lastHeard, d.forced, d.suspState)
	}
}

func TestNoHooksNoTracking(t *testing.T) {
	// Without hooks the detector must not accumulate suspState entries.
	d := New(time.Hour)
	d.Heard(pa, time.Unix(0, 0))
	d.Alive(time.Unix(1, 0))
	if len(d.suspState) != 0 {
		t.Fatalf("suspState grew without hooks: %v", d.suspState)
	}
}
