package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

func TestStabilityPrunesDeliveredBuffers(t *testing.T) {
	n := newNet(t, 30)
	procs := n.startN(3, testOpts())
	waitConverged(t, procs, convergeBudget)

	// A steady multicast stream in a stable view: stability tracking
	// must prune the flush buffers as the heartbeat-gossiped delivery
	// vectors advance.
	for i := 0; i < 200; i++ {
		_ = procs[i%3].Multicast([]byte(fmt.Sprintf("m%d", i)))
	}
	eventually(t, 5*time.Second, "stable messages pruned", func() bool {
		for _, p := range procs {
			if p.Stats().StableMsgsPruned == 0 {
				return false
			}
		}
		return true
	})
	// And everything was still delivered exactly once everywhere.
	for _, p := range procs {
		p := p
		eventually(t, 5*time.Second, "all deliveries", func() bool {
			return p.Stats().MsgsDelivered >= 200
		})
	}
}

func TestStabilityDoesNotBreakFlush(t *testing.T) {
	// Prune aggressively (steady traffic), then force a view change and
	// verify the survivors still agree per view (P2.1 would fail if a
	// needed message had been wrongly pruned, P2.3 if one were
	// re-delivered). The sequencer's stamps get a gap on the way: its
	// pruned messages, then an e-view change (a stamp slot that is never
	// retained), then messages one survivor is starved of — so the flush
	// has real work, and what that survivor misses is decided by stamp
	// component, not by position in the flush list.
	n := newNet(t, 31)
	filt := transport.NewFaultFilter(n.fabric)
	n.tr = filt
	procs := n.startN(4, testOpts())
	waitConverged(t, procs, convergeBudget)
	a, c := procs[0], procs[2] // a is the sequencer (smallest pid)
	for i := 0; i < 100; i++ {
		_ = procs[i%4].Multicast([]byte(fmt.Sprintf("pre%d", i)))
	}
	eventually(t, 5*time.Second, "pre-messages stable everywhere", func() bool {
		for _, p := range procs {
			if p.Stats().MsgsDelivered < 100 || p.StatusSnapshot().UnstableMsgs != 0 {
				return false
			}
		}
		return true
	})

	sss := a.CurrentView().Structure.SVSets()
	if len(sss) < 2 {
		t.Fatalf("want >= 2 sv-sets to merge, have %v", a.CurrentView().Structure)
	}
	if err := a.SVSetMerge(sss[0], sss[1]); err != nil {
		t.Fatalf("SVSetMerge: %v", err)
	}
	eventually(t, 5*time.Second, "e-view change applied everywhere", func() bool {
		for _, p := range procs {
			if p.Stats().EChangesApplied != 1 {
				return false
			}
		}
		return true
	})

	// Starve c of a's next messages: they stay unstable at a, b and d.
	filt.Arm(func(from, to ids.PID, payload any) transport.Verdict {
		if d, ok := payload.(pktData); ok && !d.Unicast && from == a.PID() && to == c.PID() {
			return transport.Drop()
		}
		return transport.Pass()
	})
	const starved = 20
	for i := 0; i < starved; i++ {
		_ = a.Multicast([]byte(fmt.Sprintf("post%d", i)))
	}
	eventually(t, 5*time.Second, "post-messages delivered at a, b, d", func() bool {
		for _, p := range []*Process{procs[0], procs[1], procs[3]} {
			if p.Stats().MsgsDelivered < 100+starved {
				return false
			}
		}
		return true
	})
	if got := c.Stats().MsgsDelivered; got != 100 {
		t.Fatalf("c delivered %d messages before the view change, want 100 (starved of the rest)", got)
	}

	old := a.CurrentView().ID
	procs[3].Crash()
	waitConverged(t, procs[:3], convergeBudget)
	filt.Disarm()
	time.Sleep(100 * time.Millisecond)

	if got := c.Stats().FlushDeliveries; got != starved {
		t.Errorf("c received %d messages through the flush, want %d", got, starved)
	}
	// Integrity: no duplicates at any survivor. Agreement: every survivor
	// delivered all of the old view's messages in it.
	for _, p := range procs[:3] {
		seen := make(map[ids.MsgID]int)
		msgs := n.sink(p).msgs()
		for _, ms := range msgs {
			for _, m := range ms {
				seen[m.ID]++
				if seen[m.ID] > 1 {
					t.Fatalf("%v delivered %v twice", p.PID(), m.ID)
				}
			}
		}
		if got := len(msgs[old]); got != 100+starved {
			t.Errorf("%v delivered %d messages in %v, want %d", p.PID(), got, old, 100+starved)
		}
	}
}

func TestUnicastDeliveredOnlyToTarget(t *testing.T) {
	n := newNet(t, 32)
	procs := n.startN(3, testOpts())
	waitConverged(t, procs, convergeBudget)

	if err := procs[0].Unicast(procs[2].PID(), []byte("direct")); err != nil {
		t.Fatalf("Unicast: %v", err)
	}
	eventually(t, 2*time.Second, "unicast delivery", func() bool {
		for _, ms := range n.sink(procs[2]).msgs() {
			for _, m := range ms {
				if m.Unicast && bytes.Equal(m.Payload, []byte("direct")) {
					return true
				}
			}
		}
		return false
	})
	// The other member must never see it.
	time.Sleep(50 * time.Millisecond)
	for _, ms := range n.sink(procs[1]).msgs() {
		for _, m := range ms {
			if bytes.Equal(m.Payload, []byte("direct")) {
				t.Fatal("unicast leaked to a third process")
			}
		}
	}
}

func TestUnicastToSelf(t *testing.T) {
	n := newNet(t, 33)
	p := n.start("a", testOpts())
	eventually(t, 2*time.Second, "bootstrap", func() bool { return p.CurrentView().Size() == 1 })
	if err := p.Unicast(p.PID(), []byte("me")); err != nil {
		t.Fatalf("Unicast(self): %v", err)
	}
	eventually(t, 2*time.Second, "self delivery", func() bool {
		for _, ms := range n.sink(p).msgs() {
			for _, m := range ms {
				if m.Unicast && string(m.Payload) == "me" {
					return true
				}
			}
		}
		return false
	})
}

func TestUnicastToNonMemberFails(t *testing.T) {
	n := newNet(t, 34)
	p := n.start("a", testOpts())
	eventually(t, 2*time.Second, "bootstrap", func() bool { return p.CurrentView().Size() == 1 })
	ghost := ids.PID{Site: "ghost", Inc: 1}
	if err := p.Unicast(ghost, []byte("x")); err == nil {
		t.Fatal("Unicast to non-member succeeded")
	}
}

func TestSingleJoinAbsorbsOneAtATime(t *testing.T) {
	opts := testOpts()
	opts.SingleJoin = true
	n := newNet(t, 35)
	anchor := n.start("a", opts) // smallest name: the anchor coordinates
	eventually(t, 2*time.Second, "bootstrap", func() bool { return anchor.CurrentView().Size() == 1 })

	before := anchor.Stats().ViewsInstalled
	const m = 4
	procs := []*Process{anchor}
	for i := 0; i < m; i++ {
		procs = append(procs, n.start(siteName(i+1), opts))
	}
	waitConverged(t, procs, convergeBudget)
	views := anchor.Stats().ViewsInstalled - before
	if views < m {
		t.Fatalf("anchor installed %d views; grow-by-one requires >= %d", views, m)
	}
	// Every installed view grew by at most one member.
	sizes := []int{}
	for _, v := range n.sink(anchor).views() {
		sizes = append(sizes, v.Size())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1]+1 {
			t.Fatalf("view grew by %d members under SingleJoin: %v", sizes[i]-sizes[i-1], sizes)
		}
	}
}

func TestTwoGroupsShareOneFabricInIsolation(t *testing.T) {
	n := newNet(t, 36)
	optsA := testOpts()
	optsA.Group = "alpha"
	optsB := testOpts()
	optsB.Group = "beta"

	a1 := n.start("a1", optsA)
	a2 := n.start("a2", optsA)
	b1 := n.start("b1", optsB)
	b2 := n.start("b2", optsB)

	waitConverged(t, []*Process{a1, a2}, convergeBudget)
	waitConverged(t, []*Process{b1, b2}, convergeBudget)

	// Views never mix groups.
	if a1.CurrentView().Comp().Has(b1.PID()) || b1.CurrentView().Comp().Has(a1.PID()) {
		t.Fatal("groups mixed in views")
	}
	// Multicasts never cross groups.
	_ = a1.Multicast([]byte("alpha-only"))
	eventually(t, 2*time.Second, "alpha delivery", func() bool {
		for _, ms := range n.sink(a2).msgs() {
			for _, m := range ms {
				if bytes.Equal(m.Payload, []byte("alpha-only")) {
					return true
				}
			}
		}
		return false
	})
	time.Sleep(50 * time.Millisecond)
	for _, sk := range []*sink{n.sink(b1), n.sink(b2)} {
		for _, ms := range sk.msgs() {
			for _, m := range ms {
				if bytes.Equal(m.Payload, []byte("alpha-only")) {
					t.Fatal("message crossed groups")
				}
			}
		}
	}
}

func TestFalseSuspicionCausesViewChangeAndHeals(t *testing.T) {
	// §2: the inability to communicate cannot be attributed to its real
	// cause — a falsely suspected (alive!) process is excluded exactly
	// like a crashed one; once the suspicion lifts it merges back.
	n := newNet(t, 39)
	procs := n.startN(3, testOpts())
	waitConverged(t, procs, convergeBudget)

	victim := procs[2]
	// Both survivors must suspect the victim, or the coordinator will
	// keep proposing the full composition.
	if err := procs[0].ForceSuspect(victim.PID()); err != nil {
		t.Fatal(err)
	}
	if err := procs[1].ForceSuspect(victim.PID()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, procs[:2], convergeBudget)
	if procs[0].CurrentView().Comp().Has(victim.PID()) {
		t.Fatal("falsely suspected process still in view")
	}
	// The victim, cut off from its peers' acks, ends up alone or stuck
	// in its old view; either way it is live.
	eventually(t, convergeBudget, "victim diverged", func() bool {
		return victim.CurrentView().ID != procs[0].CurrentView().ID
	})

	// The suspicion lifts: heartbeats were flowing all along, so the
	// membership re-merges without any fabric change.
	if err := procs[0].Unforce(victim.PID()); err != nil {
		t.Fatal(err)
	}
	if err := procs[1].Unforce(victim.PID()); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, procs, convergeBudget)
}

func TestSmallAccessorsAndStrings(t *testing.T) {
	n := newNet(t, 40)
	opts := testOpts()
	p := n.start("a", opts)
	if p.Site() != "a" || p.Group() != opts.Group {
		t.Fatalf("Site/Group = %q/%q", p.Site(), p.Group())
	}
	if EChangeSubviewMerge.String() != "SubviewMerge" ||
		EChangeSVSetMerge.String() != "SVSetMerge" ||
		EChangeKind(9).String() == "" {
		t.Fatal("EChangeKind strings")
	}
	p.Leave()
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Group == "" || o.HeartbeatEvery <= 0 || o.SuspectAfter <= 0 ||
		o.Tick <= 0 || o.ProposeTimeout <= 0 || o.MismatchDwell <= 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	if o.Observer != nil {
		t.Fatal("a nil Observer must stay nil: observation is off")
	}
	set := Options{
		Group:          "g",
		HeartbeatEvery: time.Second,
		SuspectAfter:   2 * time.Second,
		Tick:           time.Millisecond,
		ProposeTimeout: time.Second,
		MismatchDwell:  7,
	}.withDefaults()
	if set.HeartbeatEvery != time.Second || set.MismatchDwell != 7 {
		t.Fatal("withDefaults clobbered explicit values")
	}
}

// TestAdaptiveFDConvergence runs the full stack with AdaptiveFD on: a
// group forms, survives a crash (the adaptive timeout must still detect
// real failures), and re-admits a recovered incarnation. Under -race
// this also exercises the estimator on the live protocol loop.
func TestAdaptiveFDConvergence(t *testing.T) {
	n := newNet(t, 91)
	opts := testOpts()
	opts.AdaptiveFD = true
	procs := n.startN(3, opts)
	waitConverged(t, procs, convergeBudget)

	procs[2].Crash()
	waitConverged(t, procs[:2], convergeBudget)

	p2b := n.start(siteName(2), opts)
	waitConverged(t, []*Process{procs[0], procs[1], p2b}, convergeBudget)
	for _, p := range []*Process{procs[0], procs[1], p2b} {
		p.Leave()
	}
}

func TestLeaveIsPromptlyObserved(t *testing.T) {
	// A farewell heartbeat removes the leaver faster than the suspicion
	// timeout would.
	n := newNet(t, 37)
	procs := n.startN(3, testOpts())
	waitConverged(t, procs, convergeBudget)
	start := time.Now()
	procs[2].Leave()
	waitConverged(t, procs[:2], convergeBudget)
	elapsed := time.Since(start)
	// Generous bound: it must certainly beat several suspicion rounds.
	if elapsed > 3*testOpts().SuspectAfter+500*time.Millisecond {
		t.Fatalf("leave took %v, farewell seems ignored", elapsed)
	}
}

func TestEViewHelpers(t *testing.T) {
	n := newNet(t, 38)
	procs := n.startN(2, testOpts())
	v := waitConverged(t, procs, convergeBudget)
	if !v.HasMember(procs[0].PID()) || v.HasMember(ids.PID{Site: "x", Inc: 1}) {
		t.Fatal("HasMember wrong")
	}
	if v.Size() != 2 || !v.Comp().Equal(ids.NewPIDSet(procs[0].PID(), procs[1].PID())) {
		t.Fatal("Size/Comp wrong")
	}
	// Fresh joiners: singleton clusters, not co-subview.
	p0, p1 := procs[0].PID(), procs[1].PID()
	if v.CoSubview(p0, p1) {
		t.Fatal("joiners must not share a subview")
	}
	if got := v.Cluster(p0); !got.Equal(ids.NewPIDSet(p0)) {
		t.Fatalf("Cluster(%v) = %v", p0, got)
	}
	if v.Cluster(ids.PID{Site: "ghost", Inc: 1}) != nil {
		t.Fatal("Cluster of non-member must be nil")
	}
	// After an app merge, they share one.
	pairMerge(t, procs[0], procs[0], procs[1])
	merged := procs[0].CurrentView()
	if !merged.CoSubview(p0, p1) {
		t.Fatal("CoSubview false after merge")
	}
	if got := merged.Cluster(p0); !got.Equal(ids.NewPIDSet(p0, p1)) {
		t.Fatalf("merged Cluster = %v", got)
	}
}
