package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vstest"
)

func TestStabilityPrunesDeliveredBuffers(t *testing.T) {
	n := vstest.NewNet(t, 30)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	// A steady multicast stream in a stable view: stability tracking
	// must prune the flush buffers as the heartbeat-gossiped delivery
	// vectors advance.
	for i := 0; i < 200; i++ {
		_ = procs[i%3].Multicast([]byte(fmt.Sprintf("m%d", i)))
	}
	vstest.Eventually(t, 5*time.Second, "stable messages pruned", func() bool {
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
		vstest.Eventually(t, 5*time.Second, "all deliveries", func() bool {
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
	n := vstest.NewNet(t, 31)
	filt := transport.NewFaultFilter(n.Fabric)
	n.Transport = filt
	procs := n.StartN(4, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	a, c := procs[0], procs[2] // a is the sequencer (smallest pid)
	for i := 0; i < 100; i++ {
		_ = procs[i%4].Multicast([]byte(fmt.Sprintf("pre%d", i)))
	}
	vstest.Eventually(t, 5*time.Second, "pre-messages stable everywhere", func() bool {
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
	vstest.Eventually(t, 5*time.Second, "e-view change applied everywhere", func() bool {
		for _, p := range procs {
			if p.Stats().EChangesApplied != 1 {
				return false
			}
		}
		return true
	})

	// Starve c of a's next messages: they stay unstable at a, b and d.
	filt.Arm(func(from, to ids.PID, payload any) transport.Verdict {
		if d, ok := payload.(wire.Data); ok && !d.Unicast && from == a.PID() && to == c.PID() {
			return transport.Drop()
		}
		return transport.Pass()
	})
	const starved = 20
	for i := 0; i < starved; i++ {
		_ = a.Multicast([]byte(fmt.Sprintf("post%d", i)))
	}
	vstest.Eventually(t, 5*time.Second, "post-messages delivered at a, b, d", func() bool {
		for _, p := range []*core.Process{procs[0], procs[1], procs[3]} {
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
	vstest.WaitConverged(t, procs[:3], convergeBudget)
	filt.Disarm()
	time.Sleep(100 * time.Millisecond)

	if got := c.Stats().FlushDeliveries; got != starved {
		t.Errorf("c received %d messages through the flush, want %d", got, starved)
	}
	// Integrity: no duplicates at any survivor. Agreement: every survivor
	// delivered all of the old view's messages in it.
	for _, p := range procs[:3] {
		seen := make(map[ids.MsgID]int)
		msgs := n.Sink(p).Msgs()
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
	n := vstest.NewNet(t, 32)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	if err := procs[0].Unicast(procs[2].PID(), []byte("direct")); err != nil {
		t.Fatalf("Unicast: %v", err)
	}
	vstest.Eventually(t, 2*time.Second, "unicast delivery", func() bool {
		for _, ms := range n.Sink(procs[2]).Msgs() {
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
	for _, ms := range n.Sink(procs[1]).Msgs() {
		for _, m := range ms {
			if bytes.Equal(m.Payload, []byte("direct")) {
				t.Fatal("unicast leaked to a third process")
			}
		}
	}
}

func TestUnicastToSelf(t *testing.T) {
	n := vstest.NewNet(t, 33)
	p := n.Start("a", vstest.FastOptions())
	vstest.Eventually(t, 2*time.Second, "bootstrap", func() bool { return p.CurrentView().Size() == 1 })
	if err := p.Unicast(p.PID(), []byte("me")); err != nil {
		t.Fatalf("Unicast(self): %v", err)
	}
	vstest.Eventually(t, 2*time.Second, "self delivery", func() bool {
		for _, ms := range n.Sink(p).Msgs() {
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
	n := vstest.NewNet(t, 34)
	p := n.Start("a", vstest.FastOptions())
	vstest.Eventually(t, 2*time.Second, "bootstrap", func() bool { return p.CurrentView().Size() == 1 })
	ghost := ids.PID{Site: "ghost", Inc: 1}
	if err := p.Unicast(ghost, []byte("x")); err == nil {
		t.Fatal("Unicast to non-member succeeded")
	}
}

func TestSingleJoinAbsorbsOneAtATime(t *testing.T) {
	opts := vstest.FastOptions()
	opts.SingleJoin = true
	n := vstest.NewNet(t, 35)
	anchor := n.Start("a", opts) // smallest name: the anchor coordinates
	vstest.Eventually(t, 2*time.Second, "bootstrap", func() bool { return anchor.CurrentView().Size() == 1 })

	before := anchor.Stats().ViewsInstalled
	const m = 4
	procs := []*core.Process{anchor}
	for i := 0; i < m; i++ {
		procs = append(procs, n.Start(vstest.SiteName(i+1), opts))
	}
	vstest.WaitConverged(t, procs, convergeBudget)
	views := anchor.Stats().ViewsInstalled - before
	if views < m {
		t.Fatalf("anchor installed %d views; grow-by-one requires >= %d", views, m)
	}
	// Every installed view grew by at most one member.
	sizes := []int{}
	for _, v := range n.Sink(anchor).Views() {
		sizes = append(sizes, v.Size())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1]+1 {
			t.Fatalf("view grew by %d members under SingleJoin: %v", sizes[i]-sizes[i-1], sizes)
		}
	}
}

func TestTwoGroupsShareOneFabricInIsolation(t *testing.T) {
	n := vstest.NewNet(t, 36)
	optsA := vstest.FastOptions()
	optsA.Group = "alpha"
	optsB := vstest.FastOptions()
	optsB.Group = "beta"

	a1 := n.Start("a1", optsA)
	a2 := n.Start("a2", optsA)
	b1 := n.Start("b1", optsB)
	b2 := n.Start("b2", optsB)

	vstest.WaitConverged(t, []*core.Process{a1, a2}, convergeBudget)
	vstest.WaitConverged(t, []*core.Process{b1, b2}, convergeBudget)

	// Views never mix groups.
	if a1.CurrentView().Comp().Has(b1.PID()) || b1.CurrentView().Comp().Has(a1.PID()) {
		t.Fatal("groups mixed in views")
	}
	// Multicasts never cross groups.
	_ = a1.Multicast([]byte("alpha-only"))
	vstest.Eventually(t, 2*time.Second, "alpha delivery", func() bool {
		for _, ms := range n.Sink(a2).Msgs() {
			for _, m := range ms {
				if bytes.Equal(m.Payload, []byte("alpha-only")) {
					return true
				}
			}
		}
		return false
	})
	time.Sleep(50 * time.Millisecond)
	for _, sk := range []*vstest.Sink{n.Sink(b1), n.Sink(b2)} {
		for _, ms := range sk.Msgs() {
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
	n := vstest.NewNet(t, 39)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	victim := procs[2]
	// Both survivors must suspect the victim, or the coordinator will
	// keep proposing the full composition.
	if err := procs[0].ForceSuspect(victim.PID()); err != nil {
		t.Fatal(err)
	}
	if err := procs[1].ForceSuspect(victim.PID()); err != nil {
		t.Fatal(err)
	}
	vstest.WaitConverged(t, procs[:2], convergeBudget)
	if procs[0].CurrentView().Comp().Has(victim.PID()) {
		t.Fatal("falsely suspected process still in view")
	}
	// The victim, cut off from its peers' acks, ends up alone or stuck
	// in its old view; either way it is live.
	vstest.Eventually(t, convergeBudget, "victim diverged", func() bool {
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
	vstest.WaitConverged(t, procs, convergeBudget)
}

func TestSmallAccessorsAndStrings(t *testing.T) {
	n := vstest.NewNet(t, 40)
	opts := vstest.FastOptions()
	p := n.Start("a", opts)
	if p.Site() != "a" || p.Group() != opts.Group {
		t.Fatalf("Site/Group = %q/%q", p.Site(), p.Group())
	}
	if core.EChangeSubviewMerge.String() != "SubviewMerge" ||
		core.EChangeSVSetMerge.String() != "SVSetMerge" ||
		core.EChangeKind(9).String() == "" {
		t.Fatal("EChangeKind strings")
	}
	p.Leave()
}

// TestAdaptiveFDConvergence runs the full stack with AdaptiveFD on: a
// group forms, survives a crash (the adaptive timeout must still detect
// real failures), and re-admits a recovered incarnation. Under -race
// this also exercises the estimator on the live protocol loop.
func TestAdaptiveFDConvergence(t *testing.T) {
	n := vstest.NewNet(t, 91)
	opts := vstest.FastOptions()
	opts.AdaptiveFD = true
	procs := n.StartN(3, opts)
	vstest.WaitConverged(t, procs, convergeBudget)

	procs[2].Crash()
	vstest.WaitConverged(t, procs[:2], convergeBudget)

	p2b := n.Start(vstest.SiteName(2), opts)
	vstest.WaitConverged(t, []*core.Process{procs[0], procs[1], p2b}, convergeBudget)
	for _, p := range []*core.Process{procs[0], procs[1], p2b} {
		p.Leave()
	}
}

func TestLeaveIsPromptlyObserved(t *testing.T) {
	// A farewell heartbeat removes the leaver faster than the suspicion
	// timeout would.
	n := vstest.NewNet(t, 37)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	start := time.Now()
	procs[2].Leave()
	vstest.WaitConverged(t, procs[:2], convergeBudget)
	elapsed := time.Since(start)
	// Generous bound: it must certainly beat several suspicion rounds.
	if elapsed > 3*vstest.FastOptions().SuspectAfter+500*time.Millisecond {
		t.Fatalf("leave took %v, farewell seems ignored", elapsed)
	}
}

func TestEViewHelpers(t *testing.T) {
	n := vstest.NewNet(t, 38)
	procs := n.StartN(2, vstest.FastOptions())
	v := vstest.WaitConverged(t, procs, convergeBudget)
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

// TestBookkeepingBoundedByViewAge runs one long-lived view and checks
// that what a process retains does not depend on how many messages the
// view has carried: the flush buffer drains to zero and the live heap
// stays where it was after the first thousand.
func TestBookkeepingBoundedByViewAge(t *testing.T) {
	const (
		members = 3
		total   = 50_000
		batch   = 500
		slack   = 4 << 20
	)
	n := vstest.NewNet(t, 35)
	// The test needs one view for its whole length: no false suspicion
	// when the senders saturate a small machine.
	opts := vstest.FastOptions()
	opts.SuspectAfter = time.Second
	var procs []*core.Process
	var read [members]atomic.Int64
	for i := 0; i < members; i++ {
		p := n.StartRaw(vstest.SiteName(i), opts)
		// Count and discard: a sink that kept the events would be the
		// growth this test looks for.
		go func(i int) {
			for ev := range p.Events() {
				if _, ok := ev.(core.MsgEvent); ok {
					read[i].Add(1)
				}
			}
		}(i)
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Crash()
		}
	})
	view := vstest.WaitConverged(t, procs, convergeBudget)

	payload := make([]byte, 128)
	sendUpTo := func(sent, upTo int) {
		for sent < upTo {
			for i := 0; i < batch; i++ {
				if err := procs[(sent+i)%members].Multicast(payload); err != nil {
					t.Fatalf("Multicast: %v", err)
				}
			}
			sent += batch
			vstest.Eventually(t, 10*time.Second, "batch read everywhere", func() bool {
				for i := range read {
					if read[i].Load() < int64(sent) {
						return false
					}
				}
				return true
			})
		}
	}
	settled := func() uint64 {
		vstest.Eventually(t, 5*time.Second, "flush buffers drained", func() bool {
			for _, p := range procs {
				if st := p.StatusSnapshot(); st.UnstableMsgs != 0 || st.CausalPending != 0 {
					return false
				}
			}
			return true
		})
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	sendUpTo(0, 1000)
	early := settled()
	sendUpTo(1000, total)
	late := settled()

	if v := procs[0].CurrentView(); v.ID != view.ID {
		t.Fatalf("view changed during the run (%v -> %v); the test needs one view", view.ID, v.ID)
	}
	for _, p := range procs {
		if s := p.Stats(); s.MsgsDelivered != total || s.StableMsgsPruned != total {
			t.Errorf("%v delivered %d and pruned %d of %d", p.PID(), s.MsgsDelivered, s.StableMsgsPruned, total)
		}
	}
	t.Logf("heap in use: %d KiB after 1000 multicasts, %d KiB after %d", early>>10, late>>10, total)
	if late > early+slack {
		t.Errorf("heap in use grew from %d KiB after 1000 multicasts to %d KiB after %d", early>>10, late>>10, total)
	}
}
