package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/vstest"
)

const convergeBudget = 5 * time.Second

func TestBootstrapSingletonViewIsFirstEvent(t *testing.T) {
	n := vstest.NewNet(t, 1)
	p := n.Start("a", vstest.FastOptions())
	vstest.Eventually(t, time.Second, "bootstrap event", func() bool {
		return len(n.Sink(p).Views()) >= 1
	})
	views := n.Sink(p).Views()
	v := views[0]
	if len(v.Members) != 1 || v.Members[0] != p.PID() {
		t.Fatalf("bootstrap view members = %v", v.Members)
	}
	if v.Structure.NumSubviews() != 1 || v.Structure.NumSVSets() != 1 {
		t.Fatalf("bootstrap structure not singleton: %v", v.Structure)
	}
	if err := v.Structure.Validate(v.Comp()); err != nil {
		t.Fatalf("bootstrap structure invalid: %v", err)
	}
	p.Leave()
}

func TestTwoProcessesConverge(t *testing.T) {
	n := vstest.NewNet(t, 2)
	procs := n.StartN(2, vstest.FastOptions())
	v := vstest.WaitConverged(t, procs, convergeBudget)
	if v.Size() != 2 {
		t.Fatalf("converged view size = %d", v.Size())
	}
	// Enriched: two singleton subviews (joiners are never auto-merged).
	if v.Structure.NumSubviews() != 2 {
		t.Fatalf("expected 2 singleton subviews, got %v", v.Structure)
	}
}

func TestFiveProcessesConverge(t *testing.T) {
	n := vstest.NewNet(t, 3)
	procs := n.StartN(5, vstest.FastOptions())
	v := vstest.WaitConverged(t, procs, convergeBudget)
	if err := v.Structure.Validate(v.Comp()); err != nil {
		t.Fatalf("structure invalid: %v", err)
	}
	// All processes installed the same view id.
	for _, p := range procs {
		if got := p.CurrentView().ID; got != v.ID {
			t.Fatalf("%v installed %v, want %v", p.PID(), got, v.ID)
		}
	}
}

func TestFlatModeStructureIsDegenerate(t *testing.T) {
	opts := vstest.FastOptions()
	opts.Enriched = false
	n := vstest.NewNet(t, 4)
	procs := n.StartN(3, opts)
	v := vstest.WaitConverged(t, procs, convergeBudget)
	if v.Structure.NumSubviews() != 1 || v.Structure.NumSVSets() != 1 {
		t.Fatalf("flat mode structure = %v", v.Structure)
	}
	if err := v.Structure.Validate(v.Comp()); err != nil {
		t.Fatalf("structure invalid: %v", err)
	}
}

func TestMulticastDeliveredByAll(t *testing.T) {
	n := vstest.NewNet(t, 5)
	procs := n.StartN(3, vstest.FastOptions())
	v := vstest.WaitConverged(t, procs, convergeBudget)

	if err := procs[1].Multicast([]byte("hello")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	for _, p := range procs {
		p := p
		vstest.Eventually(t, 2*time.Second, fmt.Sprintf("delivery at %v", p.PID()), func() bool {
			for _, ms := range n.Sink(p).Msgs() {
				for _, m := range ms {
					if bytes.Equal(m.Payload, []byte("hello")) {
						if m.View != v.ID {
							t.Errorf("delivered in view %v, sent in %v", m.View, v.ID)
						}
						if m.From != procs[1].PID() {
							t.Errorf("From = %v", m.From)
						}
						return true
					}
				}
			}
			return false
		})
	}
}

func TestMulticastDuringViewChangeIsDeferred(t *testing.T) {
	// A multicast submitted while the sender is blocked must come out in
	// the next view (P2.2: sent and delivered in the same view).
	n := vstest.NewNet(t, 6)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	// Crash one member; while the remaining two agree on the new view,
	// multicast from a survivor. Timing is racy by design — whichever
	// view the message lands in, the tag must match at all survivors.
	procs[2].Crash()
	_ = procs[0].Multicast([]byte("mid-change"))
	vstest.WaitConverged(t, procs[:2], convergeBudget)

	var viewAt0 ids.ViewID
	vstest.Eventually(t, 2*time.Second, "delivery at sender", func() bool {
		for vid, ms := range n.Sink(procs[0]).Msgs() {
			for _, m := range ms {
				if bytes.Equal(m.Payload, []byte("mid-change")) {
					viewAt0 = vid
					return true
				}
			}
		}
		return false
	})
	vstest.Eventually(t, 2*time.Second, "delivery at peer in same view", func() bool {
		for vid, ms := range n.Sink(procs[1]).Msgs() {
			for _, m := range ms {
				if bytes.Equal(m.Payload, []byte("mid-change")) {
					if vid != viewAt0 {
						t.Fatalf("P2.2 violation: delivered in %v at peer, %v at sender", vid, viewAt0)
					}
					return true
				}
			}
		}
		return false
	})
}

func TestLeaveShrinksView(t *testing.T) {
	n := vstest.NewNet(t, 7)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	procs[2].Leave()
	v := vstest.WaitConverged(t, procs[:2], convergeBudget)
	if v.Comp().Has(procs[2].PID()) {
		t.Fatal("leaver still in view")
	}
}

func TestCrashShrinksView(t *testing.T) {
	n := vstest.NewNet(t, 8)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	procs[0].Crash() // crash the coordinator (smallest pid), worst case
	v := vstest.WaitConverged(t, procs[1:], convergeBudget)
	if v.Comp().Has(procs[0].PID()) {
		t.Fatal("crashed process still in view")
	}
}

func TestPartitionProducesConcurrentViews(t *testing.T) {
	n := vstest.NewNet(t, 9)
	procs := n.StartN(4, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	n.Fabric.SetPartitions([]string{"a", "b"}, []string{"c", "d"})
	left := vstest.WaitConverged(t, procs[:2], convergeBudget)
	right := vstest.WaitConverged(t, procs[2:], convergeBudget)
	if left.ID == right.ID {
		t.Fatal("concurrent partitions share a view id")
	}
	if left.Comp().Intersect(right.Comp()).Equal(left.Comp()) {
		t.Fatal("partitions overlap")
	}
}

func TestMergeAfterHealPreservesClusters(t *testing.T) {
	// The heart of Figure 2 / Property 6.3: after partitions heal, the
	// merged view contains each side as a distinct cluster — for the
	// members that transitioned together. (A member that reached the
	// merged view through an intermediate view — asymmetric partition
	// detection or staggered healing — legitimately arrives separated:
	// grouping only shrinks along such paths and may not regrow without
	// an application merge.)
	n := vstest.NewNet(t, 10)
	procs := n.StartN(4, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	// Make {a,b} one subview and {c,d} another via explicit merges.
	pairMerge(t, procs[0], procs[0], procs[1])
	pairMerge(t, procs[0], procs[2], procs[3])

	n.Fabric.SetPartitions([]string{"a", "b"}, []string{"c", "d"})
	vstest.WaitConverged(t, procs[:2], convergeBudget)
	vstest.WaitConverged(t, procs[2:], convergeBudget)
	// Each side re-merges its subviews after settling.
	remergeSide(t, procs[0], procs[:2])
	remergeSide(t, procs[2], procs[2:])

	n.Fabric.Heal()
	merged := vstest.WaitConverged(t, procs, convergeBudget)
	if err := merged.Structure.Validate(merged.Comp()); err != nil {
		t.Fatalf("merged structure invalid: %v", err)
	}

	// Never guaranteed to merge without an app request: the two sides.
	gotA, _ := merged.Structure.SubviewOf(procs[0].PID())
	gotC, _ := merged.Structure.SubviewOf(procs[2].PID())
	if gotA == gotC {
		t.Error("clusters collapsed: a and c share a subview without any app merge")
	}
	// The model guarantee (P6.3): co-subview pairs that transitioned the
	// same edge into the merged view stay co-subview.
	checkPairPreserved(t, n, merged, procs[0], procs[1])
	checkPairPreserved(t, n, merged, procs[2], procs[3])
}

// pairMerge drives x and y into one subview, retrying through transient
// view changes.
func pairMerge(t *testing.T, seqr, x, y *core.Process) {
	t.Helper()
	deadline := time.Now().Add(convergeBudget)
	var lastReq time.Time
	for {
		v := seqr.CurrentView()
		svX, okX := v.Structure.SubviewOf(x.PID())
		svY, okY := v.Structure.SubviewOf(y.PID())
		if okX && okY && svX == svY {
			// wait until both members observe it too
			if vx, vy := x.CurrentView(), y.CurrentView(); sameSubview(vx, x.PID(), y.PID()) && sameSubview(vy, x.PID(), y.PID()) {
				return
			}
		}
		if okX && okY && time.Since(lastReq) > 200*time.Millisecond {
			lastReq = time.Now()
			ssX, _ := v.Structure.SVSetOf(svX)
			ssY, _ := v.Structure.SVSetOf(svY)
			if ssX != ssY {
				_ = seqr.SVSetMerge(ssX, ssY)
			} else if svX != svY {
				_ = seqr.SubviewMerge(svX, svY)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair %v,%v never merged; structure %v", x.PID(), y.PID(), seqr.CurrentView().Structure)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sameSubview(v core.EView, x, y ids.PID) bool {
	svX, okX := v.Structure.SubviewOf(x)
	svY, okY := v.Structure.SubviewOf(y)
	return okX && okY && svX == svY
}

// checkPairPreserved asserts P6.3 for one pair: if both processes
// entered the merged view from the same predecessor view in which they
// shared a subview, they must share one in the merged view.
func checkPairPreserved(t *testing.T, n *vstest.Net, merged core.EView, x, y *core.Process) {
	t.Helper()
	predX, finalX, okX := finalBefore(n.Sink(x), merged.ID)
	predY, _, okY := finalBefore(n.Sink(y), merged.ID)
	if !okX || !okY || predX != predY {
		t.Logf("pair %v,%v entered %v from different views (%v vs %v): exempt from P6.3",
			x.PID(), y.PID(), merged.ID, predX, predY)
		return
	}
	if !sameSubview(finalX, x.PID(), y.PID()) {
		return // they were already separated before the merge
	}
	if !sameSubview(merged, x.PID(), y.PID()) {
		t.Errorf("P6.3 violation: %v and %v shared a subview in %v and both transitioned to %v but are split",
			x.PID(), y.PID(), predX, merged.ID)
	}
}

// finalBefore returns the id of the view a process left when installing
// target, plus the final enriched view (including applied e-changes) it
// observed there.
func finalBefore(sk *vstest.Sink, target ids.ViewID) (ids.ViewID, core.EView, bool) {
	var last core.EView
	seen := false
	for _, ev := range sk.Events() {
		switch e := ev.(type) {
		case core.ViewEvent:
			if e.EView.ID == target {
				if !seen {
					return ids.ViewID{}, core.EView{}, false
				}
				return last.ID, last, true
			}
			last = e.EView
			seen = true
		case core.EChangeEvent:
			if seen && e.EView.ID == last.ID {
				last = e.EView
			}
		}
	}
	return ids.ViewID{}, core.EView{}, false
}

// remergeSide drives one partition side back into a single subview,
// retrying through transient view changes.
func remergeSide(t *testing.T, seqr *core.Process, side []*core.Process) {
	t.Helper()
	deadline := time.Now().Add(convergeBudget)
	var lastReq time.Time
	for {
		done := true
		for _, p := range side {
			if p.CurrentView().Structure.NumSubviews() != 1 {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Since(lastReq) > 200*time.Millisecond {
			lastReq = time.Now()
			v := seqr.CurrentView()
			if sss := v.Structure.SVSets(); len(sss) >= 2 {
				_ = seqr.SVSetMerge(sss...)
			} else if svs := v.Structure.Subviews(); len(svs) >= 2 {
				_ = seqr.SubviewMerge(svs...)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("side never re-merged; structure %v", seqr.CurrentView().Structure)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestConcurrentMergeRequestsConverge(t *testing.T) {
	// Two members request sv-set merges concurrently; the sequencer
	// totally orders them (P6.1 — verified in depth by the randomized
	// checker tests), so all members converge to identical structures.
	n := vstest.NewNet(t, 11)
	procs := n.StartN(4, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	deadline := time.Now().Add(convergeBudget)
	var lastReq time.Time
	for {
		v := procs[0].CurrentView()
		if v.Structure.NumSVSets() <= 2 {
			break
		}
		if time.Since(lastReq) > 200*time.Millisecond {
			lastReq = time.Now()
			if sss := v.Structure.SVSets(); len(sss) >= 4 {
				// concurrent requests from two different members
				_ = procs[1].SVSetMerge(sss[0], sss[1])
				_ = procs[3].SVSetMerge(sss[2], sss[3])
			} else if len(sss) >= 2 {
				_ = procs[1].SVSetMerge(sss...)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("merges never applied; structure %v", v.Structure)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// All members converge to the same structure.
	vstest.Eventually(t, convergeBudget, "identical structures", func() bool {
		ref := procs[0].CurrentView()
		for _, p := range procs[1:] {
			v := p.CurrentView()
			if v.ID != ref.ID || !v.Structure.Equal(ref.Structure) {
				return false
			}
		}
		return true
	})
	// The recorded e-change events at every member form consistent
	// (prefix-ordered) sequences per view.
	perView := make(map[ids.ViewID][][]core.EChangeEvent)
	for _, p := range procs {
		byView := make(map[ids.ViewID][]core.EChangeEvent)
		for _, e := range n.Sink(p).EChanges() {
			byView[e.EView.ID] = append(byView[e.EView.ID], e)
		}
		for vid, seq := range byView {
			perView[vid] = append(perView[vid], seq)
		}
	}
	for vid, seqs := range perView {
		var longest []core.EChangeEvent
		for _, s := range seqs {
			if len(s) > len(longest) {
				longest = s
			}
		}
		for _, s := range seqs {
			for i, e := range s {
				ref := longest[i]
				if e.Seq != ref.Seq || e.Kind != ref.Kind || e.NewSVSet != ref.NewSVSet || e.NewSubview != ref.NewSubview {
					t.Fatalf("view %v: e-change %d diverges: %+v vs %+v", vid, i, e, ref)
				}
			}
		}
	}
}

func TestSubviewMergeAcrossSVSetsIsSilentlyIgnored(t *testing.T) {
	n := vstest.NewNet(t, 12)
	procs := n.StartN(2, vstest.FastOptions())
	v := vstest.WaitConverged(t, procs, convergeBudget)
	svs := v.Structure.Subviews()
	if err := procs[0].SubviewMerge(svs[0], svs[1]); err != nil {
		t.Fatalf("SubviewMerge: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if got := procs[0].CurrentView().Changes; got != 0 {
		t.Fatalf("no-effect merge produced %d e-changes", got)
	}
}

func TestRecoveryGetsNewIncarnation(t *testing.T) {
	n := vstest.NewNet(t, 13)
	procs := n.StartN(3, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	procs[2].Crash()
	vstest.WaitConverged(t, procs[:2], convergeBudget)

	// Recover site c: new incarnation joins the group again.
	p2 := n.Start("c", vstest.FastOptions())
	if p2.PID().Inc != 2 {
		t.Fatalf("recovered incarnation = %d, want 2", p2.PID().Inc)
	}
	all := []*core.Process{procs[0], procs[1], p2}
	v := vstest.WaitConverged(t, all, convergeBudget)
	if !v.Comp().Has(p2.PID()) {
		t.Fatal("recovered process not in view")
	}
	// Recovered process arrives as a singleton subview (a fresh process
	// cannot appear inside an existing subview — §6.1).
	sv, _ := v.Structure.SubviewOf(p2.PID())
	if got := v.Structure.SubviewMembers(sv); len(got) != 1 {
		t.Fatalf("recovered process subview = %v, want singleton", got)
	}
}

func TestViewLogPersisted(t *testing.T) {
	n := vstest.NewNet(t, 14)
	procs := n.StartN(2, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	st := n.Reg.Open("a")
	log := st.ViewLog()
	if len(log) < 2 {
		t.Fatalf("view log has %d entries, want >= 2 (bootstrap + merged)", len(log))
	}
	last, _ := st.LastView()
	if last.View != procs[0].CurrentView().ID {
		t.Fatalf("last logged view %v != current %v", last.View, procs[0].CurrentView().ID)
	}
}

func TestStoppedProcessAPIErrors(t *testing.T) {
	n := vstest.NewNet(t, 15)
	p := n.Start("a", vstest.FastOptions())
	p.Leave()
	if err := p.Multicast([]byte("x")); err != core.ErrStopped {
		t.Fatalf("Multicast after Leave: %v, want core.ErrStopped", err)
	}
	<-p.Done()
	// Events channel must close.
	vstest.Eventually(t, time.Second, "events drained", func() bool {
		_, open := <-p.Events()
		return !open
	})
}

func TestAgreementUnderMessageStorm(t *testing.T) {
	// Multicast a burst while a member crashes; all survivors of each
	// view transition must deliver identical per-view message sets.
	n := vstest.NewNet(t, 16)
	procs := n.StartN(4, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)

	stop := make(chan struct{})
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = procs[0].Multicast([]byte(fmt.Sprintf("a-%d", i)))
			_ = procs[1].Multicast([]byte(fmt.Sprintf("b-%d", i)))
			i++
			time.Sleep(500 * time.Microsecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	procs[3].Crash()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	vstest.WaitConverged(t, procs[:3], convergeBudget)
	time.Sleep(100 * time.Millisecond) // drain in-flight deliveries

	// For every view two survivors share, delivered sets must be equal.
	// (procs[0..2] traverse the same view sequence.)
	sets := make([]map[ids.ViewID]map[ids.MsgID]bool, 3)
	for i, p := range procs[:3] {
		sets[i] = make(map[ids.ViewID]map[ids.MsgID]bool)
		for vid, ms := range n.Sink(p).Msgs() {
			set := make(map[ids.MsgID]bool, len(ms))
			for _, m := range ms {
				set[m.ID] = true
			}
			sets[i][vid] = set
		}
	}
	cur := procs[0].CurrentView().ID
	for vid := range sets[0] {
		if vid == cur {
			continue // current view still open; sets may legitimately trail
		}
		for i := 1; i < 3; i++ {
			other, ok := sets[i][vid]
			if !ok {
				continue // that process never traversed vid (different path)
			}
			if len(other) != len(sets[0][vid]) {
				t.Fatalf("P2.1 violation in view %v: |%v|=%d vs |%v|=%d",
					vid, procs[0].PID(), len(sets[0][vid]), procs[i].PID(), len(other))
			}
			for id := range sets[0][vid] {
				if !other[id] {
					t.Fatalf("P2.1 violation in view %v: %v missing %v", vid, procs[i].PID(), id)
				}
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	n := vstest.NewNet(t, 17)
	procs := n.StartN(2, vstest.FastOptions())
	vstest.WaitConverged(t, procs, convergeBudget)
	_ = procs[0].Multicast([]byte("x"))
	vstest.Eventually(t, time.Second, "stats", func() bool {
		s := procs[0].Stats()
		return s.MsgsSent >= 1 && s.MsgsDelivered >= 1 && s.ViewsInstalled >= 2
	})
}
