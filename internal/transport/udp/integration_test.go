package udp_test

// End-to-end proof that the view-synchrony stack is transport-oblivious:
// the full protocol — bootstrap, multicast traffic, a partition/heal
// cycle, and totally ordered e-view changes merging the structure back —
// runs over real loopback UDP sockets, and the recorded trace passes the
// same offline invariant suite (internal/tracecheck) the simulator runs
// are held to.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transport/udp"
	"repro/internal/vstest"
)

func TestThreeProcessViewChangesOverUDP(t *testing.T) {
	tr := udp.New(udp.Config{})
	defer tr.Close()
	reg := stable.NewRegistry()
	mem := obs.NewMemorySink()
	opts := vstest.FastOptions()
	opts.Group = "udpe2e"
	opts.Observer = obs.NewCollector(obs.NewRegistry(), obs.NewTracer(0, mem))

	const n = 3
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := core.Start(tr, reg, vstest.SiteName(i), opts)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		go func() {
			for range p.Events() {
			}
		}()
		procs = append(procs, p)
	}

	// Bootstrap: the three singletons must agree on one 3-member view
	// purely over sockets.
	vstest.WaitConverged(t, procs, 30*time.Second)

	// Traffic: every member multicasts; everyone delivers everything.
	const msgs = 20
	for i := 0; i < msgs; i++ {
		for _, p := range procs {
			if err := p.Multicast([]byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatalf("Multicast: %v", err)
			}
		}
	}
	vstest.Eventually(t, 30*time.Second, "traffic delivery", func() bool {
		for _, p := range procs {
			if p.Stats().MsgsDelivered < uint64(n*msgs) {
				return false
			}
		}
		return true
	})

	// Partition/heal: isolate site a; both sides must install reduced
	// views, then merge back after the heal.
	tr.SetPartitions([]string{"a"}, []string{"b", "c"})
	vstest.Eventually(t, 30*time.Second, "partition views", func() bool {
		if procs[0].CurrentView().Size() != 1 {
			return false
		}
		v1, v2 := procs[1].CurrentView(), procs[2].CurrentView()
		return v1.Size() == 2 && v1.ID == v2.ID
	})
	tr.Heal()
	vstest.WaitConverged(t, procs, 30*time.Second)

	// Totally ordered e-changes: drive the partition-scarred structure
	// back into a single subview via SVSet and subview merges.
	before := procs[0].Stats().EChangesApplied
	seqr := procs[0]
	vstest.Eventually(t, 30*time.Second, "structure merge", func() bool {
		v := seqr.CurrentView()
		if v.Structure.NumSVSets() > 1 {
			_ = seqr.SVSetMerge(v.Structure.SVSets()...)
			return false
		}
		if v.Structure.NumSubviews() > 1 {
			_ = seqr.SubviewMerge(v.Structure.Subviews()...)
			return false
		}
		for _, p := range procs {
			if p.CurrentView().Structure.NumSubviews() != 1 {
				return false
			}
		}
		return true
	})
	if procs[0].Stats().EChangesApplied == before {
		t.Fatal("merge completed without applying any e-changes")
	}

	for _, p := range procs {
		p.Leave()
	}
	for _, p := range procs {
		<-p.Done()
	}

	// The socket run must satisfy the same offline invariants as the
	// simulator runs: view agreement, e-change total order, structure
	// survival, mode legality, flush discipline.
	rep := tracecheck.Check(mem.Events())
	if !rep.OK() {
		t.Fatalf("tracecheck violations over UDP:\n%v", rep)
	}
	if st := tr.Stats(); st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("suspicious transport stats: %+v", st)
	}
}
