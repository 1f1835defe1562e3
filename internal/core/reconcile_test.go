package core_test

// Tests for the install-reconciliation fast path. External package: the
// integration test gates on internal/obs + internal/tracecheck, which
// import core.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vstest"
)

// reconNet boots n processes over a FaultFilter-wrapped simnet fabric so
// tests can lose individual packets (a fault the partition oracle
// cannot express).
func reconNet(t *testing.T, seed int64, n int, opts core.Options) (*transport.FaultFilter, []*core.Process) {
	t.Helper()
	fabric := simnet.New(simnet.Config{
		Delay: simnet.NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, seed+1),
		Seed:  seed,
	})
	t.Cleanup(fabric.Close)
	filt := transport.NewFaultFilter(fabric)
	reg := stable.NewRegistry()
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := core.Start(filt, reg, vstest.SiteName(i), opts)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		go func() {
			for range p.Events() {
			}
		}()
		procs = append(procs, p)
	}
	return filt, procs
}

// dropInstallPred matches Install packets from one PID to another.
func dropInstallPred(from, to ids.PID) func(f, t ids.PID, payload any) bool {
	return func(f, t ids.PID, payload any) bool {
		if f != from || t != to {
			return false
		}
		_, ok := payload.(wire.Install)
		return ok
	}
}

// forceDivergence runs one install-mismatch cycle: victim is suspected
// out of the group, the filter is armed to eat the next budget Installs
// from the coordinator to lag, and the victim is readmitted — leaving
// lag blocked in the predecessor view while everyone else has
// installed. It returns, filter disarmed, once the budget is spent.
func forceDivergence(t *testing.T, filt *transport.FaultFilter, procs []*core.Process, coord, lag, victim *core.Process, budget int) {
	t.Helper()
	others := make([]*core.Process, 0, len(procs)-1)
	for _, p := range procs {
		if p != victim {
			others = append(others, p)
		}
	}
	for _, p := range others {
		_ = p.ForceSuspect(victim.PID())
	}
	vstest.WaitConverged(t, others, 15*time.Second)
	spent := filt.Dropped() + uint64(budget)
	filt.Arm(transport.DropFirst(budget, dropInstallPred(coord.PID(), lag.PID())))
	for _, p := range others {
		_ = p.Unforce(victim.PID())
	}
	vstest.Eventually(t, 15*time.Second, "install drops", func() bool { return filt.Dropped() >= spent })
	filt.Disarm()
}

// TestReconcileHealsDivergenceWithoutProposal is the tracecheck-gated
// integration test: a forced peerView divergence (lost Install) must
// heal through the reconciliation fast path — no re-proposal round —
// and the resulting trace must satisfy every offline invariant.
func TestReconcileHealsDivergenceWithoutProposal(t *testing.T) {
	mem := obs.NewMemorySink()
	coll := obs.NewCollector(nil, obs.NewTracer(0, mem))
	opts := vstest.FastOptions()
	opts.Observer = coll

	filt, procs := reconNet(t, 808, 5, opts)
	vstest.WaitConverged(t, procs, 15*time.Second)

	coord, lag, victim := procs[0], procs[2], procs[4]
	forceDivergence(t, filt, procs, coord, lag, victim, 1)
	vstest.WaitConverged(t, procs, 15*time.Second)

	if got := filt.Dropped(); got != 1 {
		t.Fatalf("filter dropped %d installs, want 1", got)
	}
	st := coord.Stats()
	if st.Reconciles == 0 {
		t.Errorf("coordinator performed no reconciles; stats %+v", st)
	}
	if st.Reproposals != 0 {
		t.Errorf("coordinator escalated to %d reproposals, want 0", st.Reproposals)
	}

	// Crash (not Leave) so the trace ends with no view change half-open.
	for _, p := range procs {
		p.Crash()
	}
	for _, p := range procs {
		<-p.Done()
	}

	events := mem.Events()
	reconciles, reproposals := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case obs.EvReconcile:
			reconciles++
		case obs.EvRepropose:
			reproposals++
		}
	}
	if reconciles == 0 {
		t.Error("trace has no reconcile events")
	}
	if reproposals != 0 {
		t.Errorf("trace has %d repropose events, want 0", reproposals)
	}
	rep := tracecheck.Check(events)
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Errorf("trace violation: %v", v)
		}
	}
}

// TestDuplicateInstallIdempotent injects a verbatim re-send of the
// currently installed view and asserts the receiver drops it without
// re-running the install (no extra ViewEvent, bookkeeping intact).
func TestDuplicateInstallIdempotent(t *testing.T) {
	fabric := simnet.New(simnet.Config{
		Delay: simnet.NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, 31),
		Seed:  30,
	})
	t.Cleanup(fabric.Close)
	reg := stable.NewRegistry()
	opts := vstest.FastOptions()
	procs := make([]*core.Process, 0, 3)
	for i := 0; i < 3; i++ {
		p, err := core.Start(fabric, reg, vstest.SiteName(i), opts)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		go func() {
			for range p.Events() {
			}
		}()
		procs = append(procs, p)
	}
	v := vstest.WaitConverged(t, procs, 15*time.Second)

	// A raw endpoint plays the coordinator re-sending the current view.
	ep, err := fabric.Attach(ids.PID{Site: "z", Inc: 1})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	target := procs[1]
	installs := target.Stats().ViewsInstalled
	ep.Send(target.PID(), wire.Install{
		Group:     opts.Group,
		Proposal:  v.ID,
		Comp:      v.Members,
		Structure: v.Structure,
		Resend:    true,
	})

	vstest.Eventually(t, 5*time.Second, "duplicate install deduped", func() bool {
		return target.Stats().InstallsDeduped >= 1
	})
	st := target.Stats()
	if st.ViewsInstalled != installs {
		t.Errorf("duplicate install re-installed: %d views, want %d", st.ViewsInstalled, installs)
	}
	if cur := target.CurrentView(); cur.ID != v.ID {
		t.Errorf("current view changed to %v after duplicate install of %v", cur.ID, v.ID)
	}
	for _, p := range procs {
		p.Leave()
	}
}

// TestReconcileEscalatesToReproposal exhausts the re-send budget (the
// filter keeps eating reconcile re-sends too) and asserts the
// coordinator then falls back to a full re-proposal round — and that
// the round still heals the group.
func TestReconcileEscalatesToReproposal(t *testing.T) {
	opts := vstest.FastOptions()
	opts.ReconcileAttempts = 2
	filt, procs := reconNet(t, 909, 5, opts)
	vstest.WaitConverged(t, procs, 15*time.Second)

	coord, lag, victim := procs[0], procs[2], procs[4]
	// Budget covers the original install AND every reconcile re-send;
	// only the escalation round's install gets through.
	forceDivergence(t, filt, procs, coord, lag, victim, 1+opts.ReconcileAttempts)
	vstest.WaitConverged(t, procs, 15*time.Second)

	st := coord.Stats()
	// At least the full budget was spent before escalating; a stale
	// heartbeat arriving after the escalation round's install may
	// legitimately trigger one more (harmless, deduped) re-send, since
	// the install reset the per-peer attempt counts.
	if st.Reconciles < uint64(opts.ReconcileAttempts) {
		t.Errorf("coordinator reconciled %d times, want >= %d", st.Reconciles, opts.ReconcileAttempts)
	}
	if st.Reproposals == 0 {
		t.Error("reconcile budget exhausted but no reproposal followed")
	}
	if got := filt.Dropped(); got != uint64(1+opts.ReconcileAttempts) {
		t.Errorf("filter dropped %d installs, want %d", got, 1+opts.ReconcileAttempts)
	}
	for _, p := range procs {
		p.Leave()
	}
}
