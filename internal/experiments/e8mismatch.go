package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// E8MismatchRow is one mode of the install-propagation-mismatch
// ablation. The scenario manufactures the exact divergence the
// ROADMAP's residual-churn item describes: a member acks a proposal
// but its Install packet is lost, so it sits blocked advertising a
// stale view id while everyone else has moved on. Before the
// reconciliation fast path the coordinator could only heal this with a
// full re-proposal round (core.reproposal_total); with it, the cached
// Install is simply re-sent. Running the same packet-loss schedule
// with the fast path on and off (Options.NoReconcile) isolates what
// the fast path buys.
type E8MismatchRow struct {
	// Reconcile reports whether the fast path was enabled; false is the
	// NoReconcile ablation (the pre-fast-path behaviour).
	Reconcile bool
	// Cycles is how many suspect/recover/drop cycles ran.
	Cycles int
	// Dropped is how many Install packets the fault filter ate (one per
	// cycle when the schedule lands).
	Dropped uint64
	// Reconciles / Reproposals are the cell's core.reconcile_total and
	// core.reproposal_total deltas. The fast path's whole claim is
	// Reconciles ≈ Dropped and Reproposals = 0; the ablation inverts it.
	Reconciles  int
	Reproposals int
	// Heal latencies: per cycle, recovery of the suspected member until
	// every member (including the one whose install was dropped) sits in
	// the same view.
	HealP50, HealP95, HealMax time.Duration
	// AgreeP95 is the agree-phase p95 across the cell's member spans —
	// the phase re-proposal rounds stretch.
	AgreeP95 time.Duration
	// Unclosed counts view-change spans that never resolved (must be 0).
	Unclosed int
}

// RunE8Mismatch runs the install-mismatch scenario for one mode. Five
// processes a..e; per cycle, e is force-suspected out (a 4-member view
// forms), then a packet filter is armed to eat exactly the next
// Install from the coordinator a to member c, and e is un-suspected:
// the re-formed 5-member view reaches everyone but c, which acked and
// blocked. The run then waits for full convergence — via an install
// re-send (fast path) or a re-proposal round (ablation) — and times it.
func RunE8Mismatch(cycles int, reconcile bool, timing Timing, seed int64) (E8MismatchRow, error) {
	row := E8MismatchRow{Reconcile: reconcile, Cycles: cycles}
	// Fresh environment ⇒ fresh identifier space: mark a run boundary so
	// offline trace analysis never correlates the two modes' views.
	timing.MarkRun(fmt.Sprintf("e8m reconcile=%v cycles=%d", reconcile, cycles))
	e := timing.newEnv(seed)
	defer e.close()
	filt := transport.NewFaultFilter(e.fabric)

	cell := obs.NewRegistry()
	cellTrace := obs.NewMemorySink()
	opts := timing.Options("e8m", true)
	opts.Observer = obs.Tee(timing.Observer, obs.NewCollector(cell, obs.NewTracer(0, cellTrace)))
	opts.NoReconcile = !reconcile

	const n = 5
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(filt, e.reg, siteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if err := waitConverged(procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("formation: %w", err)
	}

	// The smallest member coordinates every re-formation round, so its
	// Install to the lagging member is the packet to lose. The victim
	// of the forced suspicion must NOT be the smallest member: a
	// smallest member seeing only newer peer views is the one case the
	// fast path cannot serve (it is the laggard) and would re-propose.
	coord, lag, victim := procs[0], procs[2], procs[n-1]
	dropInstall := func(from, to ids.PID, payload any) bool {
		if from != coord.PID() || to != lag.PID() {
			return false
		}
		_, ok := payload.(wire.Install)
		return ok
	}
	others := make([]*core.Process, 0, n-1)
	for _, p := range procs {
		if p != victim {
			others = append(others, p)
		}
	}

	var heals []time.Duration
	for c := 0; c < cycles; c++ {
		for _, p := range others {
			_ = p.ForceSuspect(victim.PID())
		}
		if err := waitConverged(others, 30*time.Second); err != nil {
			return row, fmt.Errorf("cycle %d shrink: %w", c, err)
		}
		// Budget 1: exactly the original Install is lost; whatever
		// heals the divergence afterwards (re-send or re-proposal
		// install) passes.
		filt.Arm(transport.DropFirst(1, dropInstall))
		start := time.Now()
		for _, p := range others {
			_ = p.Unforce(victim.PID())
		}
		// Disarm as soon as the Install is lost: an armed filter expands
		// every heartbeat broadcast into unicasts.
		if err := eventually(30*time.Second, "install drop", func() bool { return filt.Dropped() > uint64(c) }); err != nil {
			return row, fmt.Errorf("cycle %d: %w", c, err)
		}
		filt.Disarm()
		if err := waitConverged(procs, 30*time.Second); err != nil {
			return row, fmt.Errorf("cycle %d heal: %w", c, err)
		}
		heals = append(heals, time.Since(start))
	}
	// Let trailing installs propagate so the trace's last spans close.
	time.Sleep(2 * timing.SuspectAfter)

	snap := cell.Snapshot()
	row.Reconciles = int(snap.Counters[obs.MetricReconciles])
	row.Reproposals = int(snap.Counters[obs.MetricReproposals])
	row.Dropped = filt.Dropped()
	prof := profile.FromEvents(cellTrace.Events())
	row.AgreeP95 = prof.Phases.Agree.P95
	row.Unclosed = prof.Unclosed

	sort.Slice(heals, func(i, j int) bool { return heals[i] < heals[j] })
	if len(heals) > 0 {
		row.HealP50 = heals[len(heals)/2]
		row.HealP95 = heals[(len(heals)*95)/100]
		row.HealMax = heals[len(heals)-1]
	}
	// Crash (not Leave) so teardown adds no half-finished view changes
	// to the shared trace: a profiler pass over the whole file must not
	// see spans this experiment opened and abandoned.
	for _, p := range procs {
		p.Crash()
	}
	return row, nil
}

// E8MismatchHeader is the column header line for E8M tables.
const E8MismatchHeader = "mode         | cycles | dropped | reconc | reprop | heal p50 | heal p95 | heal max | agree p95 | unclosed"

// String renders the row under E8MismatchHeader.
func (r E8MismatchRow) String() string {
	mode := "no-reconcile"
	if r.Reconcile {
		mode = "reconcile"
	}
	ms := func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
	return fmt.Sprintf("%-12s | %6d | %7d | %6d | %6d | %8v | %8v | %8v | %9v | %8d",
		mode, r.Cycles, r.Dropped, r.Reconciles, r.Reproposals,
		ms(r.HealP50), ms(r.HealP95), ms(r.HealMax), ms(r.AgreeP95), r.Unclosed)
}
