package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
)

// E10Row is one backend cell of the transport comparison. The same
// scenario — a three-member group forms, carries multicast traffic,
// survives a partition/heal cycle, and merges its structure back with
// totally ordered e-changes — runs once over the deterministic
// simulator and once over real loopback UDP sockets
// (internal/transport/udp), and the cell's own trace is span-profiled
// (internal/profile) into view-agreement and delivery-latency
// percentiles. The paper's run-time assumes only an asynchronous
// partitionable network; identical protocol outcomes over both
// backends, with only the latency constants shifting, is the evidence
// the stack really is transport-oblivious.
type E10Row struct {
	// Backend is "sim" or "udp".
	Backend string
	// Views counts view installations across the cell (bootstrap
	// singletons, the partition split, and the merges back).
	Views int
	// AgreeP50/AgreeP95 summarize end-to-end view-agreement latency
	// across every view change in the cell.
	AgreeP50, AgreeP95 time.Duration
	// McastP50/McastP95 summarize multicast delivery latency
	// (send-to-deliver, cross-process).
	McastP50, McastP95 time.Duration
	// EChanges counts e-view changes applied while merging the
	// structure back after the heal.
	EChanges int
	// Sent/Delivered/Dropped are the transport's packet counters for
	// the whole cell.
	Sent, Delivered, Dropped uint64
}

// RunE10 runs the scenario over one backend ("sim" or "udp"). msgs is
// the number of multicasts each member sends in the traffic phase.
func RunE10(backend string, msgs int, timing Timing, seed int64) (E10Row, error) {
	row := E10Row{Backend: backend}
	timing.Transport = backend
	e := timing.newEnv(seed)
	defer e.close()

	// Cell-local metrics and trace so spans and percentiles cover only
	// this backend's run; the harness-wide observer still sees all.
	cell := obs.NewRegistry()
	cellTrace := obs.NewMemorySink()
	opts := timing.Options("e10", true)
	opts.Observer = obs.Tee(timing.Observer, obs.NewCollector(cell, obs.NewTracer(0, cellTrace)))

	const n = 3
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, siteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if err := waitConverged(procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("e10 %s formation: %w", backend, err)
	}

	// Traffic phase: every member multicasts, everyone must deliver all
	// of it (n*msgs deliveries each, own messages included). Rounds are
	// paced: an unthrottled burst starves heartbeats at the receivers,
	// and the resulting false-suspicion view changes would discard
	// old-view messages for the temporarily excluded member — view
	// synchrony never re-sends across views. The cell measures delivery
	// latency under load, not heartbeat starvation, and pacing keeps
	// both backends on the same schedule.
	payload := make([]byte, 64)
	for i := 0; i < msgs; i++ {
		for _, p := range procs {
			if err := p.Multicast(payload); err != nil {
				return row, fmt.Errorf("e10 %s multicast: %w", backend, err)
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	want := uint64(n * msgs)
	err := eventually(30*time.Second, "traffic delivery", func() bool {
		for _, p := range procs {
			if p.Stats().MsgsDelivered < want {
				return false
			}
		}
		return true
	})
	if err != nil {
		return row, fmt.Errorf("e10 %s: %w", backend, err)
	}

	// Partition/heal cycle: isolate the first site, let both sides
	// install their reduced views, then heal and re-converge.
	e.fabric.SetPartitions([]string{siteName(0)}, []string{siteName(1), siteName(2)})
	err = eventually(30*time.Second, "partition views", func() bool {
		if procs[0].CurrentView().Size() != 1 {
			return false
		}
		v1, v2 := procs[1].CurrentView(), procs[2].CurrentView()
		return v1.Size() == 2 && v1.ID == v2.ID
	})
	if err != nil {
		return row, fmt.Errorf("e10 %s: %w", backend, err)
	}
	e.fabric.Heal()
	if err := waitConverged(procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("e10 %s re-merge: %w", backend, err)
	}

	// Totally ordered e-changes: merge the partition-scarred structure
	// back into one subview (SVSetMerge + SubviewMerge rounds).
	before := procs[0].Stats().EChangesApplied
	if err := mergeAll(procs[0], procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("e10 %s: %w", backend, err)
	}
	row.EChanges = int(procs[0].Stats().EChangesApplied - before)

	st := e.fabric.Stats()
	row.Sent, row.Delivered, row.Dropped = st.Sent, st.Delivered, st.Dropped()

	prof := profile.FromEvents(cellTrace.Events())
	row.Views = len(prof.Views)
	row.AgreeP50 = prof.Phases.Total.P50
	row.AgreeP95 = prof.Phases.Total.P95
	for _, kd := range prof.Latency {
		if kd.Kind == "multicast" {
			row.McastP50, row.McastP95 = kd.P50, kd.P95
		}
	}
	for _, p := range procs {
		p.Leave()
	}
	return row, nil
}

// E10Header is the column header line for E10 tables.
const E10Header = "backend | views | agree p50 | agree p95 | mcast p50 | mcast p95 | ech | sent | delivered | dropped"

// String renders the row under E10Header.
func (r E10Row) String() string {
	return fmt.Sprintf("%7s | %5d | %9v | %9v | %9v | %9v | %3d | %6d | %9d | %7d",
		r.Backend, r.Views,
		r.AgreeP50.Round(100*time.Microsecond), r.AgreeP95.Round(100*time.Microsecond),
		r.McastP50.Round(10*time.Microsecond), r.McastP95.Round(10*time.Microsecond),
		r.EChanges, r.Sent, r.Delivered, r.Dropped)
}
