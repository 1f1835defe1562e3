package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/repfile"
	"repro/internal/core"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/tracecheck"
)

// F1Row reports the Figure-1 reproduction: a quorum file object driven
// through a failure / repair / crash / recovery schedule, with the mode
// transitions taken and the time spent per mode at the most-affected
// replica.
type F1Row struct {
	Site        string
	Transitions map[modes.Transition]int
	Residency   map[modes.Mode]time.Duration
	// IllegalSteps counts observed steps outside the six Figure-1 edges
	// (must be zero; the machine enforces it, the experiment re-checks).
	IllegalSteps int
}

// RunF1 executes the schedule and returns one row per replica.
func RunF1(timing Timing, seed int64) ([]F1Row, error) {
	e := timing.newEnv(seed)
	defer e.close()
	const n = 5
	sites := make([]string, n)
	for i := range sites {
		sites[i] = siteName(i)
	}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))
	cfg := repfile.Config{RW: rw, Enriched: true}

	files := make([]*repfile.File, 0, n)
	for _, s := range sites {
		f, err := repfile.Open(e.fabric, e.reg, s, timing.Options("f1", true), cfg)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	waitMode := func(fs []*repfile.File, want modes.Mode) error {
		return eventually(20*time.Second, fmt.Sprintf("mode %v", want), func() bool {
			for _, f := range fs {
				if f.Mode() != want {
					return false
				}
			}
			return true
		})
	}
	if err := waitMode(files, modes.Normal); err != nil {
		return nil, fmt.Errorf("formation: %w", err)
	}

	// Failure: partition the last two replicas into a minority.
	e.fabric.SetPartitions(sites[:3], sites[3:])
	if err := waitMode(files[3:], modes.Reduced); err != nil {
		return nil, fmt.Errorf("failure: %w", err)
	}
	// Repair: heal; the minority settles and reconciles.
	e.fabric.Heal()
	if err := waitMode(files, modes.Normal); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	// Reconfigure: a crash + recovery expands the view with a fresh
	// incarnation that must settle (transfer) before N.
	files[2].Process().Crash()
	if err := waitMode(append(append([]*repfile.File{}, files[:2]...), files[3:]...), modes.Normal); err != nil {
		return nil, fmt.Errorf("crash absorb: %w", err)
	}
	rec, err := repfile.Open(e.fabric, e.reg, sites[2], timing.Options("f1", true), cfg)
	if err != nil {
		return nil, err
	}
	files[2] = rec
	if err := waitMode(files, modes.Normal); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}

	legal := map[[2]modes.Mode]map[modes.Transition]bool{
		{modes.Normal, modes.Reduced}:    {modes.Failure: true},
		{modes.Normal, modes.Settling}:   {modes.Reconfigure: true},
		{modes.Reduced, modes.Settling}:  {modes.Repair: true},
		{modes.Settling, modes.Reduced}:  {modes.Failure: true},
		{modes.Settling, modes.Settling}: {modes.Reconfigure: true},
		{modes.Settling, modes.Normal}:   {modes.Reconcile: true},
	}
	rows := make([]F1Row, 0, n)
	for _, f := range files {
		m := f.ModeStats()
		row := F1Row{
			Site:        f.Process().Site(),
			Transitions: m.Counts,
			Residency:   m.Residency,
		}
		for _, st := range m.History {
			if !legal[[2]modes.Mode{st.From, st.To}][st.Label] {
				row.IllegalSteps++
			}
		}
		rows = append(rows, row)
		f.Close()
	}
	return rows, nil
}

// F1Header is the column header line for F1 tables.
const F1Header = "site | failure | repair | reconfigure | reconcile | illegal | %N | %R | %S"

// String renders the row under F1Header.
func (r F1Row) String() string {
	total := r.Residency[modes.Normal] + r.Residency[modes.Reduced] + r.Residency[modes.Settling]
	pct := func(m modes.Mode) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(r.Residency[m]) / float64(total)
	}
	return fmt.Sprintf("%-4s | %7d | %6d | %11d | %9d | %7d | %4.1f | %4.1f | %4.1f",
		r.Site,
		r.Transitions[modes.Failure], r.Transitions[modes.Repair],
		r.Transitions[modes.Reconfigure], r.Transitions[modes.Reconcile],
		r.IllegalSteps, pct(modes.Normal), pct(modes.Reduced), pct(modes.Settling))
}

// F2Row reports the Figure-2 reproduction: views, subviews and sv-sets
// across a partition and a merge, with the property checker's verdict.
type F2Row struct {
	Stage    string
	Members  int
	Subviews int
	SVSets   int
}

// RunF2 replays Figure 2's scenario (a partition splits a structured
// view; the merge preserves each side's grouping) and verifies P6.3 and
// every other property over the trace. It returns the stage rows and
// the number of checker violations (must be zero).
func RunF2(timing Timing, seed int64) ([]F2Row, int, error) {
	e := timing.newEnv(seed)
	defer e.close()
	rec := tracecheck.NewRecorder()
	opts := timing.Options("f2", true)
	opts.Observer = obs.Tee(opts.Observer, rec)

	const n = 6
	sites := make([]string, n)
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		sites[i] = siteName(i)
		p, err := timing.Start(e.fabric, e.reg, sites[i], opts)
		if err != nil {
			return nil, 0, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if err := waitConverged(procs, 15*time.Second); err != nil {
		return nil, 0, err
	}
	if err := mergeAll(procs[0], procs, 10*time.Second); err != nil {
		return nil, 0, err
	}
	var rows []F2Row
	snap := func(stage string, p *core.Process) {
		v := p.CurrentView()
		rows = append(rows, F2Row{
			Stage:    stage,
			Members:  v.Size(),
			Subviews: v.Structure.NumSubviews(),
			SVSets:   v.Structure.NumSVSets(),
		})
	}
	snap("formed+merged", procs[0])

	e.fabric.SetPartitions(sites[:4], sites[4:])
	if err := waitConverged(procs[:4], 15*time.Second); err != nil {
		return nil, 0, err
	}
	if err := waitConverged(procs[4:], 15*time.Second); err != nil {
		return nil, 0, err
	}
	// Each side re-merges after settling (asymmetric partition detection
	// may have fragmented it through transient singleton views).
	if err := mergeAll(procs[0], procs[:4], 10*time.Second); err != nil {
		return nil, 0, err
	}
	if err := mergeAll(procs[4], procs[4:], 10*time.Second); err != nil {
		return nil, 0, err
	}
	snap("left partition", procs[0])
	snap("right partition", procs[4])

	e.fabric.Heal()
	if err := waitConverged(procs, 15*time.Second); err != nil {
		return nil, 0, err
	}
	snap("merged", procs[0])
	for _, p := range procs {
		p.Leave()
	}
	time.Sleep(50 * time.Millisecond)
	violations := len(rec.Verify())
	return rows, violations, nil
}

// F2Header is the column header line for F2 tables.
const F2Header = "stage | members | subviews | sv-sets"

// String renders the row under F2Header.
func (r F2Row) String() string {
	return fmt.Sprintf("%-15s | %7d | %8d | %7d", r.Stage, r.Members, r.Subviews, r.SVSets)
}

// F3Row reports the Figure-3 reproduction: e-view changes within one
// view — an SV-SetMerge then a SubviewMerge — with the latency until all
// members applied each, and the checker's total-order verdict.
type F3Row struct {
	N int
	// SVSetMergeLatency / SubviewMergeLatency: request to group-wide
	// application.
	SVSetMergeLatency   time.Duration
	SubviewMergeLatency time.Duration
	// Violations counts property-checker findings (0 = P6.1/P6.2 held).
	Violations int
}

// RunF3 measures the row for group size n.
func RunF3(n int, timing Timing, seed int64) (F3Row, error) {
	row := F3Row{N: n}
	e := timing.newEnv(seed)
	defer e.close()
	rec := tracecheck.NewRecorder()
	opts := timing.Options("f3", true)
	opts.Observer = obs.Tee(opts.Observer, rec)

	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, siteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if err := waitConverged(procs, 15*time.Second); err != nil {
		return row, err
	}

	// mergeUntil issues the merge from the last member and waits until
	// every member's structure reflects it, re-requesting through
	// transient view changes (identifiers are view-scoped, so each retry
	// re-resolves them). Completion is judged structurally rather than by
	// the per-view change counter, which a spurious view change would
	// reset while preserving the merged grouping (P6.3).
	mergeUntil := func(svsets bool, what string, pred func(core.EView) bool) error {
		deadline := time.Now().Add(15 * time.Second)
		var lastReq time.Time
		for {
			done := true
			for _, p := range procs {
				if !pred(p.CurrentView()) {
					done = false
					break
				}
			}
			if done {
				return nil
			}
			if time.Since(lastReq) > 300*time.Millisecond {
				lastReq = time.Now()
				v := procs[n-1].CurrentView()
				if svsets {
					if sss := v.Structure.SVSets(); len(sss) >= 2 {
						_ = procs[n-1].SVSetMerge(sss...)
					}
				} else {
					if svs := v.Structure.Subviews(); len(svs) >= 2 {
						_ = procs[n-1].SubviewMerge(svs...)
					}
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("experiments: %s: timeout", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	start := time.Now()
	if err := mergeUntil(true, "sv-set merge", func(v core.EView) bool {
		return v.Structure.NumSVSets() == 1
	}); err != nil {
		return row, err
	}
	row.SVSetMergeLatency = time.Since(start)

	start = time.Now()
	if err := mergeUntil(false, "subview merge", func(v core.EView) bool {
		return v.Structure.NumSubviews() == 1
	}); err != nil {
		return row, err
	}
	row.SubviewMergeLatency = time.Since(start)

	for _, p := range procs {
		p.Leave()
	}
	time.Sleep(50 * time.Millisecond)
	row.Violations = len(rec.Verify())
	return row, nil
}

// F3Header is the column header line for F3 tables.
const F3Header = "n | sv-set merge latency | subview merge latency | checker violations"

// String renders the row under F3Header.
func (r F3Row) String() string {
	return fmt.Sprintf("%2d | %20v | %21v | %18d",
		r.N, r.SVSetMergeLatency.Round(100*time.Microsecond),
		r.SubviewMergeLatency.Round(100*time.Microsecond), r.Violations)
}
