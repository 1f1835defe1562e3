package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/simnet"
	"repro/internal/stable"
)

// E7Row is one cell of the static-vs-adaptive failure-detector ablation.
// The paper's detectors are only required to be eventually accurate
// within a stable partition (§2); every false suspicion is
// indistinguishable from a failure and costs a view change. A static
// suspicion timeout must be provisioned for the worst network jitter or
// it manufactures exactly those false suspicions; the adaptive estimator
// (Jacobson mean + k·dev over observed heartbeat gaps) tracks the jitter
// instead. Each cell forms a five-member group over a fabric with the
// given delay jitter, watches a quiet window in which nothing fails, then
// crashes one member and times real detection.
type E7Row struct {
	// Jitter is the upper bound of the fabric's uniform delay.
	Jitter time.Duration
	// Adaptive selects the estimator; false runs the static SuspectAfter.
	Adaptive bool
	// FalseSuspicions counts suspicions revoked by fresh liveness during
	// the quiet window, summed over all members.
	FalseSuspicions int
	// ExtraViews counts view installations during the quiet window —
	// every one is churn manufactured by the detector.
	ExtraViews int
	// MeanTimeout is the mean effective suspicion timeout in force
	// (static: SuspectAfter; adaptive: mean of fd.effective_timeout_s).
	MeanTimeout time.Duration
	// Detect is how long the survivors took to install the 4-member view
	// after the crash.
	Detect time.Duration
	// AgreeP50/AgreeP95 summarize the end-to-end view-agreement latency
	// of every view change in the cell (member spans assembled from the
	// cell's own trace — see internal/profile): false-suspicion churn
	// does not just add view changes, it makes each one slower when
	// concurrent suspicions force proposal retries.
	AgreeP50, AgreeP95 time.Duration
	// Reproposals counts membership rounds started only because a
	// co-member advertised a different view id (install-propagation
	// divergence) — residual churn no detector tuning removes. With the
	// reconciliation fast path most of these become Reconciles instead.
	Reproposals int
	// Reconciles counts install re-sends by the reconciliation fast
	// path: divergences healed without the membership round a
	// reproposal would have cost.
	Reconciles int
}

// RunE7 measures one (jitter, adaptive) cell: quiet window churn, then
// crash-detection latency.
func RunE7(jitter, window time.Duration, adaptive bool, timing Timing, seed int64) (E7Row, error) {
	row := E7Row{Jitter: jitter, Adaptive: adaptive}
	fabric := simnet.New(simnet.Config{
		Delay: simnet.NewUniformDelay(50*time.Microsecond, jitter, seed+1),
		Seed:  seed,
	})
	defer fabric.Close()
	reg := stable.NewRegistry()

	// Cell-local metrics and trace so deltas and spans are not polluted
	// by other cells; the harness-wide observer (vsbench -metrics) still
	// sees everything.
	cell := obs.NewRegistry()
	cellTrace := obs.NewMemorySink()
	timing.AdaptiveFD = adaptive
	opts := timing.Options("e7", true)
	opts.Observer = obs.Tee(timing.Observer, obs.NewCollector(cell, obs.NewTracer(0, cellTrace)))

	const n = 5
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(fabric, reg, siteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if err := waitConverged(procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("formation: %w", err)
	}
	// Give the adaptive estimators their warmup samples before judging.
	time.Sleep(2 * timing.SuspectAfter)

	base := cell.Snapshot()
	time.Sleep(window)
	quiet := cell.Snapshot()
	row.FalseSuspicions = int(quiet.Counters[obs.MetricFalseSuspicions] - base.Counters[obs.MetricFalseSuspicions])
	row.ExtraViews = int(quiet.Counters[obs.MetricViewInstalls] - base.Counters[obs.MetricViewInstalls])

	// Real failure: the detector must still catch it, and quickly.
	start := time.Now()
	procs[n-1].Crash()
	if err := waitConverged(procs[:n-1], 30*time.Second); err != nil {
		return row, fmt.Errorf("crash detection: %w", err)
	}
	row.Detect = time.Since(start)

	row.MeanTimeout = timing.SuspectAfter
	if h, ok := cell.Snapshot().Histograms[obs.MetricFDEffectiveTimeout]; ok && h.Count > 0 {
		row.MeanTimeout = time.Duration(h.Sum / float64(h.Count) * float64(time.Second))
	}
	// Span-profile the cell's trace before the teardown Leaves add
	// their own (uninteresting) view changes.
	prof := profile.FromEvents(cellTrace.Events())
	row.AgreeP50 = prof.Phases.Total.P50
	row.AgreeP95 = prof.Phases.Total.P95
	row.Reproposals = prof.Reproposals
	row.Reconciles = prof.Reconciles
	for _, p := range procs[:n-1] {
		p.Leave()
	}
	return row, nil
}

// E7Header is the column header line for E7 tables.
const E7Header = "jitter | detector | false susp | extra views | mean timeout | detect | agree p50 | agree p95 | reprop | reconc"

// String renders the row under E7Header.
func (r E7Row) String() string {
	det := "static"
	if r.Adaptive {
		det = "adaptive"
	}
	return fmt.Sprintf("%6v | %8s | %10d | %11d | %12v | %6v | %9v | %9v | %6d | %6d",
		r.Jitter, det, r.FalseSuspicions, r.ExtraViews,
		r.MeanTimeout.Round(100*time.Microsecond), r.Detect.Round(time.Millisecond),
		r.AgreeP50.Round(100*time.Microsecond), r.AgreeP95.Round(100*time.Microsecond),
		r.Reproposals, r.Reconciles)
}
