package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/vstest"
)

// E8Row is one cell of the view-agreement-latency-under-churn sweep.
// Section 4's membership protocol resolves each change with a
// coordinator round (propose → ack/block → flush → install); under
// churn, changes overlap — a new suspicion lands while a proposal is
// in flight — forcing retries and stretching the agree phase while
// the group sits blocked (the flush discipline stops multicasting
// between ack and install). This experiment injects false suspicions
// at a swept rate and attributes where the view-change time goes,
// phase by phase, using the span profiler over the cell's own trace.
type E8Row struct {
	// MeanBetween is the mean time between injected false suspicions.
	MeanBetween time.Duration
	// Injections actually performed during the window.
	Injections int
	// Spans is the number of member view-change spans profiled
	// (closed, non-bootstrap); Unclosed counts changes still
	// unresolved when the window ended.
	Spans    int
	Unclosed int
	// Worst-tail phase latencies across member spans.
	DetectP95, AgreeP95, FlushP95 time.Duration
	// End-to-end view-agreement latency distribution.
	TotalP50, TotalP95, TotalMax time.Duration
	// Reproposals counts peerView-divergence rounds — churn the
	// injected suspicions cause only indirectly, via install
	// propagation races. With the reconciliation fast path most such
	// divergences are healed by an install re-send (Reconciles) before
	// any round starts.
	Reproposals int
	// Reconciles counts install re-sends by the reconciliation fast
	// path during the window.
	Reconciles int
}

// RunE8 measures one churn-rate cell over the given window.
func RunE8(meanBetween, window time.Duration, timing Timing, seed int64) (E8Row, error) {
	row := E8Row{MeanBetween: meanBetween}
	e := timing.newEnv(fmt.Sprintf("e8 gap=%v", meanBetween), seed)
	defer e.close()

	// Cell-local trace: the spans profiled are exactly this cell's.
	cellTrace := obs.NewMemorySink()
	opts := timing.Options("e8", true)
	opts.Observer = obs.Tee(timing.Observer, obs.NewCollector(nil, obs.NewTracer(0, cellTrace)))

	const n = 5
	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if _, err := vstest.Converged(procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("formation: %w", err)
	}

	r := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(window)
	hold := 3 * timing.SuspectAfter
	for time.Now().Before(deadline) {
		gap := time.Duration(float64(meanBetween) * (0.5 + r.Float64()))
		time.Sleep(gap)
		if !time.Now().Before(deadline) {
			break
		}
		victim := procs[r.Intn(n)]
		for _, p := range procs {
			if p != victim {
				_ = p.ForceSuspect(victim.PID())
			}
		}
		row.Injections++
		time.Sleep(hold)
		for _, p := range procs {
			if p != victim {
				_ = p.Unforce(victim.PID())
			}
		}
	}
	// Let the last change resolve so its spans close.
	if _, err := vstest.Converged(procs, 30*time.Second); err != nil {
		return row, fmt.Errorf("stabilization: %w", err)
	}
	time.Sleep(2 * timing.SuspectAfter)

	prof := profile.FromEvents(cellTrace.Events())
	row.Spans = prof.Phases.Total.Count
	row.Unclosed = prof.Unclosed
	row.DetectP95 = prof.Phases.Detect.P95
	row.AgreeP95 = prof.Phases.Agree.P95
	row.FlushP95 = prof.Phases.Flush.P95
	row.TotalP50 = prof.Phases.Total.P50
	row.TotalP95 = prof.Phases.Total.P95
	row.TotalMax = prof.Phases.Total.Max
	row.Reproposals = prof.Reproposals
	row.Reconciles = prof.Reconciles
	for _, p := range procs {
		p.Leave()
	}
	return row, nil
}

// E8Header is the column header line for E8 tables.
const E8Header = "mean gap | inject | spans | detect p95 | agree p95 | flush p95 | total p50 | total p95 | total max | reprop | reconc | unclosed"

// String renders the row under E8Header.
func (r E8Row) String() string {
	ms := func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
	return fmt.Sprintf("%8v | %6d | %5d | %10v | %9v | %9v | %9v | %9v | %9v | %6d | %6d | %8d",
		r.MeanBetween, r.Injections, r.Spans,
		ms(r.DetectP95), ms(r.AgreeP95), ms(r.FlushP95),
		ms(r.TotalP50), ms(r.TotalP95), ms(r.TotalMax),
		r.Reproposals, r.Reconciles, r.Unclosed)
}
