package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/repfile"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/quorum"
)

// E9Row is one cell of the mode-residency-under-churn sweep. The
// Figure-1 mode machine's R (reduced) mode is where a quorum object
// lands when its view loses the write quorum: reads still work,
// writes do not. How much wall time replicas actually spend reduced
// is the user-visible cost of partitions — this experiment cuts a
// two-member minority off a five-replica replicated file at a swept
// cadence and measures time-in-R from the mode.dwell_s.* histograms the
// gobject hosts feed through the processes' observer.
type E9Row struct {
	// MeanBetween is the pause between healing one partition and
	// cutting the next.
	MeanBetween time.Duration
	Enriched    bool
	// Partitions is the number of cut/heal cycles performed.
	Partitions int
	// REntries counts completed R-mode residencies across all replicas
	// (each minority replica that entered and left R once).
	REntries int
	// TimeInR is the total dwell across those residencies, MeanRDwell
	// the per-residency mean.
	TimeInR    time.Duration
	MeanRDwell time.Duration
	// ReducedPct is the mean percentage of the churn window a replica
	// spent in R (group-wide: total R dwell / (replicas × window)).
	ReducedPct float64
}

// RunE9 measures one (cadence, enriched) cell over the given window.
func RunE9(meanBetween, window time.Duration, enriched bool, timing Timing, seed int64) (E9Row, error) {
	row := E9Row{MeanBetween: meanBetween, Enriched: enriched}
	e := timing.newEnv(seed)
	defer e.close()

	const n = 5
	sites := make([]string, n)
	for i := range sites {
		sites[i] = siteName(i)
	}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))

	// All replicas share one cell collector next to the harness's
	// observer; every mode transition lands in the same mode.dwell_s.*
	// histograms.
	cell := obs.NewRegistry()
	opts := timing.Options("e9", enriched)
	opts.Observer = obs.Tee(timing.Observer, obs.NewCollector(cell, nil))
	cfg := repfile.Config{RW: rw, Enriched: enriched}

	hosts := make([]*repfile.File, 0, n)
	for _, s := range sites {
		h, err := repfile.Open(e.fabric, e.reg, s, opts, cfg)
		if err != nil {
			return row, err
		}
		defer h.Close()
		hosts = append(hosts, h)
	}
	allNormal := func() bool {
		for _, h := range hosts {
			if h.Mode() != modes.Normal {
				return false
			}
		}
		return true
	}
	if err := eventually(20*time.Second, "formation", allNormal); err != nil {
		return row, err
	}

	dwellR := obs.MetricModeDwellPrefix + modes.Reduced.String()
	base := cell.Snapshot().Histograms[dwellR]

	// Churn loop: cut a fixed two-member minority (loses the write
	// quorum → R), hold long enough for both sides to install their
	// partition views and dwell, heal, wait for the group to serve
	// again, pause for the swept cadence.
	hold := 4 * timing.SuspectAfter
	start := time.Now()
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		e.fabric.SetPartitions(sites[:2], sites[2:])
		row.Partitions++
		time.Sleep(hold)
		e.fabric.Heal()
		if err := eventually(20*time.Second, "re-formation", allNormal); err != nil {
			return row, err
		}
		time.Sleep(meanBetween)
	}
	elapsed := time.Since(start)

	// Dwell is recorded when a mode is LEFT; after re-formation every
	// R residency has closed, so the histogram delta is complete.
	cur := cell.Snapshot().Histograms[dwellR]
	row.REntries = int(cur.Count - base.Count)
	row.TimeInR = time.Duration((cur.Sum - base.Sum) * float64(time.Second))
	if row.REntries > 0 {
		row.MeanRDwell = row.TimeInR / time.Duration(row.REntries)
	}
	row.ReducedPct = 100 * float64(row.TimeInR) / (float64(n) * float64(elapsed))
	return row, nil
}

// E9Header is the column header line for E9 tables.
const E9Header = "cadence | enriched | partitions | R entries | time in R | mean R dwell | %replica-time in R"

// String renders the row under E9Header.
func (r E9Row) String() string {
	return fmt.Sprintf("%7v | %8v | %10d | %9d | %9v | %12v | %18.1f",
		r.MeanBetween, r.Enriched, r.Partitions, r.REntries,
		r.TimeInR.Round(time.Millisecond), r.MeanRDwell.Round(time.Millisecond),
		r.ReducedPct)
}
