package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/repfile"
	"repro/internal/modes"
	"repro/internal/quorum"
)

// E6Row is one row of the churn-availability ablation: the paper's
// system model makes false suspicions indistinguishable from failures
// (§2), so every one costs a view change and a reconciliation round.
// This experiment injects false suspicions at a given rate into a
// five-replica quorum file and measures how much N-mode time (write
// availability) survives.
type E6Row struct {
	// MeanBetween is the mean time between injected false suspicions.
	MeanBetween time.Duration
	Enriched    bool
	// Injections actually performed during the window.
	Injections int
	// AvailabilityPct is the mean fraction of the window the replicas
	// spent in N-mode.
	AvailabilityPct float64
	// Reconciles across all replicas during the window.
	Reconciles int
}

// RunE6 measures one (rate, enriched) cell over the given window.
func RunE6(meanBetween, window time.Duration, enriched bool, timing Timing, seed int64) (E6Row, error) {
	row := E6Row{MeanBetween: meanBetween, Enriched: enriched}
	e := timing.newEnv(seed)
	defer e.close()
	const n = 5
	sites := make([]string, n)
	for i := range sites {
		sites[i] = siteName(i)
	}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))
	cfg := repfile.Config{RW: rw, Enriched: enriched}

	files := make([]*repfile.File, 0, n)
	for _, s := range sites {
		f, err := repfile.Open(e.fabric, e.reg, s, timing.Options("e6", enriched), cfg)
		if err != nil {
			return row, err
		}
		defer f.Close()
		files = append(files, f)
	}
	if err := eventually(20*time.Second, "formation", func() bool {
		for _, f := range files {
			if f.Mode() != modes.Normal {
				return false
			}
		}
		return true
	}); err != nil {
		return row, err
	}

	// Baseline residency and reconcile counters.
	baseRes := make([]map[modes.Mode]time.Duration, n)
	baseRec := make([]int, n)
	for i, f := range files {
		baseRes[i] = f.ModeStats().Residency
		baseRec[i] = f.Stats().Reconciles
	}

	r := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(window)
	hold := 3 * timing.SuspectAfter
	for time.Now().Before(deadline) {
		// Exponential-ish spacing around the mean.
		gap := time.Duration(float64(meanBetween) * (0.5 + r.Float64()))
		time.Sleep(gap)
		if !time.Now().Before(deadline) {
			break
		}
		victim := files[r.Intn(n)]
		for _, f := range files {
			if f != victim {
				_ = f.Process().ForceSuspect(victim.Process().PID())
			}
		}
		row.Injections++
		time.Sleep(hold)
		for _, f := range files {
			if f != victim {
				_ = f.Process().Unforce(victim.Process().PID())
			}
		}
	}
	// Let the last churn settle before sampling.
	_ = eventually(20*time.Second, "stabilize", func() bool {
		for _, f := range files {
			if f.Mode() != modes.Normal {
				return false
			}
		}
		return true
	})

	var availability float64
	for i, f := range files {
		res := f.ModeStats().Residency
		dN := res[modes.Normal] - baseRes[i][modes.Normal]
		dR := res[modes.Reduced] - baseRes[i][modes.Reduced]
		dS := res[modes.Settling] - baseRes[i][modes.Settling]
		total := dN + dR + dS
		if total > 0 {
			availability += 100 * float64(dN) / float64(total)
		}
		row.Reconciles += f.Stats().Reconciles - baseRec[i]
	}
	row.AvailabilityPct = availability / float64(n)
	return row, nil
}

// E6Header is the column header line for E6 tables.
const E6Header = "mean gap | enriched | injections | availability %N | reconciles"

// String renders the row under E6Header.
func (r E6Row) String() string {
	return fmt.Sprintf("%8v | %8v | %10d | %15.1f | %10d",
		r.MeanBetween, r.Enriched, r.Injections, r.AvailabilityPct, r.Reconciles)
}
