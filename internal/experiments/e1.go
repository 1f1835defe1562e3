package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/vstest"
)

// E1Row is one row of experiment E1 (Section 5's view-change-count
// argument): absorbing m new members — or merging two m-member
// partitions — costs a single view change under the partitionable model,
// but Θ(m) view changes under Isis's views-grow-by-one rule.
type E1Row struct {
	M int
	// JoinStormPartitionable counts the views the oldest member installs
	// while m simultaneous joiners are absorbed, partitionable model.
	JoinStormPartitionable int
	// JoinStormSingleJoin is the same count under the grow-by-one rule.
	JoinStormSingleJoin int
	// PartitionMergePartitionable counts the views a member of one side
	// installs when two m-member partitions merge (the paper's exact
	// scenario; the paper argues "a single view change is all that is
	// really required").
	PartitionMergePartitionable int
	// Wall-clock to convergence for the two join-storm runs.
	WallPartitionable time.Duration
	WallSingleJoin    time.Duration
}

// RunE1 measures the row for a given m.
func RunE1(m int, timing Timing, seed int64) (E1Row, error) {
	row := E1Row{M: m}

	storm := func(singleJoin bool) (int, time.Duration, error) {
		e := timing.newEnv(fmt.Sprintf("e1 join-storm m=%d single-join=%v", m, singleJoin), seed)
		defer e.close()
		opts := timing.Options("e1", true)
		opts.SingleJoin = singleJoin

		anchor, err := timing.Start(e.fabric, e.reg, "anchor", opts)
		if err != nil {
			return 0, 0, err
		}
		drain(anchor)
		if err := vstest.Await(5*time.Second, "anchor bootstrap", func() bool {
			return anchor.CurrentView().Size() == 1
		}); err != nil {
			return 0, 0, err
		}
		before := anchor.Stats().ViewsInstalled

		procs := []*core.Process{anchor}
		start := time.Now()
		for i := 0; i < m; i++ {
			p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
			if err != nil {
				return 0, 0, err
			}
			drain(p)
			procs = append(procs, p)
		}
		budget := 10*time.Second + time.Duration(m)*timing.ProposeTimeout*4
		if _, err := vstest.Converged(procs, budget); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		views := int(anchor.Stats().ViewsInstalled - before)
		for _, p := range procs {
			p.Leave()
		}
		return views, elapsed, nil
	}

	var err error
	if row.JoinStormPartitionable, row.WallPartitionable, err = storm(false); err != nil {
		return row, fmt.Errorf("join storm partitionable: %w", err)
	}
	if row.JoinStormSingleJoin, row.WallSingleJoin, err = storm(true); err != nil {
		return row, fmt.Errorf("join storm single-join: %w", err)
	}

	// Partition-merge scenario (partitionable model): form 2m members,
	// split them into two halves, let both sides stabilize, heal, and
	// count the views one member installs from the heal to convergence.
	e := timing.newEnv(fmt.Sprintf("e1 partition-merge m=%d", m), seed+1)
	defer e.close()
	opts := timing.Options("e1m", true)
	var procs []*core.Process
	var leftSites, rightSites []string
	for i := 0; i < 2*m; i++ {
		p, err := timing.Start(e.fabric, e.reg, vstest.SiteName(i), opts)
		if err != nil {
			return row, err
		}
		drain(p)
		procs = append(procs, p)
		if i < m {
			leftSites = append(leftSites, vstest.SiteName(i))
		} else {
			rightSites = append(rightSites, vstest.SiteName(i))
		}
	}
	budget := 10*time.Second + time.Duration(2*m)*timing.ProposeTimeout*4
	if _, err := vstest.Converged(procs, budget); err != nil {
		return row, fmt.Errorf("partition-merge formation: %w", err)
	}
	e.fabric.SetPartitions(leftSites, rightSites)
	if _, err := vstest.Converged(procs[:m], budget); err != nil {
		return row, fmt.Errorf("left partition: %w", err)
	}
	if _, err := vstest.Converged(procs[m:], budget); err != nil {
		return row, fmt.Errorf("right partition: %w", err)
	}
	before := procs[0].Stats().ViewsInstalled
	e.fabric.Heal()
	if _, err := vstest.Converged(procs, budget); err != nil {
		return row, fmt.Errorf("merge: %w", err)
	}
	row.PartitionMergePartitionable = int(procs[0].Stats().ViewsInstalled - before)
	for _, p := range procs {
		p.Leave()
	}
	return row, nil
}

// E1Header is the column header line for E1 tables.
const E1Header = "m | storm-views(part) | storm-views(1-join) | merge-views(part) | wall(part) | wall(1-join)"

// String renders the row under E1Header.
func (r E1Row) String() string {
	return fmt.Sprintf("%2d | %18d | %19d | %17d | %10v | %11v",
		r.M, r.JoinStormPartitionable, r.JoinStormSingleJoin,
		r.PartitionMergePartitionable,
		r.WallPartitionable.Round(time.Millisecond),
		r.WallSingleJoin.Round(time.Millisecond))
}
