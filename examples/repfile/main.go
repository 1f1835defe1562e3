// Command repfile demonstrates the paper's replicated-file group object
// (Section 3, example 1) across the full failure spectrum:
//
//  1. a five-replica file forms and serves quorum writes (N-mode);
//  2. a partition splits off a two-replica minority, which drops to
//     R-mode (reads only, possibly stale) while the majority keeps
//     writing — the Failure transition of Figure 1;
//  3. the partition heals: the stale minority Repairs into S-mode, the
//     shared-state classifier reports a *state transfer* problem, the
//     transfer tool pulls the missing state, the subviews merge (§6.2),
//     and everyone Reconciles back to N-mode;
//  4. a total failure and recovery exercises the *state creation*
//     problem from permanent storage.
//
// Run with:
//
//	go run ./examples/repfile
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps/repfile"
	"repro/internal/core"
	"repro/internal/modes"
	"repro/internal/quorum"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/vstest"
)

var sites = []string{"n1", "n2", "n3", "n4", "n5"}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("repfile: %v", err)
	}
}

func run() error {
	fabric := simnet.New(simnet.Config{Seed: 7})
	defer fabric.Close()
	reg := stable.NewRegistry()
	rw := quorum.MajorityRW(quorum.Uniform(sites...))
	cfg := repfile.Config{RW: rw, Enriched: true}

	open := func(site string) (*repfile.File, error) {
		return repfile.Open(fabric, reg, site, core.Options{Group: "file"}, cfg)
	}

	files := make([]*repfile.File, 0, len(sites))
	for _, s := range sites {
		f, err := open(s)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	if err := waitModes(files, modes.Normal, 15*time.Second); err != nil {
		return fmt.Errorf("formation: %w", err)
	}
	fmt.Println("--- five replicas in N-mode; writing v1 ---")
	if err := write(files[0], "contents v1"); err != nil {
		return err
	}
	show(files)

	fmt.Println("--- partitioning {n1,n2,n3} | {n4,n5} ---")
	fabric.SetPartitions([]string{"n1", "n2", "n3"}, []string{"n4", "n5"})
	if err := waitModes(files[3:], modes.Reduced, 15*time.Second); err != nil {
		return fmt.Errorf("minority to R: %w", err)
	}
	fmt.Println("minority replicas are in R-mode: reads only")
	if err := files[4].Write([]byte("rejected")); err == repfile.ErrNotWritable {
		fmt.Println("minority write correctly rejected:", err)
	}
	if err := waitModes(files[:3], modes.Normal, 15*time.Second); err != nil {
		return fmt.Errorf("majority to N: %w", err)
	}
	fmt.Println("--- majority writes v2 during the partition ---")
	if err := write(files[0], "contents v2"); err != nil {
		return err
	}
	show(files)

	fmt.Println("--- healing; minority repairs and pulls the state ---")
	fabric.Heal()
	if err := waitModes(files, modes.Normal, 20*time.Second); err != nil {
		return fmt.Errorf("reconciliation: %w", err)
	}
	show(files)
	for _, f := range files {
		st := f.Stats()
		fmt.Printf("[%v] classifications=%v transfers=%d reconciles=%d\n",
			f.Process().PID(), st.Classifications, st.TransfersPulled, st.Reconciles)
	}

	fmt.Println("--- total failure: all five replicas crash ---")
	for _, f := range files {
		f.Process().Crash()
	}
	time.Sleep(100 * time.Millisecond)

	fmt.Println("--- all five sites recover; state creation from permanent storage ---")
	recovered := make([]*repfile.File, 0, len(sites))
	for _, s := range sites {
		f, err := open(s)
		if err != nil {
			return err
		}
		recovered = append(recovered, f)
	}
	if err := waitModes(recovered, modes.Normal, 20*time.Second); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	show(recovered)
	for _, f := range recovered {
		fmt.Printf("[%v] classifications=%v\n", f.Process().PID(), f.Stats().Classifications)
		f.Close()
	}
	return nil
}

// waitModes waits until every replica is in mode want, naming the
// stragglers on timeout.
func waitModes(files []*repfile.File, want modes.Mode, timeout time.Duration) error {
	err := vstest.Await(timeout, fmt.Sprintf("mode %v", want), func() bool {
		for _, f := range files {
			if f.Mode() != want {
				return false
			}
		}
		return true
	})
	if err != nil {
		for _, f := range files {
			fmt.Printf("  %v stuck in %v\n", f.Process().PID(), f.Mode())
		}
	}
	return err
}

// write retries a write refused by a transient view change.
func write(f *repfile.File, data string) error {
	var err error
	if vstest.Await(10*time.Second, "write", func() bool { err = f.Write([]byte(data)); return err == nil }) != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

func show(files []*repfile.File) {
	for _, f := range files {
		v, content, mode := f.Read()
		fmt.Printf("[%v] mode=%v version=%d content=%q\n", f.Process().PID(), mode, v, content)
	}
}
