// Command lockmgr demonstrates the paper's §6.2 example: a group object
// managing a mutually-exclusive write lock that can be used only in a
// view containing a majority of processes. The shared global state — the
// identities of the lock manager and of the current holder — is exactly
// the kind of state the shared-state problems threaten.
//
// The run shows:
//
//  1. grants and releases sequenced by the manager (the view's smallest
//     member), with every member tracking the holder;
//  2. a partition isolating the holder in a minority: the holder
//     observes R-mode (its lock is no longer protected) while the
//     majority settles, frees the stale lock, and grants it again;
//  3. the heal: the returning members adopt the majority's lock state
//     and reconcile.
//
// Run with:
//
//	go run ./examples/lockmgr
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps/lockmgr"
	"repro/internal/core"
	"repro/internal/modes"
	"repro/internal/quorum"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/vstest"
)

var sites = []string{"m1", "m2", "m3", "m4", "m5"}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("lockmgr: %v", err)
	}
}

func run() error {
	fabric := simnet.New(simnet.Config{Seed: 13})
	defer fabric.Close()
	reg := stable.NewRegistry()
	rw := quorum.MajorityRW(quorum.Uniform(sites...))

	ms := make([]*lockmgr.Manager, 0, len(sites))
	for _, s := range sites {
		m, err := lockmgr.Open(fabric, reg, s, core.Options{Group: "lock"}, lockmgr.Config{RW: rw, Enriched: true})
		if err != nil {
			return err
		}
		defer m.Close()
		ms = append(ms, m)
	}
	if err := vstest.Await(20*time.Second, "formation in N-mode", allNormal(ms)); err != nil {
		return err
	}
	fmt.Println("--- five members in N-mode; m5 acquires the lock ---")
	if err := acquire(ms[4]); err != nil {
		return err
	}
	showHolders(ms)
	if err := ms[2].TryAcquire(); err == lockmgr.ErrBusy {
		fmt.Println("m3's acquire correctly rejected:", err)
	}

	fmt.Println("--- partitioning {m1,m2,m3} | {m4,m5}: the holder is isolated ---")
	fabric.SetPartitions([]string{"m1", "m2", "m3"}, []string{"m4", "m5"})
	if err := vstest.Await(20*time.Second, "m5 in R-mode", func() bool { return ms[4].Mode() == modes.Reduced }); err != nil {
		return err
	}
	fmt.Printf("isolated holder m5: mode=%v HeldByMe=%v (the lock is no longer protected)\n",
		ms[4].Mode(), ms[4].HeldByMe())

	if err := vstest.Await(20*time.Second, "majority in N-mode", allNormal(ms[:3])); err != nil {
		return err
	}
	fmt.Println("--- the majority settled; it freed the stale lock and can grant again ---")
	if err := acquire(ms[0]); err != nil {
		return err
	}
	showHolders(ms[:3])

	fmt.Println("--- healing: the returning members adopt the majority's state ---")
	fabric.Heal()
	if err := vstest.Await(25*time.Second, "healed group in N-mode", allNormal(ms)); err != nil {
		return err
	}
	showHolders(ms)
	for _, m := range ms {
		st := m.Stats()
		fmt.Printf("[%v] grants=%d releases=%d stale-frees=%d classifications=%v\n",
			m.Process().PID(), st.Grants, st.Releases, st.StaleFrees, st.Classifications)
	}
	var err error
	if vstest.Await(10*time.Second, "release", func() bool {
		err = ms[0].Release()
		return err == nil || err == lockmgr.ErrNotHolder
	}) != nil {
		return fmt.Errorf("release: %w", err)
	}
	if err == lockmgr.ErrNotHolder {
		// Valid outcome: a transient view change excluded the holder and
		// the group freed its lock — exactly the semantics the
		// isolated-holder scenario demonstrates.
		fmt.Println("lock was already freed by a view change:", err)
	}
	fmt.Println("--- released; done ---")
	return nil
}

func allNormal(ms []*lockmgr.Manager) func() bool {
	return func() bool {
		for _, m := range ms {
			if m.Mode() != modes.Normal {
				return false
			}
		}
		return true
	}
}

// acquire retries an acquire refused by a transient view change.
func acquire(m *lockmgr.Manager) error {
	var err error
	if vstest.Await(10*time.Second, "acquire", func() bool { err = m.TryAcquire(); return err == nil }) != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	return nil
}

func showHolders(ms []*lockmgr.Manager) {
	for _, m := range ms {
		fmt.Printf("[%v] mode=%v holder=%v heldByMe=%v\n",
			m.Process().PID(), m.Mode(), m.Holder(), m.HeldByMe())
	}
}
