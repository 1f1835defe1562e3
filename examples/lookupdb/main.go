// Command lookupdb demonstrates the paper's second group-object example
// (Section 3): a fully replicated look-up database whose query is
// performed in parallel by the members, each responsible for a subset of
// the database. For this object R-mode does not exist — look-ups serve
// in any view — and every view change passes through S-mode to redefine
// the division of responsibility.
//
// The run shows:
//
//  1. inserts replicating to every member, and the responsibility
//     assignment partitioning the keyspace exactly once;
//  2. a network partition with *independent* inserts on both sides —
//     progress in concurrent partitions, which the primary-partition
//     model forbids;
//  3. the heal: the classifier reports a *state merging* problem, one
//     representative per subview dumps its cluster's data (enriched
//     views know who diverged; flat views would make everyone dump),
//     and the add-only union reconciles the replicas.
//
// Run with:
//
//	go run ./examples/lookupdb
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps/lookupdb"
	"repro/internal/core"
	"repro/internal/modes"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/vstest"
)

var sites = []string{"u1", "u2", "u3", "u4"}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("lookupdb: %v", err)
	}
}

func run() error {
	fabric := simnet.New(simnet.Config{Seed: 11})
	defer fabric.Close()
	reg := stable.NewRegistry()

	dbs := make([]*lookupdb.DB, 0, len(sites))
	for _, s := range sites {
		db, err := lookupdb.Open(fabric, reg, s, core.Options{Group: "db"}, lookupdb.Config{Enriched: true})
		if err != nil {
			return err
		}
		defer db.Close()
		dbs = append(dbs, db)
	}
	if err := vstest.Await(15*time.Second, "formation in N-mode", allNormal(dbs)); err != nil {
		return err
	}

	fmt.Println("--- inserting 12 records ---")
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("user:%04d", i)
		if err := insert(dbs[i%len(dbs)], key, fmt.Sprintf("record-%d", i)); err != nil {
			return err
		}
	}
	if err := vstest.Await(10*time.Second, "12 keys everywhere", allHold(dbs, 12)); err != nil {
		return err
	}
	fmt.Println("--- parallel query: each member searches only its share ---")
	total := 0
	for _, db := range dbs {
		mine := db.ScanMine()
		total += len(mine)
		fmt.Printf("[%v] responsible for %d keys: %v\n", db.Process().PID(), len(mine), mine)
	}
	fmt.Printf("shares cover %d keys in total (every key searched exactly once)\n", total)

	fmt.Println("--- partitioning {u1,u2} | {u3,u4}; both sides keep serving ---")
	fabric.SetPartitions([]string{"u1", "u2"}, []string{"u3", "u4"})
	if err := vstest.Await(15*time.Second, "two views of 2", func() bool {
		return dbs[0].Process().CurrentView().Size() == 2 && dbs[2].Process().CurrentView().Size() == 2
	}); err != nil {
		return err
	}
	if err := vstest.Await(15*time.Second, "both sides in N-mode", allNormal(dbs)); err != nil {
		return err
	}
	if err := insert(dbs[0], "left:exclusive", "L"); err != nil {
		return err
	}
	if err := insert(dbs[2], "right:exclusive", "R"); err != nil {
		return err
	}
	fmt.Println("left partition inserted left:exclusive; right inserted right:exclusive")
	if _, ok := dbs[0].Lookup("right:exclusive"); ok {
		return fmt.Errorf("left side sees right-side insert during partition")
	}
	fmt.Println("lookups keep working on both sides (R-mode does not exist for this object)")

	fmt.Println("--- healing: state merging via add-only union ---")
	fabric.Heal()
	if err := vstest.Await(20*time.Second, "view of 4", func() bool { return dbs[0].Process().CurrentView().Size() == 4 }); err != nil {
		return err
	}
	if err := vstest.Await(20*time.Second, "healed group in N-mode", allNormal(dbs)); err != nil {
		return err
	}
	if err := vstest.Await(10*time.Second, "14 keys everywhere", allHold(dbs, 14)); err != nil {
		return err
	}
	for _, db := range dbs {
		l, _ := db.Lookup("left:exclusive")
		r, _ := db.Lookup("right:exclusive")
		st := db.Stats()
		fmt.Printf("[%v] keys=%d left=%q right=%q classifications=%v dumps=%d\n",
			db.Process().PID(), db.Len(), l, r, st.Classifications, st.DumpsSent)
	}
	return nil
}

func allNormal(dbs []*lookupdb.DB) func() bool {
	return func() bool {
		for _, db := range dbs {
			if db.Mode() != modes.Normal {
				return false
			}
		}
		return true
	}
}

func allHold(dbs []*lookupdb.DB, keys int) func() bool {
	return func() bool {
		for _, db := range dbs {
			if db.Len() < keys {
				return false
			}
		}
		return true
	}
}

// insert retries an insert refused by a transient view change.
func insert(db *lookupdb.DB, k, v string) error {
	var err error
	if vstest.Await(10*time.Second, "insert "+k, func() bool { err = db.Insert(k, v); return err == nil }) != nil {
		return fmt.Errorf("insert %q: %w", k, err)
	}
	return nil
}
