// Command partition is a tour of *enriched view synchrony itself*
// (Section 6): it reproduces the scenarios of Figures 2 and 3 on a live
// group and contrasts what a process can deduce locally under enriched
// views versus flat views after the same failure schedule — the paper's
// central argument.
//
// The run shows:
//
//  1. Figure 3: within a stable view, SV-SetMerge then SubviewMerge
//     produce totally ordered e-view changes at every member;
//  2. Figure 2: across a partition and a merge, co-subview processes
//     stay co-subview (Property 6.3) and each former partition arrives
//     as a distinct cluster;
//  3. classification: the same merged view is classified locally with
//     zero messages using the enriched structure, and the sets R_v, N_v
//     and the clusters are printed; a flat-view process would need a
//     full round of announcements to learn the same thing.
//
// Run with:
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"log"
	"time"

	viewsync "repro"
	"repro/internal/vstest"
)

var sites = []string{"p1", "p2", "p3", "p4", "p5"}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("partition: %v", err)
	}
}

func run() error {
	fabric := viewsync.NewFabric(viewsync.FabricConfig{Seed: 5})
	defer fabric.Close()
	reg := viewsync.NewRegistry()

	procs := make([]*viewsync.Process, 0, len(sites))
	for _, s := range sites {
		p, err := viewsync.Start(fabric, reg, s, viewsync.Options{Group: "demo", Enriched: true})
		if err != nil {
			return err
		}
		procs = append(procs, p)
		go drain(p)
	}
	v, err := vstest.Converged(procs, 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("formed view %v with %d singleton subviews (every joiner arrives alone)\n",
		v.ID, v.Structure.NumSubviews())

	// --- Figure 3: application-controlled merges within one view ---
	fmt.Println("--- Figure 3: SV-SetMerge of all five sv-sets, then SubviewMerge ---")
	if err := mergeAll(procs, "one sv-set", func(s viewsync.Structure) int { return s.NumSVSets() },
		func(s viewsync.Structure) error { return procs[0].SVSetMerge(s.SVSets()...) }); err != nil {
		return err
	}
	v = procs[0].CurrentView()
	fmt.Printf("after SV-SetMerge: %d sv-sets, %d subviews\n", v.Structure.NumSVSets(), v.Structure.NumSubviews())
	if err := mergeAll(procs, "one subview", func(s viewsync.Structure) int { return s.NumSubviews() },
		func(s viewsync.Structure) error { return procs[0].SubviewMerge(s.Subviews()...) }); err != nil {
		return err
	}
	v = procs[0].CurrentView()
	fmt.Printf("after SubviewMerge: %v\n", v.Structure)
	fmt.Println("every member applied the two e-view changes in the same order (P6.1)")

	// --- Figure 2: partition, then merge ---
	fmt.Println("--- partitioning {p1,p2,p3} | {p4,p5} ---")
	fabric.SetPartitions([]string{"p1", "p2", "p3"}, []string{"p4", "p5"})
	left, err := vstest.Converged(procs[:3], 10*time.Second)
	if err != nil {
		return err
	}
	right, err := vstest.Converged(procs[3:], 10*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("left view  %v: %v\n", left.ID, left.Structure)
	fmt.Printf("right view %v: %v\n", right.ID, right.Structure)
	fmt.Println("failures only shrink structure: each side is the restriction of the merged subview")

	fmt.Println("--- healing ---")
	fabric.Heal()
	merged, err := vstest.Converged(procs, 15*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("merged view %v: %v\n", merged.ID, merged.Structure)
	fmt.Println("Property 6.3: {p1,p2,p3} still share a subview; {p4,p5} share another")

	// --- local classification (§6.2) ---
	fmt.Println("--- classifying the shared-state problem locally, zero messages ---")
	rw := viewsync.MajorityRW(viewsync.UniformVoting(sites...))
	class := viewsync.ClassifyEnriched(merged, func(cluster viewsync.PIDSet) bool {
		return rw.CanWrite(cluster)
	})
	fmt.Printf("kind      = %v\n", class.Kind)
	fmt.Printf("N_v       = %v (the up-to-date cluster)\n", class.NSet)
	fmt.Printf("R_v       = %v (processes needing a state transfer)\n", class.RSet)
	fmt.Printf("clusters  = %d\n", len(class.Clusters))
	fmt.Println("a flat-view process would need announcements from all 5 members (n² messages)")
	fmt.Println("to distinguish this transfer problem from creation or merging — see §4.")

	for _, p := range procs {
		p.Leave()
	}
	return nil
}

func drain(p *viewsync.Process) {
	for range p.Events() {
	}
}

// mergeAll issues merge over procs[0]'s whole current structure,
// retrying through transient view changes with freshly resolved
// identifiers, then waits until count reads 1 at every member.
func mergeAll(procs []*viewsync.Process, what string, count func(viewsync.Structure) int, merge func(viewsync.Structure) error) error {
	var err error
	if vstest.Await(10*time.Second, "merge accepted", func() bool {
		s := procs[0].CurrentView().Structure
		if count(s) < 2 {
			return true // already merged
		}
		err = merge(s)
		return err == nil
	}) != nil {
		return fmt.Errorf("merge: %w", err)
	}
	return vstest.Await(10*time.Second, what, func() bool {
		for _, p := range procs {
			if count(p.CurrentView().Structure) != 1 {
				return false
			}
		}
		return true
	})
}
