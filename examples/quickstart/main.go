// Command quickstart is the smallest end-to-end tour of the library: it
// boots a three-member group over the simulated fabric, multicasts a few
// replicated-counter increments with view-synchronous guarantees, then
// partitions and heals the network and shows how failures surface as
// view changes carrying subview structure (the paper's Figure 2). The
// group runs instrumented — a metrics summary (view changes, latencies,
// per-kind packet counts) is printed at the end.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	viewsync "repro"
	"repro/internal/vstest"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("quickstart: %v", err)
	}
}

func run() error {
	fabric := viewsync.NewFabric(viewsync.FabricConfig{Seed: 1})
	defer fabric.Close()
	reg := viewsync.NewRegistry()

	// Instrument the group: one shared metrics registry, one collector
	// attached to every member via Options.Observer.
	metrics := viewsync.NewMetrics()
	opts := viewsync.Options{
		Group:    "counter",
		Enriched: true,
		Observer: viewsync.NewCollector(metrics, nil),
	}

	// A tiny replicated counter: every member applies every delivered
	// increment; view synchrony's Agreement property keeps the replicas
	// identical at every view boundary.
	type member struct {
		proc    *viewsync.Process
		mu      sync.Mutex
		counter int
		views   int
	}
	sites := []string{"alpha", "beta", "gamma"}
	members := make([]*member, 0, len(sites))
	procs := make([]*viewsync.Process, 0, len(sites))
	var wg sync.WaitGroup
	for _, site := range sites {
		p, err := viewsync.Start(fabric, reg, site, opts)
		if err != nil {
			return fmt.Errorf("start %s: %w", site, err)
		}
		m := &member{proc: p}
		members = append(members, m)
		procs = append(procs, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range p.Events() {
				switch e := ev.(type) {
				case viewsync.ViewEvent:
					m.mu.Lock()
					m.views++
					m.mu.Unlock()
					fmt.Printf("[%v] view %v installed: members=%v subviews=%d\n",
						p.PID(), e.EView.ID, e.EView.Members, e.EView.Structure.NumSubviews())
				case viewsync.MsgEvent:
					m.mu.Lock()
					m.counter++
					m.mu.Unlock()
				case viewsync.EChangeEvent:
					fmt.Printf("[%v] e-view change #%d (%v)\n", p.PID(), e.Seq, e.Kind)
				}
			}
		}()
	}

	// Wait for the group to converge on one three-member view.
	if _, err := vstest.Converged(procs, 5*time.Second); err != nil {
		return err
	}
	fmt.Println("--- group formed; multicasting 10 increments ---")

	for i := 0; i < 10; i++ {
		if err := members[i%3].proc.Multicast([]byte("incr")); err != nil {
			return fmt.Errorf("multicast: %w", err)
		}
	}
	if err := vstest.Await(5*time.Second, "replication", func() bool {
		for _, m := range members {
			m.mu.Lock()
			n := m.counter
			m.mu.Unlock()
			if n != 10 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	fmt.Println("--- all replicas reached counter=10 ---")

	// Partition gamma away: the survivors install a smaller view, gamma
	// a singleton one — concurrent views, the partitionable model.
	fmt.Println("--- partitioning {alpha,beta} | {gamma} ---")
	fabric.SetPartitions([]string{"alpha", "beta"}, []string{"gamma"})
	if err := vstest.Await(5*time.Second, "partition", func() bool {
		return members[0].proc.CurrentView().Size() == 2 &&
			members[2].proc.CurrentView().Size() == 1
	}); err != nil {
		return err
	}

	fmt.Println("--- healing ---")
	fabric.Heal()
	merged, err := vstest.Converged(procs, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("--- merged view has %d subviews (the paper's clusters): %v ---\n",
		merged.Structure.NumSubviews(), merged.Structure)

	for _, m := range members {
		m.proc.Leave()
	}
	wg.Wait()
	for _, m := range members {
		m.mu.Lock()
		fmt.Printf("[%v] final counter=%d, views seen=%d\n", m.proc.PID(), m.counter, m.views)
		m.mu.Unlock()
	}

	// What the run cost, from the instrumentation.
	snap := metrics.Snapshot()
	fmt.Printf("--- metrics: %d view installs, %d proposals, %d suspicions ---\n",
		snap.Counters["view.installs"], snap.Counters["view.proposals"],
		snap.Counters["fd.suspicions"])
	if h, ok := snap.Histograms["view.change_latency_s"]; ok && h.Count > 0 {
		fmt.Printf("--- view-change latency: %d samples, mean %.1fms ---\n",
			h.Count, h.Sum/float64(h.Count)*1000)
	}
	for _, kind := range []string{"hb", "data", "propose", "ack", "install"} {
		fmt.Printf("    pkts sent %-8s %6d  (%d bytes)\n",
			kind, snap.Counters["pkts.sent."+kind], snap.Counters["bytes.sent."+kind])
	}
	return nil
}
