package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/quorum"
	"repro/internal/sstate"
	"repro/internal/vstest"
)

// E2Row is one row of experiment E2: the cost of classifying the shared
// state problem after a repair, flat views (announcement protocol, §4:
// "only through complex and costly protocols") versus enriched views
// (§6.2 local reasoning, zero messages).
type E2Row struct {
	N int
	// FlatMsgs is the number of point-to-point messages the flat
	// announcement round costs (n multicasts of n-1 packets each).
	FlatMsgs int
	// FlatLatency is the wall time from view installation until the
	// observing member's round completed.
	FlatLatency time.Duration
	// EnrichedMsgs is always zero (local reasoning).
	EnrichedMsgs int
	// EnrichedLatency is the pure computation time of the local
	// classification on the delivered enriched view.
	EnrichedLatency time.Duration
	// Agreement reports whether both classifiers returned the same kind.
	Agreement bool
	// Kind is the classified problem (a state transfer in this
	// scenario).
	Kind sstate.Kind
}

// RunE2 builds an n-member group, partitions one member away, heals, and
// classifies the resulting shared-state problem both ways at one of the
// up-to-date members.
func RunE2(n int, timing Timing, seed int64) (E2Row, error) {
	row := E2Row{N: n}
	if n < 3 {
		return row, fmt.Errorf("e2: need n >= 3, got %d", n)
	}
	e := timing.newEnv(fmt.Sprintf("e2 n=%d", n), seed)
	defer e.close()
	opts := timing.Options("e2", true)

	sites := make([]string, n)
	rwSites := make([]string, n)
	for i := range sites {
		sites[i] = vstest.SiteName(i)
		rwSites[i] = sites[i]
	}
	rw := quorum.MajorityRW(quorum.Uniform(rwSites...))

	// The observer consumes its own event stream; the peers just run.
	type viewRec struct {
		view core.EView
		at   time.Time
	}
	var (
		mu      sync.Mutex
		views   []viewRec
		infos   []core.MsgEvent
		procs   []*core.Process
		mergedC = make(chan struct{}, 16)
	)
	observer, err := timing.Start(e.fabric, e.reg, sites[0], opts)
	if err != nil {
		return row, err
	}
	go func() {
		for ev := range observer.Events() {
			switch ee := ev.(type) {
			case core.ViewEvent:
				mu.Lock()
				views = append(views, viewRec{view: ee.EView, at: time.Now()})
				mu.Unlock()
				mergedC <- struct{}{}
			case core.MsgEvent:
				if sstate.IsInfo(ee.Payload) {
					mu.Lock()
					infos = append(infos, ee)
					mu.Unlock()
				}
			}
		}
	}()
	procs = append(procs, observer)
	// Peers: every peer answers classification rounds by announcing its
	// predecessor info at each view change (the flat protocol).
	for i := 1; i < n; i++ {
		p, err := timing.Start(e.fabric, e.reg, sites[i], opts)
		if err != nil {
			return row, err
		}
		procs = append(procs, p)
		go announceLoop(p, rw)
	}
	if _, err := vstest.Converged(procs, 15*time.Second); err != nil {
		return row, fmt.Errorf("formation: %w", err)
	}

	// Merge all subviews so the pre-partition group is one cluster.
	if err := mergeAll(observer, procs, 10*time.Second); err != nil {
		return row, err
	}

	// Partition the last member away and let both sides settle.
	victim := sites[n-1]
	rest := sites[:n-1]
	e.fabric.SetPartitions(rest, []string{victim})
	if _, err := vstest.Converged(procs[:n-1], 15*time.Second); err != nil {
		return row, fmt.Errorf("majority side: %w", err)
	}
	if _, err := vstest.Converged(procs[n-1:], 15*time.Second); err != nil {
		return row, fmt.Errorf("minority side: %w", err)
	}
	// Keep the majority one merged cluster even if an asymmetric
	// partition detection fragmented it transiently.
	if err := mergeAll(observer, procs[:n-1], 10*time.Second); err != nil {
		return row, err
	}

	// Heal; the merged view carries the transfer problem.
	e.fabric.Heal()
	if _, err := vstest.Converged(procs, 15*time.Second); err != nil {
		return row, fmt.Errorf("heal: %w", err)
	}
	mu.Lock()
	merged := views[len(views)-1]
	mu.Unlock()

	// Enriched classification: local, zero messages.
	wasN := func(cluster ids.PIDSet) bool { return rw.CanWrite(cluster) }
	startLocal := time.Now()
	enriched := sstate.ClassifyEnriched(merged.view, wasN)
	row.EnrichedLatency = time.Since(startLocal)
	row.EnrichedMsgs = 0
	row.Kind = enriched.Kind

	// Flat classification: the observer announces too (with its true
	// predecessor view, like the peers), then waits for the full round.
	proto := sstate.NewProtocol(merged.view)
	mu.Lock()
	var observerPred ids.ViewID
	if len(views) >= 2 {
		observerPred = views[len(views)-2].view.ID
	}
	mu.Unlock()
	payload, err := sstate.Announcement(observer.PID(), observerPred, modes.Normal)
	if err != nil {
		return row, err
	}
	if err := observer.Multicast(payload); err != nil {
		return row, fmt.Errorf("announce: %w", err)
	}
	var flat sstate.Classification
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		pending := infos
		infos = nil
		mu.Unlock()
		done := false
		for _, m := range pending {
			d, err := proto.Offer(m)
			if err != nil {
				return row, err
			}
			done = d
		}
		if done {
			flat, err = proto.Classify()
			if err != nil {
				return row, err
			}
			break
		}
		if time.Now().After(deadline) {
			return row, fmt.Errorf("flat round incomplete, missing %v", proto.Missing())
		}
		time.Sleep(time.Millisecond)
	}
	row.FlatLatency = time.Since(merged.at)
	row.FlatMsgs = n * (n - 1)
	row.Agreement = sameKind(flat, enriched)
	for _, p := range procs {
		p.Leave()
	}
	return row, nil
}

// sameKind compares classifier verdicts. The flat protocol reports the
// announced mode of the *current incarnations*; the enriched one reads
// structure. Both must name the same problem kind.
func sameKind(a, b sstate.Classification) bool { return a.Kind == b.Kind }

// announceLoop makes a peer answer every view change with its flat-
// protocol announcement. Peers that were in the quorum cluster announce
// Normal mode (they kept serving); for this experiment's scenario that
// is every member of the pre-partition group except a freshly isolated
// one, which is judged by its predecessor view size.
func announceLoop(p *core.Process, rw quorum.RW) {
	var prev core.EView
	for ev := range p.Events() {
		v, ok := ev.(core.ViewEvent)
		if !ok {
			continue
		}
		mode := modes.Reduced
		if prev.ID.IsZero() || rw.CanWrite(prev.Comp()) {
			mode = modes.Normal
		}
		if payload, err := sstate.Announcement(p.PID(), prev.ID, mode); err == nil {
			_ = p.Multicast(payload)
		}
		prev = v.EView
	}
}

// mergePair drives two specific members into one subview (leaving the
// rest of the structure untouched), retrying through view changes.
func mergePair(seqr, x, y *core.Process, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastReq time.Time
	for {
		v := seqr.CurrentView()
		svX, okX := v.Structure.SubviewOf(x.PID())
		svY, okY := v.Structure.SubviewOf(y.PID())
		if okX && okY && svX == svY {
			return nil
		}
		if okX && okY && time.Since(lastReq) > 200*time.Millisecond {
			lastReq = time.Now()
			ssX, _ := v.Structure.SVSetOf(svX)
			ssY, _ := v.Structure.SVSetOf(svY)
			if ssX != ssY {
				_ = seqr.SVSetMerge(ssX, ssY)
			} else {
				_ = seqr.SubviewMerge(svX, svY)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mergePair: timeout (structure %v)", seqr.CurrentView().Structure)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mergeAll drives the group's structure into a single subview.
func mergeAll(seqr *core.Process, procs []*core.Process, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		v := seqr.CurrentView()
		if v.Structure.NumSVSets() > 1 {
			_ = seqr.SVSetMerge(v.Structure.SVSets()...)
		} else if v.Structure.NumSubviews() > 1 {
			_ = seqr.SubviewMerge(v.Structure.Subviews()...)
		} else {
			allMerged := true
			for _, p := range procs {
				pv := p.CurrentView()
				if pv.Structure.NumSubviews() != 1 {
					allMerged = false
					break
				}
			}
			if allMerged {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mergeAll: timeout (structure %v)", seqr.CurrentView().Structure)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// E2Header is the column header line for E2 tables.
const E2Header = "n | flat msgs | flat latency | enriched msgs | enriched latency | kinds agree | kind"

// String renders the row under E2Header.
func (r E2Row) String() string {
	return fmt.Sprintf("%2d | %9d | %12v | %13d | %16v | %11v | %v",
		r.N, r.FlatMsgs, r.FlatLatency.Round(100*time.Microsecond),
		r.EnrichedMsgs, r.EnrichedLatency.Round(100*time.Nanosecond),
		r.Agreement, r.Kind)
}
