package obs_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/tracecheck"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vstest"
)

// TestCollectorLiveGroup runs a real group — formation, traffic, a
// crash-driven view change — under a Collector and asserts that its
// metrics and trace reflect what happened and that the trace passes the
// property checkers. Under -race this also exercises the instrumented
// hot paths from every protocol goroutine at once.
func TestCollectorLiveGroup(t *testing.T) {
	net := vstest.NewNet(t, 7)
	reg := obs.NewRegistry()
	mem := obs.NewMemorySink()

	opts := vstest.FastOptions()
	opts.Observer = obs.NewCollector(reg, obs.NewTracer(0, mem))

	procs := net.StartN(3, opts)
	vstest.WaitConverged(t, procs, 15*time.Second)

	for i := 0; i < 5; i++ {
		if err := procs[i%3].Multicast([]byte("m")); err != nil {
			t.Fatalf("multicast: %v", err)
		}
	}
	vstest.Eventually(t, 5*time.Second, "deliveries", func() bool {
		return reg.Counter(obs.MetricDelivered).Value() >= 15 // 5 msgs x 3 members
	})

	// Crash one member: suspicion -> proposal -> new view, all of which
	// the collector must see.
	procs[2].Crash()
	vstest.WaitConverged(t, procs[:2], 15*time.Second)

	for _, p := range procs[:2] {
		p.Crash()
	}

	if rep := tracecheck.Check(mem.Events()); !rep.OK() {
		t.Fatalf("trace violations: %v", rep.Violations)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		obs.MetricViewInstalls,
		obs.MetricViewProposals,
		obs.MetricSuspicions,
		obs.MetricMulticasts,
		obs.MetricDelivered,
		obs.MetricPktSentPrefix + "hb",
		obs.MetricPktRecvPrefix + "hb",
		obs.MetricPktSentPrefix + "propose",
		obs.MetricBytesSentPrefix + "data",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q = 0 after a full group run", name)
		}
	}
	if h := snap.Histograms[obs.MetricViewChangeLatency]; h.Count == 0 {
		t.Error("view-change latency histogram empty after a crash-driven view change")
	}
	if h := snap.Histograms[obs.MetricTickDuration]; h.Count == 0 {
		t.Error("tick duration histogram empty")
	}
	if h := snap.Histograms[obs.MetricHeartbeatGap]; h.Count == 0 {
		t.Error("heartbeat gap histogram empty")
	}
	if g := snap.Gauges[obs.MetricGroupSize]; g != 2 {
		t.Errorf("group.size gauge = %d, want 2 (after the crash)", g)
	}

	// The trace must contain the protocol arc: sends, deliveries, a
	// suspicion, a proposal and an install.
	seen := map[obs.EventType]bool{}
	for _, ev := range mem.Events() {
		seen[ev.Type] = true
		if ev.Seq == 0 || ev.PID == "" || ev.At.IsZero() {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}
	for _, typ := range []obs.EventType{
		obs.EvSend, obs.EvDeliver, obs.EvSuspect, obs.EvPropose, obs.EvInstall,
	} {
		if !seen[typ] {
			t.Errorf("trace missing %q events; saw %v", typ, seen)
		}
	}
}

// TestTeeComposition pins Tee's shape rules — nils are dropped, a single
// observer is returned unwrapped — and then runs a 4-member counter group
// through join, sv-set merges, partition/heal (with the heal's install
// lost, so the coordinator first reconciles, then re-proposes) and one
// crash under Tee(counting sink, Recorder): every note kind the core, its
// failure detector and the group-object host emit must reach both, and
// the recorded trace must hold every property.
func TestTeeComposition(t *testing.T) {
	if got := obs.Tee(); got != nil {
		t.Fatalf("Tee() = %v, want nil", got)
	}
	if got := obs.Tee(nil, nil); got != nil {
		t.Fatalf("Tee(nil, nil) = %v, want nil", got)
	}
	count := &countingSink{}
	if got := obs.Tee(nil, count); got != core.Observer(count) {
		t.Fatalf("Tee(nil, sink) should return the sink unwrapped")
	}

	net := vstest.NewNet(t, 26)
	filt := transport.NewFaultFilter(net.Fabric)
	rec := tracecheck.NewRecorder()
	opts := vstest.FastOptions()
	opts.Observer = obs.Tee(count, rec)
	opts.AdaptiveFD = true     // the detector then reports effective timeouts
	opts.ReconcileAttempts = 1 // one lost re-send escalates to a re-proposal
	open := func(site string) *counter.Counter {
		c, err := counter.Open(filt, net.Reg, site, opts, true)
		if err != nil {
			t.Fatalf("open %s: %v", site, err)
		}
		t.Cleanup(c.Close)
		return c
	}
	serving := func(stage string, cs ...*counter.Counter) {
		t.Helper()
		procs := make([]*core.Process, len(cs))
		for i, c := range cs {
			procs[i] = c.Process()
		}
		vstest.WaitConverged(t, procs, 25*time.Second)
		vstest.Eventually(t, 25*time.Second, stage+": all in N-mode", func() bool {
			for _, c := range cs {
				if c.Mode() != modes.Normal {
					return false
				}
			}
			return true
		})
	}

	all := []*counter.Counter{open("a"), open("b"), open("c"), open("d")}
	serving("joined", all...)
	if err := all[0].Increment(1); err != nil {
		t.Fatalf("increment: %v", err)
	}

	filt.SetPartitions([]string{"a", "b", "c"}, []string{"d"})
	serving("partitioned", all[:3]...)
	// Lose the heal's install to c and the coordinator's one re-send.
	filt.Arm(transport.DropFirst(2, func(_, to ids.PID, payload any) bool {
		_, isInstall := payload.(wire.Install)
		return isInstall && to == all[2].Process().PID()
	}))
	filt.Heal()
	vstest.Eventually(t, 25*time.Second, "installs lost", func() bool { return filt.Dropped() >= 2 })
	filt.Disarm()
	serving("healed", all...)

	all[3].Process().Crash()
	serving("after crash", all[:3]...)

	// The metric each kind moves in the Recorder's Collector.
	snap := rec.Registry().Snapshot()
	for kind, metric := range map[core.NoteKind]string{
		core.NoteSend:         obs.MetricMulticasts,
		core.NoteDeliver:      obs.MetricDelivered,
		core.NoteView:         obs.MetricViewInstalls,
		core.NoteEChange:      obs.MetricEChangeApplied,
		core.NoteMergeRequest: obs.MetricEChangeRequests,
		core.NoteSuspect:      obs.MetricSuspicions,
		core.NoteHeartbeatGap: obs.MetricHeartbeatGap,
		core.NoteTimeout:      obs.MetricFDEffectiveTimeout,
		core.NotePropose:      obs.MetricViewProposals,
		core.NoteBlock:        obs.MetricViewBlocks,
		core.NoteFlush:        obs.MetricFlushDuration,
		core.NoteReproposal:   obs.MetricReproposals,
		core.NoteReconcile:    obs.MetricReconciles,
		core.NotePktSent:      obs.MetricPktSentPrefix + "hb",
		core.NotePktRecv:      obs.MetricPktRecvPrefix + "hb",
		core.NoteTick:         obs.MetricTickDuration,
		core.NoteLoopHealth:   obs.MetricTickLag,
		core.NoteModeStep:     obs.MetricModeTransitionPrefix + "Reconcile",
	} {
		if count.n[kind].Load() == 0 {
			t.Errorf("note kind %d never reached the counting sink", kind)
		}
		if snap.Counters[metric] == 0 && snap.Histograms[metric].Count == 0 {
			t.Errorf("note kind %d never reached the recorder: %s is zero", kind, metric)
		}
	}
	for _, err := range rec.Verify() {
		t.Error(err)
	}
}

// countingSink counts the notes it observes per kind.
type countingSink struct {
	n [core.NoteModeStep + 1]atomic.Int64
}

func (c *countingSink) Observe(n core.Note) { c.n[n.Kind].Add(1) }
