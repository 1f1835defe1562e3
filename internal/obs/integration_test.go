package obs_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracecheck"
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

// TestTeeComposition pins Tee's shape rules: nils are dropped, a single
// observer is returned unwrapped, and extended hooks reach exactly the
// members that implement them.
func TestTeeComposition(t *testing.T) {
	if got := obs.Tee(); got != nil {
		t.Fatalf("Tee() = %v, want nil", got)
	}
	if got := obs.Tee(nil, nil); got != nil {
		t.Fatalf("Tee(nil, nil) = %v, want nil", got)
	}
	plain := &plainObserver{}
	if got := obs.Tee(nil, plain); got != core.Observer(plain) {
		t.Fatalf("Tee(nil, plain) should return plain unwrapped")
	}

	// Plain + Collector (extended): the tee must advertise the extended
	// interface so core wires the fine-grained hooks.
	coll := obs.NewCollector(obs.NewRegistry(), nil)
	teed := obs.Tee(plain, coll)
	ext, ok := teed.(core.ExtendedObserver)
	if !ok {
		t.Fatal("Tee(plain, extended) does not implement ExtendedObserver")
	}
	// Extended hook reaches the collector only; plain callback reaches both.
	ext.OnTick(ids.PID{}, 5*time.Millisecond)
	if got := coll.Registry().Histogram(obs.MetricTickDuration, nil).Count(); got != 1 {
		t.Fatalf("extended hook did not reach the collector: count=%d", got)
	}
	teed.OnSend(ids.PID{}, ids.MsgID{}, ids.ViewID{})
	if plain.sends != 1 || coll.Registry().Counter(obs.MetricMulticasts).Value() != 1 {
		t.Fatal("plain callback did not reach both members")
	}

	// Two plain observers: no extended interface.
	if _, ok := obs.Tee(plain, &plainObserver{}).(core.ExtendedObserver); ok {
		t.Fatal("Tee(plain, plain) should not advertise ExtendedObserver")
	}
}

// plainObserver implements core.Observer and nothing more.
type plainObserver struct{ sends int }

func (o *plainObserver) OnSend(ids.PID, ids.MsgID, ids.ViewID) { o.sends++ }
func (*plainObserver) OnDeliver(ids.PID, core.MsgEvent)        {}
func (*plainObserver) OnView(ids.PID, core.ViewEvent)          {}
func (*plainObserver) OnEChange(ids.PID, core.EChangeEvent)    {}
