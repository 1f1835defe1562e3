// Integration tests for the admin endpoint against live groups: a
// gobject cluster whose Figure-1 mode flip (N → R) is observed through
// real HTTP scrapes of /status mid-partition, and a UDP group whose
// injected install-propagation mismatch (the e8m recipe: a FaultFilter
// eats the coordinator's Install to one member) is flagged as
// divergence by the vsmon Monitor before the reconciliation fast path
// heals it.
//
// These live in package admin_test: they pull in the whole stack
// (core, gobject, transports) that package admin itself must not
// depend on.
package admin_test

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/gobject"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/quorum"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/transport/udp"
	"repro/internal/transport/wire"
	"repro/internal/vstest"
)

// nullObject is the smallest gobject.Object that still has a real mode
// function: majority-quorum over the member sites, no state, no
// transfer. It exists so the test exercises the Host's mode machine —
// which the admin endpoint reports — without dragging in an
// application.
type nullObject struct {
	rw quorum.RW
}

func (o *nullObject) Bind(h *gobject.Host) modes.Func {
	return modes.QuorumEnriched(h.Process().PID(), o.rw)
}
func (o *nullObject) WasNormal(cluster ids.PIDSet) bool { return o.rw.CanWrite(cluster) }
func (o *nullObject) Snapshot() ([]byte, error)         { return []byte("{}"), nil }
func (o *nullObject) MergeSnapshot(ids.PID, []byte) error {
	return nil
}
func (o *nullObject) Apply(core.MsgEvent) {}

// scrapeStatus GETs /status from a live admin server and returns the
// member documents keyed by PID.
func scrapeStatus(t *testing.T, addr string) map[string]admin.MemberStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /status: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status = %d: %s", resp.StatusCode, body)
	}
	var members []admin.MemberStatus
	if err := json.Unmarshal(body, &members); err != nil {
		t.Fatalf("decode /status: %v\n%s", err, body)
	}
	out := make(map[string]admin.MemberStatus, len(members))
	for _, m := range members {
		out[m.PID] = m
	}
	return out
}

// TestStatusModeFlipDuringPartition boots a 3-member gobject cluster
// with a majority-quorum mode function, partitions one member off, and
// watches — through real HTTP scrapes of a live admin server, exactly
// as an operator would — the minority's mode document flip N → R while
// the majority stays N, then return to N after the heal.
func TestStatusModeFlipDuringPartition(t *testing.T) {
	net := vstest.NewNet(t, 900)
	sites := []string{"a", "b", "c"}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))

	srv, err := admin.New("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hosts := make(map[string]*gobject.Host, len(sites))
	for _, s := range sites {
		obj := &nullObject{rw: rw}
		h, err := gobject.Open(net.Fabric, net.Reg, s, vstest.FastOptions(), gobject.Config{Enriched: true}, obj)
		if err != nil {
			t.Fatalf("Open(%s): %v", s, err)
		}
		t.Cleanup(h.Close)
		hosts[s] = h
		srv.Register(h.Process().PID().String(), admin.Member{
			Status: h.Process().StatusSnapshot,
			Mode:   func() string { return h.Mode().String() },
		})
	}
	pidOf := func(site string) string { return hosts[site].Process().PID().String() }

	// Everyone reaches N-mode in the full view, as seen over HTTP.
	vstest.Eventually(t, 15*time.Second, "all members N over /status", func() bool {
		docs := scrapeStatus(t, srv.Addr())
		for _, s := range sites {
			d, ok := docs[pidOf(s)]
			if !ok || d.Mode != "N" || d.Size != 3 {
				return false
			}
		}
		return true
	})

	// Partition c off: its scrape document must flip to R while the
	// majority's stays N — and the documents must disagree on view id,
	// which is exactly what vsmon's divergence detector keys on.
	net.Fabric.SetPartitions([]string{"a", "b"}, []string{"c"})
	vstest.Eventually(t, 15*time.Second, "minority R over /status", func() bool {
		docs := scrapeStatus(t, srv.Addr())
		c, okC := docs[pidOf("c")]
		a, okA := docs[pidOf("a")]
		return okC && okA && c.Mode == "R" && c.Size == 1 && a.Mode == "N" && a.ViewID != c.ViewID
	})

	// The monitor over the same documents calls the group unhealthy.
	mon := &admin.Monitor{Grace: 10 * time.Millisecond, StaleAfter: -1}
	var assessed admin.Assessment
	vstest.Eventually(t, 10*time.Second, "monitor flags the partition", func() bool {
		docs := scrapeStatus(t, srv.Addr())
		reports := make([]admin.MemberReport, 0, len(docs))
		for _, d := range docs {
			reports = append(reports, admin.MemberReport{Endpoint: srv.Addr(), Status: d})
		}
		assessed = mon.Assess(time.Now(), reports)
		return !assessed.Healthy
	})
	divergent := false
	for _, h := range assessed.Members {
		if h.PID == pidOf("c") && h.Divergent {
			divergent = true
		}
	}
	if !divergent {
		t.Errorf("partitioned member not flagged divergent: %+v", assessed.Members)
	}

	// Heal: every document returns to N in one 3-member view.
	net.Fabric.Heal()
	vstest.Eventually(t, 25*time.Second, "post-heal N over /status", func() bool {
		docs := scrapeStatus(t, srv.Addr())
		var view string
		for _, s := range sites {
			d, ok := docs[pidOf(s)]
			if !ok || d.Mode != "N" || d.Size != 3 {
				return false
			}
			if view == "" {
				view = d.ViewID
			}
			if d.ViewID != view {
				return false
			}
		}
		return true
	})
}

// TestMonitorFlagsInjectedDivergenceUDP reproduces the e8m
// install-propagation mismatch on the real-socket UDP backend and
// watches it through the admin stack end to end: a FaultFilter eats the
// coordinator's Installs to one member, leaving that member acked and
// blocked in a stale view; PollStatus + Monitor must flag it as
// divergent while the filter holds, and must call the group healthy
// again once the filter is disarmed and the group heals.
func TestMonitorFlagsInjectedDivergenceUDP(t *testing.T) {
	const n = 5
	fabric := udp.New(udp.Config{})
	filt := transport.NewFaultFilter(fabric)
	defer filt.Close()
	reg := stable.NewRegistry()

	// Deliberately relaxed timing: real sockets on a machine that may
	// be running the whole race-instrumented test tree in parallel, so
	// the failure detector must tolerate scheduling hiccups (a tight
	// sim-profile SuspectAfter causes spurious suspicions under load,
	// and the resulting churn would heal the injected divergence
	// through an unrelated round). The divergence window is held open
	// by the filter itself: it keeps eating every Install to the
	// laggard (reconcile re-sends and re-proposals included) until the
	// monitor has flagged it, so HTTP polls can observe the stale view
	// id however fast the run-time tries to heal.
	opts := vstest.FastOptions()
	opts.HeartbeatEvery = 10 * time.Millisecond
	opts.SuspectAfter = 120 * time.Millisecond
	opts.Tick = 5 * time.Millisecond
	opts.ProposeTimeout = 500 * time.Millisecond

	srv, err := admin.New("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	procs := make([]*core.Process, 0, n)
	for i := 0; i < n; i++ {
		p, err := core.Start(filt, reg, vstest.SiteName(i), opts)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		t.Cleanup(p.Crash)
		go func(p *core.Process) {
			for range p.Events() {
			}
		}(p)
		srv.Register(p.PID().String(), admin.Member{Status: p.StatusSnapshot})
		procs = append(procs, p)
	}
	vstest.WaitConverged(t, procs, 30*time.Second)

	// The e8m recipe: the smallest member coordinates re-formation, so
	// its Install to the lagging member is the packet to lose; the
	// forced-out victim must not be the coordinator or the laggard.
	coord, lag, victim := procs[0], procs[2], procs[n-1]
	dropInstalls := func(from, to ids.PID, payload any) transport.Verdict {
		if _, ok := payload.(wire.Install); ok && from == coord.PID() && to == lag.PID() {
			return transport.Drop()
		}
		return transport.Pass()
	}
	others := make([]*core.Process, 0, n-1)
	for _, p := range procs {
		if p != victim {
			others = append(others, p)
		}
	}
	for _, p := range others {
		if err := p.ForceSuspect(victim.PID()); err != nil {
			t.Fatalf("ForceSuspect: %v", err)
		}
	}
	vstest.WaitConverged(t, others, 30*time.Second)

	// Lose every Install to the laggard and bring the victim back: the
	// re-formed 5-member view reaches everyone but the laggard, which
	// acked and blocked on its stale view.
	filt.Arm(dropInstalls)
	for _, p := range others {
		if err := p.Unforce(victim.PID()); err != nil {
			t.Fatalf("Unforce: %v", err)
		}
	}
	vstest.Eventually(t, 10*time.Second, "install drop", func() bool { return filt.Dropped() >= 1 })

	// Poll like vsmon does — PollStatus over HTTP plus a stateful
	// Monitor — until the laggard is flagged divergent from the
	// majority view. The grace window spans a couple of polls so a
	// transient disagreement would not count.
	client := &http.Client{Timeout: 2 * time.Second}
	mon := &admin.Monitor{Grace: 10 * time.Millisecond, StaleAfter: -1}
	lagPID := lag.PID().String()
	deadline := time.Now().Add(10 * time.Second)
	flagged := false
	for time.Now().Before(deadline) {
		a := mon.Assess(time.Now(), admin.PollStatus(client, srv.Addr()))
		for _, h := range a.Members {
			if h.PID == lagPID && h.Divergent {
				if h.ViewID == a.Majority {
					t.Errorf("flagged member agrees with majority: %+v", h)
				}
				flagged = true
			}
		}
		if flagged {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	filt.Disarm()
	if !flagged {
		t.Fatal("monitor never flagged the lagging member as divergent")
	}
	if got := filt.Dropped(); got < 1 {
		t.Errorf("filter ate %d installs, want >= 1", got)
	}

	// With the filter disarmed the next reconcile re-send or
	// re-proposal reaches the laggard; once the group converges the
	// same polling loop must report healthy.
	vstest.WaitConverged(t, procs, 30*time.Second)
	vstest.Eventually(t, 10*time.Second, "monitor reports healed group", func() bool {
		a := mon.Assess(time.Now(), admin.PollStatus(client, srv.Addr()))
		return a.Healthy && len(a.Views) == 1
	})
}
