package chaos

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transfer"
	"repro/internal/transport"
	"repro/internal/transport/udp"
	"repro/internal/transport/wire"
	"repro/internal/vstest"
)

// blobApp is the simplest transfer.App: one byte blob of shared state.
type blobApp struct {
	mu   sync.Mutex
	data []byte
}

func (a *blobApp) get() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.data...)
}

func (a *blobApp) MarshalCritical() ([]byte, error) { return nil, nil }
func (a *blobApp) MarshalBulk() ([]byte, error)     { return a.get(), nil }
func (a *blobApp) ApplyCritical(b []byte) error     { return nil }
func (a *blobApp) ApplyBulk(b []byte) error {
	a.mu.Lock()
	a.data = append([]byte(nil), b...)
	a.mu.Unlock()
	return nil
}

// member is one process plus its transfer tool and event pump.
type member struct {
	p    *core.Process
	app  *blobApp
	tool *transfer.Tool
	done chan struct{} // closed when a received transfer completes
}

// startMember boots a process and pumps its events through the transfer
// tool, signaling done when a reception finishes.
func startMember(t *testing.T, tr transport.Transport, reg *stable.Registry, site string, opts core.Options) *member {
	t.Helper()
	p, err := core.Start(tr, reg, site, opts)
	if err != nil {
		t.Fatalf("start %s: %v", site, err)
	}
	m := &member{p: p, app: &blobApp{}, done: make(chan struct{})}
	m.tool = transfer.New(p, m.app, transfer.Options{})
	go func() {
		closed := false
		for ev := range p.Events() {
			me, ok := ev.(core.MsgEvent)
			if !ok {
				continue
			}
			prog, handled, err := m.tool.HandleMessage(me)
			if err != nil || !handled {
				continue
			}
			if prog.Done && !closed {
				closed = true
				close(m.done)
			}
		}
	}()
	return m
}

// TestCoordinatorCrashMidProposal is the Process.Crash mid-proposal
// scenario over both backends: the coordinator crashes after gathering
// acks but before its Install lands (a fault filter guarantees no
// Install from it ever does), the blocked survivors re-form on their
// own, and the crashed site restarts as a new incarnation that rejoins
// and pulls the shared state back via internal/transfer. The whole
// trace is gated through the tracecheck suite.
func TestCoordinatorCrashMidProposal(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		sim := simnet.New(simnet.Config{Seed: 3})
		defer sim.Close()
		runCoordinatorCrashMidProposal(t, sim)
	})
	t.Run("udp", func(t *testing.T) {
		u := udp.New(udp.Config{})
		defer u.Close()
		runCoordinatorCrashMidProposal(t, u)
	})
}

func runCoordinatorCrashMidProposal(t *testing.T, fabric transport.Transport) {
	filt := transport.NewFaultFilter(fabric)
	mem := obs.NewMemorySink()
	opts := vstest.FastOptions()
	opts.Group = "crashmid"
	opts.Observer = obs.NewCollector(nil, obs.NewTracer(0, mem))
	stores := stable.NewRegistry()

	sites := []string{"a", "b", "c", "d"}
	ms := make(map[string]*member, len(sites))
	for _, s := range sites {
		ms[s] = startMember(t, filt, stores, s, opts)
	}
	procs := func(names ...string) []*core.Process {
		out := make([]*core.Process, len(names))
		for i, n := range names {
			out[i] = ms[n].p
		}
		return out
	}
	vstest.WaitConverged(t, procs("a", "b", "c", "d"), 30*time.Second)

	// The shared state lives at the survivors; b will be the donor.
	ms["b"].app.ApplyBulk([]byte("the shared state"))

	// No Install from coordinator a may ever land: whenever a finishes
	// its round, the result is exactly "crashed between ack and
	// install" from the group's point of view.
	aPID := ms["a"].p.PID()
	filt.Arm(func(from, to ids.PID, payload any) transport.Verdict {
		if from == aPID {
			if _, ok := payload.(wire.Install); ok {
				return transport.Drop()
			}
		}
		return transport.Pass()
	})

	// Crash d: the smallest member a coordinates the removal round;
	// b and c ack it and block.
	ms["d"].p.Crash()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ms["b"].p.StatusSnapshot()
		if st.Blocked && st.AckedProposal != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("b never blocked on a's proposal; status %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// The coordinator crashes holding the acks. Survivors b and c are
	// blocked on a round that will never install.
	ms["a"].p.Crash()
	filt.Disarm()

	// The protocol's way out: b and c suspect a, the new smallest (b)
	// proposes a higher round, and the survivors re-form alone.
	vstest.WaitConverged(t, procs("b", "c"), 30*time.Second)

	// The crashed site restarts as a new incarnation and rejoins via
	// heartbeat discovery.
	ms["a2"] = startMember(t, filt, stores, "a", opts)
	if got := ms["a2"].p.PID(); got.Inc <= aPID.Inc {
		t.Fatalf("restart did not bump the incarnation: %v -> %v", aPID, got)
	}
	vstest.WaitConverged(t, procs("a2", "b", "c"), 30*time.Second)

	// State transfer: the rejoined incarnation pulls the shared state
	// from donor b.
	if err := ms["a2"].tool.Request(ms["b"].p.PID()); err != nil {
		t.Fatalf("transfer request: %v", err)
	}
	select {
	case <-ms["a2"].done:
	case <-time.After(10 * time.Second):
		t.Fatal("state transfer never completed")
	}
	if got := ms["a2"].app.get(); !bytes.Equal(got, []byte("the shared state")) {
		t.Fatalf("transferred state = %q, want %q", got, "the shared state")
	}

	// Let trailing installs settle, then gate the whole scenario
	// through the offline invariant suite.
	time.Sleep(2 * core.SimSuspectAfter)
	for _, m := range ms {
		m.p.Crash()
	}
	report := tracecheck.Check(mem.Events())
	if !report.OK() {
		for _, v := range report.Violations {
			t.Errorf("tracecheck: %s", v)
		}
	}
}
