package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/transport"
)

// testOpts returns the shared simulation-speed profile. The numbers are
// the Sim* constants that experiments.FastTiming (the profile's
// harness-facing source) is built from; core's tests cannot import that
// package without an import cycle.
func testOpts() Options {
	return Options{
		Group:          "g",
		HeartbeatEvery: SimHeartbeatEvery,
		SuspectAfter:   SimSuspectAfter,
		Tick:           SimTick,
		ProposeTimeout: SimProposeTimeout,
		Enriched:       true,
		LogViews:       true,
	}
}

// net is a test network: fabric + stable storage + started processes.
type net struct {
	t      *testing.T
	fabric *simnet.Fabric
	reg    *stable.Registry
	mu     sync.Mutex
	procs  map[string]*Process // by site (latest incarnation)
	sinks  map[ids.PID]*sink
	// tr is what processes attach to: the fabric, unless a test wrapped
	// it (e.g. in a transport.FaultFilter) before starting any.
	tr transport.Transport
}

// sink drains a process's event stream and keeps it for assertions.
type sink struct {
	mu     sync.Mutex
	events []Event
}

func (s *sink) run(ch <-chan Event) {
	for ev := range ch {
		s.mu.Lock()
		s.events = append(s.events, ev)
		s.mu.Unlock()
	}
}

func (s *sink) snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// views returns the installed views, in order.
func (s *sink) views() []EView {
	var out []EView
	for _, ev := range s.snapshot() {
		if v, ok := ev.(ViewEvent); ok {
			out = append(out, v.EView)
		}
	}
	return out
}

// msgs returns delivered messages grouped by the view they were
// delivered in.
func (s *sink) msgs() map[ids.ViewID][]MsgEvent {
	out := make(map[ids.ViewID][]MsgEvent)
	for _, ev := range s.snapshot() {
		if m, ok := ev.(MsgEvent); ok {
			out[m.View] = append(out[m.View], m)
		}
	}
	return out
}

// echanges returns applied e-view changes, in order.
func (s *sink) echanges() []EChangeEvent {
	var out []EChangeEvent
	for _, ev := range s.snapshot() {
		if e, ok := ev.(EChangeEvent); ok {
			out = append(out, e)
		}
	}
	return out
}

func newNet(t *testing.T, seed int64) *net {
	t.Helper()
	f := simnet.New(simnet.Config{
		Delay: simnet.NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, seed+1),
		Seed:  seed,
	})
	n := &net{
		t:      t,
		fabric: f,
		tr:     f,
		reg:    stable.NewRegistry(),
		procs:  make(map[string]*Process),
		sinks:  make(map[ids.PID]*sink),
	}
	t.Cleanup(f.Close)
	return n
}

// start boots a process at the given site with per-test options.
func (n *net) start(site string, opts Options) *Process {
	n.t.Helper()
	p, err := Start(n.tr, n.reg, site, opts)
	if err != nil {
		n.t.Fatalf("Start(%s): %v", site, err)
	}
	sk := &sink{}
	go sk.run(p.Events())
	n.mu.Lock()
	n.procs[site] = p
	n.sinks[p.PID()] = sk
	n.mu.Unlock()
	return p
}

// startN boots sites s1..sN (named a, b, c, ...) with the same options.
func (n *net) startN(count int, opts Options) []*Process {
	n.t.Helper()
	out := make([]*Process, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, n.start(siteName(i), opts))
	}
	return out
}

func siteName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return fmt.Sprintf("s%d", i)
}

func (n *net) sink(p *Process) *sink {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sinks[p.PID()]
}

// waitView polls until pred holds for p's current view.
func waitView(t *testing.T, p *Process, timeout time.Duration, what string, pred func(EView) bool) EView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := p.CurrentView()
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v: timeout waiting for %s; current view %v %v (structure %v)",
				p.PID(), what, v.ID, v.Members, v.Structure)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitConverged waits until all given processes have installed the same
// view with exactly their compositions.
func waitConverged(t *testing.T, procs []*Process, timeout time.Duration) EView {
	t.Helper()
	want := make(ids.PIDSet, len(procs))
	for _, p := range procs {
		want.Add(p.PID())
	}
	deadline := time.Now().Add(timeout)
	for {
		v0 := procs[0].CurrentView()
		ok := v0.Comp().Equal(want)
		if ok {
			for _, p := range procs[1:] {
				v := p.CurrentView()
				if v.ID != v0.ID || !v.Comp().Equal(want) {
					ok = false
					break
				}
			}
		}
		if ok {
			return v0
		}
		if time.Now().After(deadline) {
			var state string
			for _, p := range procs {
				v := p.CurrentView()
				state += fmt.Sprintf("\n  %v: %v %v", p.PID(), v.ID, v.Members)
			}
			t.Fatalf("convergence timeout; want %v, state:%s", want, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// eventually polls a condition.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
