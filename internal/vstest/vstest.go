// Package vstest is the one group harness: the standard fabric, the
// simulation-speed options, site names, and the convergence and polling
// waits every live-group run uses. The error-returning primitives
// (NewFabric, Converged, Await) serve non-test code — the experiments,
// the chaos runner and cmd/vstrace; Net and the testing.TB helpers wrap
// them for tests.
package vstest

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/transport/udp"
)

// FastOptions returns protocol options tuned for simulation speed: the
// core.Sim* timing, enriched views, views logged.
func FastOptions() core.Options {
	return core.Options{
		Group:          "g",
		HeartbeatEvery: core.SimHeartbeatEvery,
		SuspectAfter:   core.SimSuspectAfter,
		Tick:           core.SimTick,
		ProposeTimeout: core.SimProposeTimeout,
		Enriched:       true,
		LogViews:       true,
	}
}

// Fabric is a network backend with partition fault injection. Both
// simnet.Fabric and udp.Transport satisfy it.
type Fabric interface {
	transport.Transport
	transport.Partitioner
}

// SimConfig is the standard simulated network: uniform 50–400 µs delay
// seeded seed+1, no loss, infinite bandwidth.
func SimConfig(seed int64) simnet.Config {
	return simnet.Config{
		Delay: simnet.NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, seed+1),
		Seed:  seed,
	}
}

// NewFabric builds the named backend: "udp" is real loopback sockets,
// anything else the simulator on SimConfig(seed).
func NewFabric(name string, seed int64) Fabric {
	if name == "udp" {
		return udp.New(udp.Config{})
	}
	return simnet.New(SimConfig(seed))
}

// SiteName maps an index to a site name ("a".."z", then "s26"...).
func SiteName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return fmt.Sprintf("s%d", i)
}

// Await polls cond until it holds, or fails once timeout elapses.
func Await(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// Converged waits until all given processes have installed one common
// view containing exactly them, and returns that view. On timeout the
// error lists every process's current view.
func Converged(procs []*core.Process, timeout time.Duration) (core.EView, error) {
	want := make(ids.PIDSet, len(procs))
	for _, p := range procs {
		want.Add(p.PID())
	}
	var v0 core.EView
	err := Await(timeout, "convergence", func() bool {
		v0 = procs[0].CurrentView()
		if !v0.Comp().Equal(want) {
			return false
		}
		for _, p := range procs[1:] {
			if v := p.CurrentView(); v.ID != v0.ID || !v.Comp().Equal(want) {
				return false
			}
		}
		return true
	})
	if err != nil {
		var state strings.Builder
		for _, p := range procs {
			v := p.CurrentView()
			fmt.Fprintf(&state, "\n  %v: %v %v", p.PID(), v.ID, v.Members)
		}
		return core.EView{}, fmt.Errorf("convergence timeout; want %v, state:%s", want, state.String())
	}
	return v0, nil
}

// Net is a simulated cluster: fabric, per-site stable storage, and the
// event sinks of the processes it started.
type Net struct {
	TB     testing.TB
	Fabric *simnet.Fabric
	Reg    *stable.Registry
	// Transport is what Start attaches processes to: Fabric, unless the
	// test wrapped it (e.g. in a transport.FaultFilter) first.
	Transport transport.Transport

	mu    sync.Mutex
	sinks map[ids.PID]*Sink
}

// NewNet creates a cluster on the standard simulated fabric.
func NewNet(tb testing.TB, seed int64) *Net { return NewNetLossy(tb, seed, 0) }

// NewNetLossy creates a cluster whose fabric drops each message with the
// given probability.
func NewNetLossy(tb testing.TB, seed int64, lossRate float64) *Net {
	tb.Helper()
	cfg := SimConfig(seed)
	cfg.LossRate = lossRate
	f := simnet.New(cfg)
	n := &Net{
		TB:        tb,
		Fabric:    f,
		Reg:       stable.NewRegistry(),
		Transport: f,
		sinks:     make(map[ids.PID]*Sink),
	}
	tb.Cleanup(f.Close)
	return n
}

// Start boots a process at site with the given options and attaches an
// event sink.
func (n *Net) Start(site string, opts core.Options) *core.Process {
	n.TB.Helper()
	p := n.StartRaw(site, opts)
	sk := &Sink{}
	go sk.run(p.Events())
	n.mu.Lock()
	n.sinks[p.PID()] = sk
	n.mu.Unlock()
	return p
}

// StartRaw boots a process without attaching an event sink; the caller
// owns the event stream (e.g. to drive an application layer).
func (n *Net) StartRaw(site string, opts core.Options) *core.Process {
	n.TB.Helper()
	p, err := core.Start(n.Transport, n.Reg, site, opts)
	if err != nil {
		n.TB.Fatalf("Start(%s): %v", site, err)
	}
	return p
}

// StartRawN boots count sink-less processes at sites "a", "b", ....
func (n *Net) StartRawN(count int, opts core.Options) []*core.Process {
	n.TB.Helper()
	out := make([]*core.Process, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, n.StartRaw(SiteName(i), opts))
	}
	return out
}

// StartN boots count processes at sites "a", "b", ... with shared options.
func (n *Net) StartN(count int, opts core.Options) []*core.Process {
	n.TB.Helper()
	out := make([]*core.Process, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, n.Start(SiteName(i), opts))
	}
	return out
}

// Sink returns p's event sink.
func (n *Net) Sink(p *core.Process) *Sink {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sinks[p.PID()]
}

// Sink drains one process's event stream into an inspectable log.
type Sink struct {
	mu     sync.Mutex
	events []core.Event
}

func (s *Sink) run(ch <-chan core.Event) {
	for ev := range ch {
		s.mu.Lock()
		s.events = append(s.events, ev)
		s.mu.Unlock()
	}
}

// Events returns a snapshot of all events in arrival order.
func (s *Sink) Events() []core.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]core.Event, len(s.events))
	copy(out, s.events)
	return out
}

// Views returns the installed views in order.
func (s *Sink) Views() []core.EView {
	var out []core.EView
	for _, ev := range s.Events() {
		if v, ok := ev.(core.ViewEvent); ok {
			out = append(out, v.EView)
		}
	}
	return out
}

// Msgs returns delivered messages grouped by delivery view.
func (s *Sink) Msgs() map[ids.ViewID][]core.MsgEvent {
	out := make(map[ids.ViewID][]core.MsgEvent)
	for _, ev := range s.Events() {
		if m, ok := ev.(core.MsgEvent); ok {
			out[m.View] = append(out[m.View], m)
		}
	}
	return out
}

// EChanges returns applied e-view changes in order.
func (s *Sink) EChanges() []core.EChangeEvent {
	var out []core.EChangeEvent
	for _, ev := range s.Events() {
		if e, ok := ev.(core.EChangeEvent); ok {
			out = append(out, e)
		}
	}
	return out
}

// WaitConverged is Converged, fatal on timeout.
func WaitConverged(tb testing.TB, procs []*core.Process, timeout time.Duration) core.EView {
	tb.Helper()
	v, err := Converged(procs, timeout)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// Eventually is Await, fatal on timeout.
func Eventually(tb testing.TB, timeout time.Duration, what string, cond func() bool) {
	tb.Helper()
	if err := Await(timeout, what, cond); err != nil {
		tb.Fatal(err)
	}
}

// WaitView polls p's current view until pred holds (fatal on timeout).
func WaitView(tb testing.TB, p *core.Process, timeout time.Duration, what string, pred func(core.EView) bool) core.EView {
	tb.Helper()
	var v core.EView
	if err := Await(timeout, what, func() bool { v = p.CurrentView(); return pred(v) }); err != nil {
		tb.Fatalf("%v: %v; current view %v %v (structure %v)", p.PID(), err, v.ID, v.Members, v.Structure)
	}
	return v
}
