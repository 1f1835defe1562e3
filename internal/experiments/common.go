// Package experiments implements the reproduction harness: one function
// per figure/claim of the paper (see DESIGN.md §3 for the index). Each
// experiment returns structured rows that cmd/vsbench formats as tables.
//
// The experiments run real protocol stacks on the internal/vstest fabric;
// they are measurements of this implementation, not of the authors' 1996
// testbeds — EXPERIMENTS.md records how the shapes compare.
package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/vstest"
)

// Timing is the protocol timing profile experiments run with.
type Timing struct {
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	Tick           time.Duration
	ProposeTimeout time.Duration
	// Observer, when non-nil, is attached to every process the
	// experiment starts (vsbench -metrics wires an obs.Collector here).
	// Experiments that install their own observer compose with it via
	// obs.Tee rather than replacing it.
	Observer core.Observer
	// Transport selects the network backend: "sim" (default, the
	// deterministic simulator) or "udp" (real loopback sockets).
	// Experiments built on simulator-only models keep using sim
	// regardless: E3 (receiver bandwidth) and E7 (delay jitter).
	Transport string
	// OnStart, when non-nil, fires for every process an experiment
	// starts, immediately after core.Start succeeds. The admin endpoint
	// registers members here (vsbench -admin) so live /status covers the
	// whole group without each experiment knowing about it. Processes
	// are not unregistered on crash/leave: a dead member's stale
	// snapshot is itself a signal (vsmon flags it stale).
	OnStart func(p *core.Process)
}

// FastTiming is the default simulation-speed profile: the core.Sim*
// timing vstest.FastOptions runs with.
func FastTiming() Timing {
	return Timing{
		HeartbeatEvery: core.SimHeartbeatEvery,
		SuspectAfter:   core.SimSuspectAfter,
		Tick:           core.SimTick,
		ProposeTimeout: core.SimProposeTimeout,
	}
}

// Options materializes the profile as the core options every harness
// boots processes with (views logged, observer attached).
func (t Timing) Options(group string, enriched bool) core.Options {
	return core.Options{
		Group:          group,
		HeartbeatEvery: t.HeartbeatEvery,
		SuspectAfter:   t.SuspectAfter,
		Tick:           t.Tick,
		ProposeTimeout: t.ProposeTimeout,
		Enriched:       enriched,
		LogViews:       true,
		Observer:       t.Observer,
	}
}

// Start boots one process through core.Start and reports it to the
// OnStart hook. Experiments start every member through it (rather
// than calling core.Start directly) so that an installed hook sees
// the whole group.
func (t Timing) Start(tr transport.Transport, reg *stable.Registry, site string, opts core.Options) (*core.Process, error) {
	p, err := core.Start(tr, reg, site, opts)
	if err == nil && t.OnStart != nil {
		t.OnStart(p)
	}
	return p, err
}

// env is one experiment cell's world: fabric + storage.
type env struct {
	fabric vstest.Fabric
	reg    *stable.Registry
}

// newEnv builds one cell's world on the profile's transport and marks a
// trace run named label in the observer when it carries a trace
// (obs.Collector and tracecheck.Recorder do): process and view
// identifiers restart with every fabric, so trace analysis
// (internal/tracecheck) must not correlate events across the boundary.
// A sim tweak adjusts the standard simulator profile for a cell that
// models the network itself (E3's receiver bandwidth, E7's delay
// jitter); such a cell runs on the simulator whatever the transport.
func (t Timing) newEnv(label string, seed int64, sim ...func(*simnet.Config)) *env {
	if m, ok := t.Observer.(interface{ MarkRun(label string) }); ok {
		m.MarkRun(label)
	}
	e := &env{reg: stable.NewRegistry()}
	if len(sim) == 0 {
		e.fabric = vstest.NewFabric(t.Transport, seed)
		return e
	}
	cfg := vstest.SimConfig(seed)
	for _, tweak := range sim {
		tweak(&cfg)
	}
	e.fabric = simnet.New(cfg)
	return e
}

func (e *env) close() { e.fabric.Close() }

// drain discards a process's events (for experiments that only watch
// CurrentView).
func drain(p *core.Process) {
	go func() {
		for range p.Events() {
		}
	}()
}
