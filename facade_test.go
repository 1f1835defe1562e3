package viewsync

import (
	"testing"
	"time"
)

// TestFacadeEndToEnd exercises the library exclusively through the
// public facade: boot a group, multicast, merge subviews, classify, and
// verify the trace — the complete quickstart surface.
func TestFacadeEndToEnd(t *testing.T) {
	rec := NewRecorder()
	fabric := NewFabric(FabricConfig{
		Delay: NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, 1),
		Seed:  1,
	})
	defer fabric.Close()
	reg := NewRegistry()

	opts := Options{
		Group:          "facade",
		HeartbeatEvery: SimHeartbeatEvery,
		SuspectAfter:   SimSuspectAfter,
		Tick:           SimTick,
		ProposeTimeout: SimProposeTimeout,
		Enriched:       true,
		Observer:       rec,
	}

	var procs []*Process
	delivered := make(chan MsgEvent, 64)
	for _, site := range []string{"x", "y", "z"} {
		p, err := Start(fabric, reg, site, opts)
		if err != nil {
			t.Fatalf("Start(%s): %v", site, err)
		}
		procs = append(procs, p)
		go func(p *Process) {
			for ev := range p.Events() {
				if m, ok := ev.(MsgEvent); ok {
					delivered <- m
				}
			}
		}(p)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		v := procs[0].CurrentView()
		if v.Size() == 3 {
			ok := true
			for _, p := range procs[1:] {
				if p.CurrentView().ID != v.ID {
					ok = false
				}
			}
			if ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("convergence timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := procs[0].Multicast([]byte("hello")); err != nil {
		t.Fatalf("Multicast: %v", err)
	}
	got := 0
	timeout := time.After(5 * time.Second)
	for got < 3 {
		select {
		case m := <-delivered:
			if string(m.Payload) == "hello" {
				got++
			}
		case <-timeout:
			t.Fatalf("only %d deliveries", got)
		}
	}

	// Structure manipulation + local classification through the facade.
	v := procs[0].CurrentView()
	if n := v.Structure.NumSubviews(); n != 3 {
		t.Fatalf("expected 3 singleton subviews, got %d", n)
	}
	class := ClassifyEnriched(v, func(cluster PIDSet) bool { return len(cluster) >= 2 })
	if class.Kind != ProblemCreation {
		t.Fatalf("classification = %v, want creation (all singletons)", class.Kind)
	}
	if err := procs[0].SVSetMerge(v.Structure.SVSets()...); err != nil {
		t.Fatalf("SVSetMerge: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for procs[0].CurrentView().Structure.NumSVSets() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sv-set merge never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Quorum helpers.
	rw := MajorityRW(UniformVoting("x", "y", "z"))
	if !rw.CanWrite(v.Comp()) {
		t.Fatal("full view must hold a write quorum")
	}

	for _, p := range procs {
		p.Leave()
	}
	time.Sleep(50 * time.Millisecond)
	if errs := rec.Verify(); len(errs) != 0 {
		for _, err := range errs {
			t.Error(err)
		}
	}
}

// TestFacadeModeMachine drives the Figure-1 machine through the facade.
func TestFacadeModeMachine(t *testing.T) {
	fabric := NewFabric(FabricConfig{Seed: 2})
	defer fabric.Close()
	reg := NewRegistry()
	p, err := Start(fabric, reg, "solo", Options{Group: "m", Enriched: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Leave()
	go func() {
		for range p.Events() {
		}
	}()

	first := p.CurrentView()
	machine := NewModeMachine(AlwaysSettle(), first)
	if machine.Mode() != Settling {
		t.Fatalf("initial mode = %v", machine.Mode())
	}
	if _, err := machine.Reconcile(); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if machine.Mode() != Normal {
		t.Fatalf("mode after reconcile = %v", machine.Mode())
	}
}
