package obs

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ids"
)

// TestCollectorObserveAllocsNothing pins that notes pass by value: the
// data-path notes (and a mode step, once its handles are resolved) cost
// a Collector without a tracer no allocation.
func TestCollectorObserveAllocsNothing(t *testing.T) {
	c := NewCollector(nil, nil)
	self := ids.PID{Site: "a", Inc: 1}
	view := ids.ViewID{Epoch: 1, Coord: self}
	msg := ids.MsgID{Sender: self, Seq: 1}
	notes := []core.Note{
		{Kind: core.NoteSend, Self: self, Msg: msg, View: view},
		{Kind: core.NoteDeliver, Self: self, Msg: msg, View: view, Stamp: clock.Vector{self: 1}},
		{Kind: core.NotePktSent, Self: self, Label: "data", N: 128},
		{Kind: core.NotePktRecv, Self: self, Label: "data", N: 128},
		{Kind: core.NoteModeStep, Self: self, View: view, From: "S", To: "N", Label: "Reconcile"},
	}
	observe := func() {
		for _, n := range notes {
			c.Observe(n)
		}
	}
	observe() // resolve the per-label handles
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per round, want 0", allocs)
	}
}

// TestCollectorMapsStayBounded cycles 1000 incarnations of one site
// through a long-lived Collector — each falsely suspected and cleared,
// opening and closing both latency windows, then crashing while
// suspected and mid-change — and checks the per-process and
// per-suspicion state tracks what is live, not what ever existed.
func TestCollectorMapsStayBounded(t *testing.T) {
	c := NewCollector(nil, nil)
	a := ids.PID{Site: "a", Inc: 1}
	for inc := uint32(1); inc <= 1000; inc++ {
		b := ids.PID{Site: "b", Inc: inc}
		view := ids.ViewID{Epoch: uint64(inc), Coord: a}
		for _, n := range []core.Note{
			{Kind: core.NoteView, Self: b, EView: core.EView{ID: view}},
			{Kind: core.NoteSuspect, Self: a, Peer: b, Flag: true},
			{Kind: core.NoteSuspect, Self: a, Peer: b}, // revoked: a false suspicion
			{Kind: core.NoteMergeRequest, Self: b},
			{Kind: core.NoteEChange, Self: b},
			{Kind: core.NoteView, Self: a, EView: core.EView{ID: view}},
			// b crashes suspected by a, and mid-change itself.
			{Kind: core.NoteSuspect, Self: a, Peer: b, Flag: true},
			{Kind: core.NoteSuspect, Self: b, Peer: a, Flag: true},
		} {
			c.Observe(n)
		}
		// Standing: a suspects b and b suspects a; open: a's and b's
		// change windows.
		if len(c.susp) > 2 || len(c.procs) > 2 {
			t.Fatalf("incarnation %d: %d suspicions and %d processes kept, want <= 2 each",
				inc, len(c.susp), len(c.procs))
		}
	}
	if got := c.falseSusp.Value(); got != 1000 {
		t.Fatalf("false suspicions = %d, want 1000", got)
	}
}
