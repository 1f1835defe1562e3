package tracecheck

import (
	"sort"

	"repro/internal/obs"
)

// Timeline is a trace reorganized for checking: the raw event stream
// plus per-process timelines, each split into segments inside which
// process and view identifiers are coherent.
//
// EvRun boundary markers (Tracer.MarkRun) delimit segments: harnesses
// running several independent simulations through one tracer restart
// the identifier spaces at each boundary, so every event carries a
// generation — the count of markers before it — and cross-process
// checks only ever correlate events of the same generation. Within a
// generation a PID has one history; an install round that fails to
// increase along it is a ViewOrder violation, not a seam.
type Timeline struct {
	// Events is the analyzed stream in input order.
	Events []obs.Event
	// Runs is the number of generations (EvRun markers + 1).
	Runs int
	// Procs maps a PID string to its reconstructed timeline.
	Procs map[string]*Proc

	// sent maps every message the trace saw sent to the view it was
	// sent in. The run-time emits its send note before the packet
	// reaches the transport and the tracer serialises appends, so a send
	// precedes its deliveries in the stream and a truncated tail cannot
	// orphan one.
	sent map[genMsg]string
}

// genMsg keys a message by (generation, message id): the same id in two
// generations is two unrelated messages.
type genMsg struct {
	gen int
	msg string
}

// Proc is one process's event history, in trace order, split into
// identifier-coherent segments.
type Proc struct {
	PID      string
	Segments []*Segment
}

// Segment is one process's history within a single generation.
type Segment struct {
	// Gen is the generation (run index) the segment belongs to.
	Gen int
	// Events are the process's events, in trace order.
	Events []obs.Event

	installRound    uint64
	lastInstallView string
}

// Build reconstructs a Timeline from a raw event stream. Events with
// no PID (run markers, foreign junk) contribute to generations and the
// summary but to no process timeline.
func Build(events []obs.Event) *Timeline {
	tl := &Timeline{Events: events, Runs: 1, Procs: make(map[string]*Proc), sent: make(map[genMsg]string)}
	gen := 0
	for _, ev := range events {
		if ev.Type == obs.EvRun {
			gen++
			tl.Runs = gen + 1
			continue
		}
		if ev.PID == "" {
			continue
		}
		p, ok := tl.Procs[ev.PID]
		if !ok {
			p = &Proc{PID: ev.PID}
			tl.Procs[ev.PID] = p
		}
		var seg *Segment
		if n := len(p.Segments); n > 0 {
			seg = p.Segments[n-1]
		}
		if seg == nil || seg.Gen != gen {
			seg = &Segment{Gen: gen}
			p.Segments = append(p.Segments, seg)
		}
		if ev.Type == obs.EvSend {
			tl.sent[genMsg{gen, ev.Msg}] = ev.View
		}
		if ev.Type == obs.EvInstall {
			// A re-installed view id (the reconciliation fast path
			// re-delivers Install packets, and a re-send can race the
			// original) is idempotent at the process: drop the duplicate
			// from the segment so per-segment invariants see each
			// installed view once. It stays in tl.Events — the summary
			// still counts it, and Views dedups by id anyway.
			if ev.Round > 0 && ev.Round == seg.installRound && seg.lastInstallView == ev.View {
				continue
			}
			seg.installRound, seg.lastInstallView = ev.Round, ev.View
		}
		seg.Events = append(seg.Events, ev)
	}
	return tl
}

// pids returns the process ids in sorted order, for deterministic
// iteration.
func (tl *Timeline) pids() []string {
	out := make([]string, 0, len(tl.Procs))
	for pid := range tl.Procs {
		out = append(out, pid)
	}
	sort.Strings(out)
	return out
}

// genView keys cross-process state by (generation, view id): the same
// view string in two generations is two unrelated views.
type genView struct {
	gen  int
	view string
}

func (tl *Timeline) summary() Summary {
	s := Summary{
		Events: len(tl.Events),
		Runs:   tl.Runs,
		Procs:  len(tl.Procs),
		Counts: make(map[obs.EventType]int),
	}
	views := make(map[genView]struct{})
	gen := 0
	for _, ev := range tl.Events {
		s.Counts[ev.Type]++
		switch ev.Type {
		case obs.EvRun:
			gen++
		case obs.EvInstall:
			views[genView{gen, ev.View}] = struct{}{}
		}
	}
	s.Views = len(views)
	return s
}
