package tracecheck

import (
	"fmt"

	"repro/internal/obs"
)

// Integrity checks P2.3: a process delivers a message at most once, and
// only a message some process sent. Unicasts are covered.
type Integrity struct{}

// Name implements Checker.
func (Integrity) Name() string { return "integrity" }

// Check implements Checker.
func (Integrity) Check(tl *Timeline) []Violation {
	var out []Violation
	for _, pid := range tl.pids() {
		for _, seg := range tl.Procs[pid].Segments {
			seen := make(map[string]struct{})
			for _, ev := range seg.Events {
				if ev.Type != obs.EvDeliver {
					continue
				}
				if _, dup := seen[ev.Msg]; dup {
					out = append(out, Violation{
						Checker: "integrity", PID: pid, View: ev.View, Seq: ev.Seq,
						Msg: fmt.Sprintf("delivered %s twice", ev.Msg),
					})
				}
				seen[ev.Msg] = struct{}{}
				if _, ok := tl.sent[genMsg{seg.Gen, ev.Msg}]; !ok {
					out = append(out, Violation{
						Checker: "integrity", PID: pid, View: ev.View, Seq: ev.Seq,
						Msg: fmt.Sprintf("delivered %s, which nobody sent", ev.Msg),
					})
				}
			}
		}
	}
	return out
}

// Uniqueness checks P2.2: every process delivers a message in the view
// it was sent in, hence in one view only. A delivery of a message the
// trace never saw sent is Integrity's finding, not this checker's.
type Uniqueness struct{}

// Name implements Checker.
func (Uniqueness) Name() string { return "uniqueness" }

// Check implements Checker.
func (Uniqueness) Check(tl *Timeline) []Violation {
	var out []Violation
	for _, pid := range tl.pids() {
		for _, seg := range tl.Procs[pid].Segments {
			for _, ev := range seg.Events {
				if ev.Type != obs.EvDeliver {
					continue
				}
				if origin, ok := tl.sent[genMsg{seg.Gen, ev.Msg}]; ok && origin != ev.View {
					out = append(out, Violation{
						Checker: "uniqueness", PID: pid, View: ev.View, Seq: ev.Seq,
						Msg: fmt.Sprintf("%s sent in %s but delivered in %s", ev.Msg, origin, ev.View),
					})
				}
			}
		}
	}
	return out
}
