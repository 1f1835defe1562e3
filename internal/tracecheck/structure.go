package tracecheck

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Structure checks the structural half of enriched view synchrony at
// trace level:
//
//   - install agreement: every process installing the same view
//     reports the same subview/sv-set grouping (the Struct summary);
//   - survival (P6.3): across one process's transition v -> v', two
//     processes that shared a subview (sv-set) in the final structure
//     of v and both survive into v' still share one in v'. A survivor
//     that reached v' through a different predecessor view — or whose
//     path the trace does not determine unambiguously — is exempt, as
//     its grouping legitimately shrank along its own path.
//
// The final structure of v is its install-time grouping updated by
// every e-change applied in v (each EvEChange carries the resulting
// summary).
type Structure struct{}

// Name implements Checker.
func (Structure) Name() string { return "structure" }

// grouping is a parsed Struct summary: which subview and sv-set index
// each member belongs to. Indexes are positional within the summary —
// the view-scoped identifiers are deliberately absent from traces.
type grouping struct {
	subviewOf map[string]int
	svsetOf   map[string]int
	// names counts member names, repeats included; it exceeds
	// len(subviewOf) when the summary is not a partition.
	names int
}

func parseGrouping(s string) grouping {
	g := grouping{subviewOf: make(map[string]int), svsetOf: make(map[string]int)}
	if s == "" {
		return g
	}
	sv := 0
	for ssi, ss := range strings.Split(s, "|") {
		for _, subview := range strings.Split(ss, "+") {
			for _, m := range strings.Split(subview, ",") {
				if m == "" {
					continue
				}
				g.names++
				g.subviewOf[m] = sv
				g.svsetOf[m] = ssi
			}
			sv++
		}
	}
	return g
}

// procView keys per-process, per-view state within a generation.
type procView struct {
	gen  int
	pid  string
	view string
}

// Check implements Checker.
func (Structure) Check(tl *Timeline) []Violation {
	var out []Violation

	// Install agreement on the grouping summary.
	type installRec struct {
		pid  string
		seq  uint64
		strc string
	}
	installs := make(map[genView][]installRec)
	var views []genView
	// predOf records every predecessor view observed for a (pid, view)
	// install; more than one means the trace is ambiguous about the
	// path (aliasing without run markers) and survival skips the pid.
	predOf := make(map[procView]map[string]struct{})
	for _, pid := range tl.pids() {
		for _, seg := range tl.Procs[pid].Segments {
			cur := ""
			for _, ev := range seg.Events {
				if ev.Type != obs.EvInstall {
					continue
				}
				gv := genView{seg.Gen, ev.View}
				if len(installs[gv]) == 0 {
					views = append(views, gv)
				}
				installs[gv] = append(installs[gv], installRec{pid, ev.Seq, ev.Struct})
				if cur != "" {
					key := procView{seg.Gen, pid, ev.View}
					if predOf[key] == nil {
						predOf[key] = make(map[string]struct{})
					}
					predOf[key][cur] = struct{}{}
				}
				cur = ev.View
			}
		}
	}
	for _, gv := range views {
		recs := installs[gv]
		ref := recs[0]
		for _, rec := range recs[1:] {
			if rec.strc != ref.strc {
				out = append(out, Violation{
					Checker: "structure", PID: rec.pid, View: gv.view, Seq: rec.seq,
					Msg: fmt.Sprintf("installed structure %q but %s installed %q", rec.strc, ref.pid, ref.strc),
				})
			}
		}
	}

	// samePath: did y reach next from old, as far as the trace shows?
	samePath := func(gen int, y, old, next string) bool {
		preds, ok := predOf[procView{gen, y, next}]
		if !ok {
			return true // no recorded transition: stay conservative
		}
		if len(preds) != 1 {
			return false // ambiguous path: exempt
		}
		_, same := preds[old]
		return same
	}

	// Survival across each process's own transitions.
	for _, pid := range tl.pids() {
		for _, seg := range tl.Procs[pid].Segments {
			cur, curStruct := "", ""
			for _, ev := range seg.Events {
				switch ev.Type {
				case obs.EvEChange:
					if ev.View == cur && ev.Struct != "" {
						curStruct = ev.Struct
					}
				case obs.EvInstall:
					if cur != "" {
						out = append(out, checkSurvival(seg.Gen, pid, cur, ev, curStruct, samePath)...)
					}
					cur, curStruct = ev.View, ev.Struct
				}
			}
		}
	}
	return out
}

// checkSurvival compares the final grouping of view from with the
// install grouping of the view in ev, over members present in both.
func checkSurvival(gen int, pid, from string, ev obs.Event, fromStruct string,
	samePath func(gen int, y, old, next string) bool) []Violation {
	old, next := parseGrouping(fromStruct), parseGrouping(ev.Struct)
	var survivors []string
	for m := range old.subviewOf {
		if _, ok := next.subviewOf[m]; ok {
			survivors = append(survivors, m)
		}
	}
	sort.Strings(survivors)
	var out []Violation
	for i := 0; i < len(survivors); i++ {
		for j := i + 1; j < len(survivors); j++ {
			x, y := survivors[i], survivors[j]
			if !samePath(gen, x, from, ev.View) || !samePath(gen, y, from, ev.View) {
				continue
			}
			if old.subviewOf[x] == old.subviewOf[y] && next.subviewOf[x] != next.subviewOf[y] {
				out = append(out, Violation{
					Checker: "structure", PID: pid, View: from, Seq: ev.Seq,
					Msg: fmt.Sprintf("%s and %s shared a subview in %s but are split in %s",
						x, y, from, ev.View),
				})
			}
			if old.svsetOf[x] == old.svsetOf[y] && next.svsetOf[x] != next.svsetOf[y] {
				out = append(out, Violation{
					Checker: "structure", PID: pid, View: from, Seq: ev.Seq,
					Msg: fmt.Sprintf("%s and %s shared an sv-set in %s but are split in %s",
						x, y, from, ev.View),
				})
			}
		}
	}
	return out
}
