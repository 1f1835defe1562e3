package tracecheck

import (
	"fmt"

	"repro/internal/obs"
)

// ViewOrder checks each process's install history: within a generation
// the install rounds strictly increase (successive view ids at a
// process are ordered by epoch), the installer is a member of the view
// it installs, and the Struct grouping — at the install and after every
// e-change applied in the view — is a partition of exactly the view's N
// members: every way an enriched view's structure can disagree with its
// composition that a grouping summary can witness. Runs sharing a
// tracer must be separated with Tracer.MarkRun: a round regression
// inside one generation is a violation, not a seam. Fields a hand-built
// event leaves out (Round, N, Struct) are not checked.
type ViewOrder struct{}

// Name implements Checker.
func (ViewOrder) Name() string { return "vieworder" }

// Check implements Checker.
func (ViewOrder) Check(tl *Timeline) []Violation {
	var out []Violation
	for _, pid := range tl.pids() {
		for _, seg := range tl.Procs[pid].Segments {
			var cur obs.Event // the last install
			for _, ev := range seg.Events {
				bad := func(format string, args ...any) {
					out = append(out, Violation{Checker: "vieworder", PID: pid, View: ev.View, Seq: ev.Seq,
						Msg: fmt.Sprintf(format, args...)})
				}
				switch {
				case ev.Type == obs.EvInstall:
					if ev.Round > 0 && ev.Round <= cur.Round {
						bad("installed round %d after round %d (%s)", ev.Round, cur.Round, cur.View)
					}
					cur = ev
				case ev.Type == obs.EvEChange && ev.View == cur.View:
				default:
					continue
				}
				if ev.Struct == "" && cur.N == 0 {
					continue
				}
				g := parseGrouping(ev.Struct)
				switch {
				case len(g.subviewOf) != g.names:
					bad("structure %q names a member in two subviews", ev.Struct)
				case cur.N > 0 && g.names != cur.N:
					bad("structure %q groups %d member(s), the view has %d", ev.Struct, g.names, cur.N)
				}
				if _, ok := g.subviewOf[pid]; !ok {
					bad("%s is not a member of its own view's structure %q", pid, ev.Struct)
				}
			}
		}
	}
	return out
}
