package tracecheck

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ids"
	"repro/internal/obs"
)

// Cut checks P6.2: every e-view change defines a consistent cut. Each
// process's vector at the instant it applies change n of a view is
// rebuilt from the stamps of its deliveries in that view (reset at the
// install; a flush delivery precedes the install event and belongs to
// the old view, so only deliveries whose View is the installed one
// count) merged with the change's own stamp; the vectors of all
// processes applying the same change must form a consistent cut.
// Unicast deliveries carry no stamp and stay outside the property.
type Cut struct{}

// Name implements Checker.
func (Cut) Name() string { return "cut" }

// Check implements Checker.
func (Cut) Check(tl *Timeline) []Violation {
	type cutKey struct {
		gv genView
		n  int
	}
	cuts := make(map[cutKey]map[ids.PID]clock.Vector)
	var keys []cutKey
	var out []Violation
	for _, pid := range tl.pids() {
		self, pidErr := ids.ParsePID(pid)
		for _, seg := range tl.Procs[pid].Segments {
			cur, vc := "", clock.NewVector()
			for _, ev := range seg.Events {
				switch {
				case ev.Type == obs.EvInstall:
					cur, vc = ev.View, clock.NewVector()
					continue
				case ev.Type == obs.EvEChange, ev.Type == obs.EvDeliver && ev.View == cur:
				default:
					continue
				}
				if ev.Stamp != "" {
					stamp, err := clock.ParseVector(ev.Stamp)
					if err != nil {
						out = append(out, Violation{Checker: "cut", PID: pid, View: ev.View, Seq: ev.Seq, Msg: err.Error()})
						continue
					}
					vc.Merge(stamp)
				}
				if ev.Type != obs.EvEChange {
					continue
				}
				if pidErr != nil {
					out = append(out, Violation{Checker: "cut", PID: pid, View: ev.View, Seq: ev.Seq, Msg: pidErr.Error()})
					continue
				}
				key := cutKey{genView{seg.Gen, ev.View}, ev.N}
				if cuts[key] == nil {
					cuts[key] = make(map[ids.PID]clock.Vector)
					keys = append(keys, key)
				}
				cuts[key][self] = vc.Clone()
			}
		}
	}
	for _, key := range keys {
		if !clock.ConsistentCut(cuts[key]) {
			out = append(out, Violation{
				Checker: "cut", View: key.gv.view,
				Msg: fmt.Sprintf("e-change %d is not a consistent cut: %v", key.n, cuts[key]),
			})
		}
	}
	return out
}
