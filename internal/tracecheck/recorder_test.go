package tracecheck

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/evs"
	"repro/internal/ids"
	"repro/internal/obs"
)

// These tests drive the Recorder through the notes a process would emit,
// with hand-built histories, one violating history per property.

var (
	pa = ids.PID{Site: "a", Inc: 1}
	pb = ids.PID{Site: "b", Inc: 1}
	pc = ids.PID{Site: "c", Inc: 1}
)

func vid(e uint64, c ids.PID) ids.ViewID { return ids.ViewID{Epoch: e, Coord: c} }

func eview(id ids.ViewID, members ...ids.PID) core.EView {
	comp := ids.NewPIDSet(members...)
	return core.EView{ID: id, Members: comp.Sorted(), Structure: evs.Flat(id, comp)}
}

func msg(sender ids.PID, seq uint64, view ids.ViewID) core.MsgEvent {
	return core.MsgEvent{
		ID:    ids.MsgID{Sender: sender, Seq: seq},
		From:  sender,
		View:  view,
		Stamp: clock.Vector{sender: seq},
	}
}

func onSend(r *Recorder, self ids.PID, id ids.MsgID, view ids.ViewID) {
	r.Observe(core.Note{Kind: core.NoteSend, Self: self, Msg: id, View: view})
}

func onDeliver(r *Recorder, self ids.PID, m core.MsgEvent) {
	r.Observe(core.Note{Kind: core.NoteDeliver, Self: self, Msg: m.ID, View: m.View, Stamp: m.Stamp})
}

func onView(r *Recorder, self ids.PID, ev core.ViewEvent) {
	r.Observe(core.Note{Kind: core.NoteView, Self: self, EView: ev.EView})
}

func onEChange(r *Recorder, self ids.PID, ev core.EChangeEvent) {
	r.Observe(core.Note{Kind: core.NoteEChange, Self: self, EView: ev.EView, Change: ev.Kind, N: int(ev.Seq),
		NewSubview: ev.NewSubview, NewSVSet: ev.NewSVSet, Stamp: ev.Stamp})
}

// sendAndDeliver records a send plus delivery at each given process.
func sendAndDeliver(r *Recorder, m core.MsgEvent, at ...ids.PID) {
	onSend(r, m.From, m.ID, m.View)
	for _, p := range at {
		onDeliver(r, p, m)
	}
}

func errorsContaining(errs []error, substr string) int {
	n := 0
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			n++
		}
	}
	return n
}

func TestVerifyCleanTrace(t *testing.T) {
	r := NewRecorder()
	v1 := vid(1, pa)
	v2 := vid(2, pa)
	onView(r, pa, core.ViewEvent{EView: eview(v1, pa)})
	onView(r, pb, core.ViewEvent{EView: eview(vid(1, pb), pb)})
	// both install v2 = {a,b}
	onView(r, pa, core.ViewEvent{EView: eview(v2, pa, pb)})
	onView(r, pb, core.ViewEvent{EView: eview(v2, pa, pb)})
	m := msg(pa, 1, v2)
	sendAndDeliver(r, m, pa, pb)
	if errs := r.Verify(); len(errs) != 0 {
		t.Fatalf("clean trace produced errors: %v", errs)
	}
	s := r.Report().Summary
	if s.Procs != 2 || s.Counts[obs.EvSend] != 1 || s.Counts[obs.EvDeliver] != 2 || s.Counts[obs.EvInstall] != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestIntegrityCatchesDuplicateAndGhost(t *testing.T) {
	r := NewRecorder()
	v1 := vid(1, pa)
	onView(r, pa, core.ViewEvent{EView: eview(v1, pa)})
	m := msg(pa, 1, v1)
	onSend(r, pa, m.ID, v1)
	onDeliver(r, pa, m)
	onDeliver(r, pa, m) // duplicate
	ghost := msg(pb, 9, v1)
	onDeliver(r, pa, ghost) // never sent
	errs := r.Verify()
	if errorsContaining(errs, "twice") != 1 {
		t.Errorf("duplicate not caught: %v", errs)
	}
	if errorsContaining(errs, "nobody sent") != 1 {
		t.Errorf("ghost not caught: %v", errs)
	}
}

func TestUniquenessCatchesCrossViewDelivery(t *testing.T) {
	r := NewRecorder()
	v1, v2 := vid(1, pa), vid(2, pa)
	onView(r, pa, core.ViewEvent{EView: eview(v1, pa, pb)})
	onView(r, pb, core.ViewEvent{EView: eview(v1, pa, pb)})
	m := msg(pa, 1, v1)
	onSend(r, pa, m.ID, v1)
	onDeliver(r, pa, m)
	wrong := m
	wrong.View = v2
	onDeliver(r, pb, wrong)
	errs := r.Verify()
	if errorsContaining(errs, "[uniqueness]") == 0 {
		t.Errorf("cross-view delivery not caught: %v", errs)
	}
}

func TestAgreementCatchesDivergentDelivery(t *testing.T) {
	r := NewRecorder()
	v1, v2 := vid(1, pa), vid(2, pa)
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: eview(v1, pa, pb)})
	}
	m := msg(pa, 1, v1)
	onSend(r, pa, m.ID, v1)
	onDeliver(r, pa, m) // only a delivers m
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: eview(v2, pa, pb)})
	}
	errs := r.Verify()
	if errorsContaining(errs, "[agreement]") == 0 {
		t.Errorf("divergent delivery across shared transition not caught: %v", errs)
	}
}

func TestAgreementIgnoresDifferentNextViews(t *testing.T) {
	// a goes v1->v2, b goes v1->v3 (concurrent partitions): no agreement
	// constraint applies.
	r := NewRecorder()
	v1, v2, v3 := vid(1, pa), vid(2, pa), vid(2, pb)
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: eview(v1, pa, pb)})
	}
	m := msg(pa, 1, v1)
	onSend(r, pa, m.ID, v1)
	onDeliver(r, pa, m)
	onView(r, pa, core.ViewEvent{EView: eview(v2, pa)})
	onView(r, pb, core.ViewEvent{EView: eview(v3, pb)})
	if errs := r.Verify(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
}

func TestViewOrderCatchesRegression(t *testing.T) {
	r := NewRecorder()
	onView(r, pa, core.ViewEvent{EView: eview(vid(2, pa), pa)})
	onView(r, pa, core.ViewEvent{EView: eview(vid(1, pa), pa)})
	errs := r.Verify()
	if errorsContaining(errs, "[vieworder]") == 0 {
		t.Errorf("view regression not caught: %v", errs)
	}
}

func TestViewOrderCatchesNonMembership(t *testing.T) {
	r := NewRecorder()
	onView(r, pa, core.ViewEvent{EView: eview(vid(1, pb), pb)}) // a installs a view without a
	errs := r.Verify()
	if errorsContaining(errs, "is not a member") == 0 {
		t.Errorf("non-membership not caught: %v", errs)
	}
}

func TestEChangeTotalOrderCatchesDivergence(t *testing.T) {
	r := NewRecorder()
	v1 := vid(1, pa)
	ev := eview(v1, pa, pb)
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: ev})
	}
	svX := ids.SubviewID{Origin: v1, Seq: 7}
	svY := ids.SubviewID{Origin: v1, Seq: 8}
	onEChange(r, pa, core.EChangeEvent{EView: ev, Kind: core.EChangeSubviewMerge, Seq: 1, NewSubview: svX})
	onEChange(r, pb, core.EChangeEvent{EView: ev, Kind: core.EChangeSubviewMerge, Seq: 1, NewSubview: svY})
	errs := r.Verify()
	if errorsContaining(errs, "[echange]") == 0 {
		t.Errorf("diverging e-change not caught: %v", errs)
	}
}

func TestEChangeTotalOrderAllowsPrefixes(t *testing.T) {
	r := NewRecorder()
	v1 := vid(1, pa)
	ev := eview(v1, pa, pb)
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: ev})
	}
	sv := ids.SubviewID{Origin: v1, Seq: 7}
	ss := ids.SVSetID{Origin: v1, Seq: 7}
	onEChange(r, pa, core.EChangeEvent{EView: ev, Kind: core.EChangeSVSetMerge, Seq: 1, NewSVSet: ss})
	onEChange(r, pb, core.EChangeEvent{EView: ev, Kind: core.EChangeSVSetMerge, Seq: 1, NewSVSet: ss})
	onEChange(r, pa, core.EChangeEvent{EView: ev, Kind: core.EChangeSubviewMerge, Seq: 2, NewSubview: sv})
	// pb applies only the first change (it partitioned away): legal prefix.
	if errs := r.Verify(); errorsContaining(errs, "[echange]") != 0 {
		t.Fatalf("prefix wrongly flagged: %v", errs)
	}
}

func TestEChangeCutCatchesInconsistency(t *testing.T) {
	r := NewRecorder()
	v1 := vid(1, pa)
	ev := eview(v1, pa, pb)
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: ev})
	}
	// b delivered a's message m1 before applying change 1; a applies
	// change 1 before having sent m1 per its own vector. Reconstructed
	// cut: a's vector {a:0...}, b's vector {a:1} -> inconsistent.
	m1 := msg(pa, 1, v1)
	onSend(r, pa, m1.ID, v1)
	onDeliver(r, pb, m1)
	chStamp := clock.Vector{pb: 1}
	onEChange(r, pa, core.EChangeEvent{EView: ev, Kind: core.EChangeSVSetMerge, Seq: 1, Stamp: chStamp})
	bStamp := clock.Vector{pb: 1} // b's own view of the change
	ech := core.EChangeEvent{EView: ev, Kind: core.EChangeSVSetMerge, Seq: 1, Stamp: bStamp}
	onEChange(r, pb, ech)
	errs := r.Verify()
	if errorsContaining(errs, "consistent cut") == 0 {
		t.Errorf("inconsistent cut not caught: %v", errs)
	}
}

func TestStructurePreservationCatchesSplit(t *testing.T) {
	r := NewRecorder()
	v1, v2 := vid(1, pa), vid(2, pa)
	comp := ids.NewPIDSet(pa, pb)
	// v1: a,b share a subview (Flat).
	old := core.EView{ID: v1, Members: comp.Sorted(), Structure: evs.Flat(v1, comp)}
	// v2: a,b in separate subviews (Compose with no predecessors).
	split := core.EView{ID: v2, Members: comp.Sorted(), Structure: evs.Compose(v2, comp, nil)}
	onView(r, pa, core.ViewEvent{EView: old})
	onView(r, pa, core.ViewEvent{EView: split})
	errs := r.Verify()
	if errorsContaining(errs, "[structure]") == 0 {
		t.Errorf("structure split not caught: %v", errs)
	}
}

func TestStructurePreservationExemptsDifferentPaths(t *testing.T) {
	// a transitions v1 -> v3 directly; b goes v1 -> v2(singleton) -> v3.
	// b's grouping legitimately shrank through its singleton view, so a
	// seeing b in a different subview in v3 is NOT a violation.
	r := NewRecorder()
	v1, v2, v3 := vid(1, pa), vid(2, pb), vid(3, pa)
	comp13 := ids.NewPIDSet(pa, pb)
	shared := core.EView{ID: v1, Members: comp13.Sorted(), Structure: evs.Flat(v1, comp13)}
	split := core.EView{ID: v3, Members: comp13.Sorted(), Structure: evs.Compose(v3, comp13, nil)}

	onView(r, pa, core.ViewEvent{EView: shared})
	onView(r, pa, core.ViewEvent{EView: split})

	onView(r, pb, core.ViewEvent{EView: shared})
	onView(r, pb, core.ViewEvent{EView: eview(v2, pb)}) // b alone in between
	onView(r, pb, core.ViewEvent{EView: split})

	errs := r.Verify()
	if n := errorsContaining(errs, "[structure]"); n != 0 {
		t.Errorf("different-path split wrongly flagged: %v", errs)
	}
}

func TestStructurePreservationStillCatchesSamePathSplit(t *testing.T) {
	// Both a and b transition v1 -> v3 directly; splitting them is a
	// real P6.3 violation.
	r := NewRecorder()
	v1, v3 := vid(1, pa), vid(3, pa)
	comp := ids.NewPIDSet(pa, pb)
	shared := core.EView{ID: v1, Members: comp.Sorted(), Structure: evs.Flat(v1, comp)}
	split := core.EView{ID: v3, Members: comp.Sorted(), Structure: evs.Compose(v3, comp, nil)}
	for _, p := range []ids.PID{pa, pb} {
		onView(r, p, core.ViewEvent{EView: shared})
		onView(r, p, core.ViewEvent{EView: split})
	}
	errs := r.Verify()
	if errorsContaining(errs, "[structure]") == 0 {
		t.Errorf("same-path split not caught: %v", errs)
	}
}

func TestStructureValidationCatchesCorruptEView(t *testing.T) {
	r := NewRecorder()
	v1 := vid(1, pa)
	bad := core.EView{
		ID:        v1,
		Members:   []ids.PID{pa, pb},
		Structure: evs.Flat(v1, ids.NewPIDSet(pa)), // misses pb
	}
	onView(r, pa, core.ViewEvent{EView: bad})
	errs := r.Verify()
	if errorsContaining(errs, "[vieworder]") == 0 {
		t.Errorf("invalid structure not caught: %v", errs)
	}
}
