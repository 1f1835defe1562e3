package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/ids"
)

func TestUniWindowReorderAndReplay(t *testing.T) {
	var w uniWindow
	// Reordered arrival inside the window: every seq is admitted once.
	for _, seq := range []uint64{5, 3, 9, 4, 1} {
		if !w.admit(seq) {
			t.Fatalf("first arrival of %d refused", seq)
		}
	}
	for _, seq := range []uint64{1, 3, 4, 5, 9} {
		if w.admit(seq) {
			t.Fatalf("duplicate of %d admitted", seq)
		}
	}
	// Seqs are not contiguous (multicasts share the counter): a late
	// arrival between two admitted ones is still new.
	if !w.admit(7) {
		t.Fatal("7 refused although never seen")
	}
	// Push the window past its size; the oldest seqs fall out.
	for seq := uint64(100); seq < 100+uniWindowSize; seq++ {
		if !w.admit(seq) {
			t.Fatalf("in-order arrival of %d refused", seq)
		}
	}
	if len(w.recent) != uniWindowSize {
		t.Fatalf("window holds %d seqs, want %d", len(w.recent), uniWindowSize)
	}
	// A replay older than the window is dropped, and so is a first
	// arrival that old (8): it can no longer be told from a replay.
	for _, seq := range []uint64{1, 9, 8} {
		if w.admit(seq) {
			t.Fatalf("%d admitted although older than the window", seq)
		}
	}
	// 50 is below everything remembered but above everything forgotten,
	// so it is known to be new; admitting it moves the floor up to it.
	if !w.admit(50) || w.admit(50) || w.admit(49) {
		t.Fatal("want 50 admitted exactly once and 49 refused after it")
	}
	// Inside the window, duplicates are still recognised exactly.
	if w.admit(100+uniWindowSize-1) || w.admit(100) {
		t.Fatal("duplicate inside the window admitted")
	}
}

func TestDropStableByComponentNotPosition(t *testing.T) {
	s := ids.PID{Site: "a", Inc: 1}
	msg := func(at uint64) pktData {
		return pktData{ID: ids.MsgID{Sender: s, Seq: 100 + at}, Stamp: clock.Vector{s: at}, Payload: make([]byte, 8)}
	}
	// Slots 3 and 6 were e-view changes: never retained.
	st := &senderState{}
	for _, at := range []uint64{1, 2, 4, 5, 7, 8, 9} {
		st.log = append(st.log, msg(at))
	}
	backing := st.log[:cap(st.log)]

	if got := st.dropStable(s, 0); got != 0 || len(st.unstable()) != 7 {
		t.Fatalf("floor 0 dropped %d, %d left", got, len(st.unstable()))
	}
	// Floor 3 names a slot that is not in the log: 1 and 2 go.
	if got := st.dropStable(s, 3); got != 2 {
		t.Fatalf("floor 3 dropped %d, want 2", got)
	}
	if got := st.dropStable(s, 5); got != 2 {
		t.Fatalf("floor 5 dropped %d, want 2", got)
	}
	if live := st.unstable(); len(live) != 3 || live[0].Stamp.Get(s) != 7 {
		t.Fatalf("left %v", live)
	}
	if got := st.dropStable(s, 9); got != 3 || len(st.unstable()) != 0 || st.head != 0 {
		t.Fatalf("floor 9 dropped %d, %d left, head %d", got, len(st.unstable()), st.head)
	}
	// Nothing dropped stays reachable through the backing array.
	for i, d := range backing {
		if d.Payload != nil || d.Stamp != nil {
			t.Fatalf("slot %d of the backing array still holds %v", i, d.ID)
		}
	}
}
