package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// TestBookkeepingBoundedByViewAge runs one long-lived view and checks
// that what a process retains does not depend on how many messages the
// view has carried: the flush buffer drains to zero and the live heap
// stays where it was after the first thousand.
func TestBookkeepingBoundedByViewAge(t *testing.T) {
	const (
		members = 3
		total   = 50_000
		batch   = 500
		slack   = 4 << 20
	)
	n := newNet(t, 35)
	// The test needs one view for its whole length: no false suspicion
	// when the senders saturate a small machine.
	opts := testOpts()
	opts.SuspectAfter = time.Second
	var procs []*Process
	var read [members]atomic.Int64
	for i := 0; i < members; i++ {
		p, err := Start(n.tr, n.reg, siteName(i), opts)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		// Count and discard: a sink that kept the events would be the
		// growth this test looks for.
		go func(i int) {
			for ev := range p.Events() {
				if _, ok := ev.(MsgEvent); ok {
					read[i].Add(1)
				}
			}
		}(i)
		procs = append(procs, p)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Crash()
		}
	})
	view := waitConverged(t, procs, convergeBudget)

	payload := make([]byte, 128)
	sendUpTo := func(sent, upTo int) {
		for sent < upTo {
			for i := 0; i < batch; i++ {
				if err := procs[(sent+i)%members].Multicast(payload); err != nil {
					t.Fatalf("Multicast: %v", err)
				}
			}
			sent += batch
			eventually(t, 10*time.Second, "batch read everywhere", func() bool {
				for i := range read {
					if read[i].Load() < int64(sent) {
						return false
					}
				}
				return true
			})
		}
	}
	settled := func() uint64 {
		eventually(t, 5*time.Second, "flush buffers drained", func() bool {
			for _, p := range procs {
				if st := p.StatusSnapshot(); st.UnstableMsgs != 0 || st.CausalPending != 0 {
					return false
				}
			}
			return true
		})
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	sendUpTo(0, 1000)
	early := settled()
	sendUpTo(1000, total)
	late := settled()

	if v := procs[0].CurrentView(); v.ID != view.ID {
		t.Fatalf("view changed during the run (%v -> %v); the test needs one view", view.ID, v.ID)
	}
	for _, p := range procs {
		if s := p.Stats(); s.MsgsDelivered != total || s.StableMsgsPruned != total {
			t.Errorf("%v delivered %d and pruned %d of %d", p.PID(), s.MsgsDelivered, s.StableMsgsPruned, total)
		}
	}
	t.Logf("heap in use: %d KiB after 1000 multicasts, %d KiB after %d", early>>10, late>>10, total)
	if late > early+slack {
		t.Errorf("heap in use grew from %d KiB after 1000 multicasts to %d KiB after %d", early>>10, late>>10, total)
	}
}
