package clock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

var (
	pa = ids.PID{Site: "a", Inc: 1}
	pb = ids.PID{Site: "b", Inc: 1}
	pc = ids.PID{Site: "c", Inc: 1}
)

func TestLamportTickObserve(t *testing.T) {
	var l Lamport
	if l.Now() != 0 {
		t.Fatal("fresh Lamport clock not zero")
	}
	if l.Tick() != 1 || l.Tick() != 2 {
		t.Fatal("Tick must increment by one")
	}
	if got := l.Observe(10); got != 11 {
		t.Fatalf("Observe(10) = %d, want 11", got)
	}
	if got := l.Observe(3); got != 12 {
		t.Fatalf("Observe(3) = %d, want 12 (must not go backward)", got)
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector()
	v.Tick(pa)
	v.Tick(pa)
	v.Tick(pb)
	if v.Get(pa) != 2 || v.Get(pb) != 1 || v.Get(pc) != 0 {
		t.Fatalf("components wrong: %v", v)
	}
	if got := v.String(); got != "[a#1:2 b#1:1]" {
		t.Errorf("String = %q", got)
	}
}

func TestVectorMergeAndOrder(t *testing.T) {
	v := Vector{pa: 2, pb: 1}
	w := Vector{pa: 1, pb: 3}
	if !v.Concurrent(w) {
		t.Error("v and w should be concurrent")
	}
	m := v.Clone().Merge(w)
	if m.Get(pa) != 2 || m.Get(pb) != 3 {
		t.Errorf("Merge = %v", m)
	}
	if !v.LE(m) || !w.LE(m) {
		t.Error("operands must be <= merge")
	}
	if !v.Less(m) {
		t.Error("v < merge expected (merge differs from v)")
	}
	if m.Less(m) {
		t.Error("Less must be irreflexive")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone must be Equal")
	}
}

func TestVectorEqualTreatsAbsentAsZero(t *testing.T) {
	v := Vector{pa: 1, pb: 0}
	w := Vector{pa: 1}
	if !v.Equal(w) || !w.Equal(v) {
		t.Error("explicit zero and absent component must compare equal")
	}
}

func TestVectorRestrict(t *testing.T) {
	v := Vector{pa: 1, pb: 2, pc: 3}
	r := v.Restrict(ids.NewPIDSet(pa, pc))
	if r.Get(pa) != 1 || r.Get(pb) != 0 || r.Get(pc) != 3 {
		t.Errorf("Restrict = %v", r)
	}
	if v.Get(pb) != 2 {
		t.Error("Restrict must not mutate the receiver")
	}
}

func TestVectorPartialOrderProperties(t *testing.T) {
	gen := func(r *rand.Rand) Vector {
		v := NewVector()
		for _, p := range []ids.PID{pa, pb, pc} {
			if r.Intn(2) == 1 {
				v[p] = uint64(r.Intn(5))
			}
		}
		return v
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		v, w, x := gen(r), gen(r), gen(r)
		if v.LE(w) && w.LE(x) && !v.LE(x) {
			t.Fatalf("LE not transitive: %v %v %v", v, w, x)
		}
		if v.LE(w) && w.LE(v) && !v.Equal(w) {
			t.Fatalf("LE antisymmetry violated: %v %v", v, w)
		}
		if v.Concurrent(w) != (!v.LE(w) && !w.LE(v)) {
			t.Fatalf("Concurrent inconsistent with LE: %v %v", v, w)
		}
	}
}

func TestVectorMergeIsLUB(t *testing.T) {
	// Property: merge(v,w) is the least upper bound.
	f := func(av, aw, bv, bw, cv, cw uint16) bool {
		v := Vector{pa: uint64(av), pb: uint64(bv), pc: uint64(cv)}
		w := Vector{pa: uint64(aw), pb: uint64(bw), pc: uint64(cw)}
		m := v.Clone().Merge(w)
		if !v.LE(m) || !w.LE(m) {
			return false
		}
		// any upper bound u of v,w satisfies m <= u
		u := v.Clone().Merge(w).Tick(pa)
		return m.LE(u)
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(5)), MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// testMsg implements CausalMsg for buffer tests.
type testMsg struct {
	sender ids.PID
	stamp  Vector
	tag    string
}

func (m testMsg) CausalSender() ids.PID { return m.sender }
func (m testMsg) CausalStamp() Vector   { return m.stamp }

func TestCausalBufferInOrder(t *testing.T) {
	b := NewCausalBuffer[testMsg]()
	m1 := testMsg{pa, Vector{pa: 1}, "m1"}
	m2 := testMsg{pa, Vector{pa: 2}, "m2"}
	if got := b.Offer(m1); len(got) != 1 || got[0].tag != "m1" {
		t.Fatalf("m1 should deliver immediately, got %v", got)
	}
	if got := b.Offer(m2); len(got) != 1 || got[0].tag != "m2" {
		t.Fatalf("m2 should deliver, got %v", got)
	}
}

func TestCausalBufferReordersSenderGap(t *testing.T) {
	b := NewCausalBuffer[testMsg]()
	m1 := testMsg{pa, Vector{pa: 1}, "m1"}
	m2 := testMsg{pa, Vector{pa: 2}, "m2"}
	if got := b.Offer(m2); len(got) != 0 {
		t.Fatalf("m2 must be buffered until m1 arrives, got %v", got)
	}
	got := b.Offer(m1)
	if len(got) != 2 || got[0].tag != "m1" || got[1].tag != "m2" {
		t.Fatalf("want [m1 m2], got %v", got)
	}
	if b.Pending() != 0 {
		t.Fatal("pending not drained")
	}
}

func TestCausalBufferCrossSenderDependency(t *testing.T) {
	// b multicasts m2 after delivering a's m1: m2 carries {a:1, b:1}.
	// A receiver that gets m2 first must hold it until m1 arrives.
	buf := NewCausalBuffer[testMsg]()
	m1 := testMsg{pa, Vector{pa: 1}, "m1"}
	m2 := testMsg{pb, Vector{pa: 1, pb: 1}, "m2"}
	if got := buf.Offer(m2); len(got) != 0 {
		t.Fatalf("m2 depends on m1, must buffer; got %v", got)
	}
	got := buf.Offer(m1)
	if len(got) != 2 || got[0].tag != "m1" || got[1].tag != "m2" {
		t.Fatalf("want [m1 m2], got %v", got)
	}
}

func TestCausalBufferRecordLocal(t *testing.T) {
	// The local process is pa and multicast m1 itself (self-delivered).
	buf := NewCausalBuffer[testMsg]()
	buf.RecordLocal(Vector{pa: 1})
	m2 := testMsg{pb, Vector{pa: 1, pb: 1}, "m2"}
	if got := buf.Offer(m2); len(got) != 1 || got[0].tag != "m2" {
		t.Fatalf("m2 should deliver after local record, got %v", got)
	}
}

func TestCausalBufferConcurrentMessagesDeliverAnyOrder(t *testing.T) {
	buf := NewCausalBuffer[testMsg]()
	ma := testMsg{pa, Vector{pa: 1}, "ma"}
	mb := testMsg{pb, Vector{pb: 1}, "mb"}
	if got := buf.Offer(mb); len(got) != 1 {
		t.Fatalf("concurrent mb should deliver, got %v", got)
	}
	if got := buf.Offer(ma); len(got) != 1 {
		t.Fatalf("concurrent ma should deliver, got %v", got)
	}
}

func TestCausalBufferDrain(t *testing.T) {
	buf := NewCausalBuffer[testMsg]()
	m3 := testMsg{pa, Vector{pa: 3}, "m3"}
	buf.Offer(m3)
	got := buf.Drain()
	if len(got) != 1 || got[0].tag != "m3" || buf.Pending() != 0 {
		t.Fatalf("Drain = %v, pending %d", got, buf.Pending())
	}
}

func TestCausalBufferRejectsDuplicates(t *testing.T) {
	buf := NewCausalBuffer[testMsg]()
	m1 := testMsg{pa, Vector{pa: 1}, "m1"}
	m3 := testMsg{pa, Vector{pa: 3}, "m3"}
	if got := buf.Offer(m1); len(got) != 1 {
		t.Fatalf("m1 should deliver, got %v", got)
	}
	// A duplicate of a delivered message: at or below the sender's mark.
	if got := buf.Offer(m1); len(got) != 0 || buf.Pending() != 0 {
		t.Fatalf("delivered duplicate: got %v, pending %d", got, buf.Pending())
	}
	// A duplicate of a pending message is not buffered twice.
	buf.Offer(m3)
	if got := buf.Offer(m3); len(got) != 0 || buf.Pending() != 1 {
		t.Fatalf("pending duplicate: got %v, pending %d", got, buf.Pending())
	}
	got := buf.Offer(testMsg{pa, Vector{pa: 2}, "m2"})
	if len(got) != 2 || got[0].tag != "m2" || got[1].tag != "m3" || buf.Pending() != 0 {
		t.Fatalf("want [m2 m3], got %v, pending %d", got, buf.Pending())
	}
	// A locally recorded multicast coming back is a duplicate too.
	buf.RecordLocal(Vector{pa: 3, pb: 1})
	if got := buf.Offer(testMsg{pb, Vector{pa: 3, pb: 1}, "own"}); len(got) != 0 || buf.Pending() != 0 {
		t.Fatalf("reflected local message: got %v, pending %d", got, buf.Pending())
	}
}

func TestCausalDeliveryRandomPermutations(t *testing.T) {
	for _, copies := range []int{1, 2} {
		t.Run(fmt.Sprintf("copies=%d", copies), func(t *testing.T) { causalPermutations(t, copies) })
	}
}

// causalPermutations offers a random causal history in random order,
// every message `copies` times, and requires each to be delivered once,
// in causal order.
func causalPermutations(t *testing.T, copies int) {
	// Build a causal history of 3 senders, 5 messages each, where each
	// message depends on everything its sender delivered so far; then
	// offer them in random order and require delivery in causal order.
	r := rand.New(rand.NewSource(6))
	senders := []ids.PID{pa, pb, pc}
	type rec struct {
		msg testMsg
	}
	var history []rec
	clocks := map[ids.PID]Vector{pa: NewVector(), pb: NewVector(), pc: NewVector()}
	for i := 0; i < 15; i++ {
		s := senders[r.Intn(len(senders))]
		// sender observes a random subset of previously sent messages
		for _, h := range history {
			if r.Intn(2) == 0 {
				clocks[s].Merge(h.msg.stamp)
			}
		}
		clocks[s].Tick(s)
		history = append(history, rec{testMsg{s, clocks[s].Clone(), ""}})
	}
	for trial := 0; trial < 50; trial++ {
		perm := r.Perm(copies * len(history))
		buf := NewCausalBuffer[testMsg]()
		var delivered []testMsg
		for _, i := range perm {
			delivered = append(delivered, buf.Offer(history[i%len(history)].msg)...)
		}
		if buf.Pending() != 0 {
			t.Fatalf("trial %d: %d still pending", trial, buf.Pending())
		}
		if len(delivered) != len(history) {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), len(history))
		}
		// check causal order: if stamp(i) < stamp(j) then i delivered first
		for i := range delivered {
			for j := range delivered {
				if delivered[j].stamp.Less(delivered[i].stamp) && j > i {
					t.Fatalf("trial %d: causal violation at %d,%d", trial, i, j)
				}
			}
		}
	}
}

func TestConsistentCut(t *testing.T) {
	tests := []struct {
		name string
		cut  map[ids.PID]Vector
		want bool
	}{
		{"empty", map[ids.PID]Vector{}, true},
		{"aligned", map[ids.PID]Vector{
			pa: {pa: 2, pb: 1},
			pb: {pa: 1, pb: 1},
		}, true},
		{"orphan receive", map[ids.PID]Vector{
			pa: {pa: 1},
			pb: {pa: 2, pb: 1}, // b saw a's event 2, a hasn't produced it in this cut
		}, false},
		{"symmetric exchange", map[ids.PID]Vector{
			pa: {pa: 3, pb: 2},
			pb: {pa: 3, pb: 2},
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ConsistentCut(tt.cut); got != tt.want {
				t.Errorf("ConsistentCut = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestParseVectorRoundTrip(t *testing.T) {
	udp := ids.PID{Site: "127.0.0.1:4100", Inc: 3} // a site may itself contain ':'
	for _, v := range []Vector{nil, {}, {pa: 3}, {pa: 2, pb: 1, pc: 0}, {udp: 1 << 40, pa: 1}} {
		got, err := ParseVector(v.String())
		if err != nil {
			t.Fatalf("ParseVector(%q): %v", v.String(), err)
		}
		if !got.Equal(v) || got.String() != v.String() {
			t.Fatalf("round trip of %v gave %v", v, got)
		}
	}
}

func TestParseVectorRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "[", "a#1:3", "[a#1]", "[a#1:]", "[a#1:x]", "[a:3]", "[a#0:3]",
		"[#1:3]", "[a#1:3 a#1:4]", "[a#1:-1]", "[a#1:3", "a#1:3]"} {
		if v, err := ParseVector(s); err == nil {
			t.Errorf("ParseVector(%q) = %v, want an error", s, v)
		}
	}
}

// FuzzParseVector: whatever parses must render back to something that
// parses to the same vector, and nothing may panic.
func FuzzParseVector(f *testing.F) {
	for _, s := range []string{"[]", "[a#1:3 b#1:1]", "[127.0.0.1:4100#3:1099511627776]", "[a#1:3 a#1:4]", "[ a#1:0 ]", "]["} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseVector(s)
		if err != nil {
			return
		}
		again, err := ParseVector(v.String())
		if err != nil || !again.Equal(v) || len(again) != len(v) {
			t.Fatalf("ParseVector(%q) = %v, which re-parses as %v (%v)", s, v, again, err)
		}
	})
}
