package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ids"
)

// Log is what one member incarnation delivered, recorded as it reads its
// event stream. A saturated run delivers millions of messages, so the
// log keeps, per installed view and per sender, a summary of the
// delivered sequence numbers (count, range, order-independent hash)
// instead of the messages; two members delivered the same set exactly
// when their summaries match.
type Log struct {
	Member ids.PID

	views []*viewRec
	index map[ids.ViewID]int
	// last is the highest multicast sequence number delivered per
	// sender: the run-time assigns them in send order, so a multicast
	// that does not raise it is a duplicate (P2.3) or out of order.
	last     map[ids.PID]uint64
	unicasts map[ids.MsgID]struct{}
	local    []string
}

type viewRec struct {
	id      ids.ViewID
	members []ids.PID
	sets    map[ids.PID]*seqSet
}

// seqSet summarises the sequence numbers one sender contributed to one
// view at one member.
type seqSet struct {
	n, min, max, hash uint64
}

func (s *seqSet) add(seq uint64) {
	if s.n == 0 || seq < s.min {
		s.min = seq
	}
	if seq > s.max {
		s.max = seq
	}
	s.n++
	// splitmix64 finaliser: sums of it collide only by accident.
	z := seq + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	s.hash += z ^ (z >> 31)
}

// NewLog returns an empty log for member.
func NewLog(member ids.PID) *Log {
	return &Log{
		Member:   member,
		index:    make(map[ids.ViewID]int),
		last:     make(map[ids.PID]uint64),
		unicasts: make(map[ids.MsgID]struct{}),
	}
}

// maxLocal bounds the violations one log keeps; a broken run would
// otherwise record one per message.
const maxLocal = 20

func (l *Log) violate(format string, args ...any) {
	if len(l.local) < maxLocal {
		l.local = append(l.local, fmt.Sprintf("%v: ", l.Member)+fmt.Sprintf(format, args...))
	}
}

// OnView records the installation of v.
func (l *Log) OnView(v core.EView) {
	if _, dup := l.index[v.ID]; dup {
		l.violate("view %v installed twice", v.ID)
		return
	}
	l.index[v.ID] = len(l.views)
	l.views = append(l.views, &viewRec{id: v.ID, members: v.Members, sets: make(map[ids.PID]*seqSet)})
}

// OnMsg records the delivery of ev in the member's current view.
func (l *Log) OnMsg(ev core.MsgEvent) {
	if len(l.views) == 0 {
		l.violate("message %v delivered before any view", ev.ID)
		return
	}
	cur := l.views[len(l.views)-1]
	if ev.View != cur.id {
		l.violate("P2.2: message %v of view %v delivered in view %v", ev.ID, ev.View, cur.id)
		return
	}
	if ev.Unicast {
		// Unicasts bypass the causal buffer, so only at-most-once applies.
		if _, dup := l.unicasts[ev.ID]; dup {
			l.violate("P2.3: unicast %v delivered twice", ev.ID)
		}
		l.unicasts[ev.ID] = struct{}{}
		return
	}
	if last, ok := l.last[ev.From]; ok && ev.ID.Seq <= last {
		if ev.ID.Seq == last {
			l.violate("P2.3: message %v delivered twice", ev.ID)
		} else {
			l.violate("FIFO/P2.3: message %v delivered after seq %d of the same sender", ev.ID, last)
		}
		return
	}
	l.last[ev.From] = ev.ID.Seq
	set := cur.sets[ev.From]
	if set == nil {
		set = &seqSet{}
		cur.sets[ev.From] = set
	}
	set.add(ev.ID.Seq)
}

func samePIDs(a, b []ids.PID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Verify checks the logs of one run against the view-synchrony
// properties an application relies on and returns every violation found:
// per log, at-most-once delivery (P2.3), per-sender FIFO and delivery in
// the message's own view; across logs, that no two members deliver one
// sender's message in different views (P2.2), that members installing
// the same two consecutive views delivered the same set in the first
// (P2.1), and that the live members end in one common view of exactly
// themselves.
func Verify(logs []*Log, live []ids.PID) []string {
	var out []string
	for _, l := range logs {
		out = append(out, l.local...)
	}
	out = append(out, verifyUniqueness(logs)...)
	out = append(out, verifyAgreement(logs)...)
	out = append(out, verifyConverged(logs, live)...)
	return out
}

// verifyUniqueness checks P2.2 across members. Sequence numbers of one
// sender only grow and each is sent in one view, so the ranges it
// contributed to two different views must not overlap, whichever member
// recorded them.
func verifyUniqueness(logs []*Log) []string {
	type span struct {
		view     ids.ViewID
		min, max uint64
	}
	bySender := make(map[ids.PID]map[ids.ViewID]*span)
	for _, l := range logs {
		for _, v := range l.views {
			for sender, set := range v.sets {
				m := bySender[sender]
				if m == nil {
					m = make(map[ids.ViewID]*span)
					bySender[sender] = m
				}
				s := m[v.id]
				if s == nil {
					m[v.id] = &span{view: v.id, min: set.min, max: set.max}
					continue
				}
				if set.min < s.min {
					s.min = set.min
				}
				if set.max > s.max {
					s.max = set.max
				}
			}
		}
	}
	var out []string
	for sender, m := range bySender {
		spans := make([]*span, 0, len(m))
		for _, s := range m {
			spans = append(spans, s)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].min < spans[j].min })
		for i := 1; i < len(spans); i++ {
			if spans[i].min <= spans[i-1].max {
				out = append(out, fmt.Sprintf("P2.2: messages of %v delivered in both view %v (seq %d..%d) and view %v (seq %d..%d)",
					sender, spans[i-1].view, spans[i-1].min, spans[i-1].max, spans[i].view, spans[i].min, spans[i].max))
			}
		}
	}
	sort.Strings(out)
	return out
}

// verifyAgreement checks P2.1 for every pair of members.
func verifyAgreement(logs []*Log) []string {
	var out []string
	for i, a := range logs {
		for _, b := range logs[i+1:] {
			for k := 0; k+1 < len(a.views); k++ {
				j, ok := b.index[a.views[k].id]
				if !ok || j+1 >= len(b.views) || b.views[j+1].id != a.views[k+1].id {
					continue
				}
				if diff := diffSets(a.views[k].sets, b.views[j].sets); diff != "" {
					out = append(out, fmt.Sprintf("P2.1: %v and %v both went from view %v to %v but delivered different sets: %s",
						a.Member, b.Member, a.views[k].id, a.views[k+1].id, diff))
				}
			}
		}
	}
	return out
}

func diffSets(a, b map[ids.PID]*seqSet) string {
	for sender, sa := range a {
		sb := b[sender]
		if sb == nil {
			return fmt.Sprintf("%d messages of %v against none", sa.n, sender)
		}
		if *sa != *sb {
			return fmt.Sprintf("%d messages of %v (seq %d..%d) against %d (seq %d..%d)",
				sa.n, sender, sa.min, sa.max, sb.n, sb.min, sb.max)
		}
	}
	for sender, sb := range b {
		if a[sender] == nil {
			return fmt.Sprintf("none of %v against %d messages", sender, sb.n)
		}
	}
	return ""
}

// verifyConverged checks that the live members' last views are one view
// holding exactly them.
func verifyConverged(logs []*Log, live []ids.PID) []string {
	if len(live) == 0 {
		return nil
	}
	want := ids.NewPIDSet(live...).Sorted()
	byMember := make(map[ids.PID]*Log, len(logs))
	for _, l := range logs {
		byMember[l.Member] = l
	}
	var out []string
	var first *viewRec
	for _, pid := range want {
		l := byMember[pid]
		if l == nil || len(l.views) == 0 {
			out = append(out, fmt.Sprintf("converged: live member %v recorded no view", pid))
			continue
		}
		lastView := l.views[len(l.views)-1]
		if !samePIDs(lastView.members, want) {
			out = append(out, fmt.Sprintf("converged: %v ends in view %v %v, want members %v", pid, lastView.id, lastView.members, want))
			continue
		}
		if first == nil {
			first = lastView
		} else if lastView.id != first.id {
			out = append(out, fmt.Sprintf("converged: %v ends in view %v, others in %v", pid, lastView.id, first.id))
		}
	}
	return out
}
