package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/stable"
	"repro/internal/transport"
)

// siteName maps a member index to its site ("a", "b", ...); the smallest
// site is the group's coordinator and sequencer.
func siteName(i int) string { return string(rune('a' + i)) }

// member is one incarnation of a site together with the goroutine that
// reads its event stream.
type member struct {
	idx  int
	p    *core.Process
	log  *Log
	done chan struct{} // closed when the event stream has ended
}

// group is a set of raw core.Process members on one transport. Every
// event any incarnation delivers goes through its Log (for verification)
// and its view tracker (for timing view changes at the moment the
// application reads them); message events are also handed to onMsg.
type group struct {
	tr      transport.Transport
	reg     *stable.Registry
	opts    core.Options
	tracker *viewTracker
	// onMsg, when set, runs on the member's reader goroutine for every
	// delivered message. It must not block. The load generator installs
	// it once the members it sends from are running, hence the atomic.
	onMsg atomic.Pointer[func(m *member, ev core.MsgEvent)]

	mu  sync.Mutex
	cur map[int]*member
	all []*member
}

func newGroup(tr transport.Transport, opts core.Options) *group {
	return &group{
		tr:      tr,
		reg:     stable.NewRegistry(),
		opts:    opts,
		tracker: newViewTracker(),
		cur:     make(map[int]*member),
	}
}

// handle installs f as the group's message handler.
func (g *group) handle(f func(m *member, ev core.MsgEvent)) { g.onMsg.Store(&f) }

// start boots a new incarnation of site idx and starts reading its
// events.
func (g *group) start(idx int) (*member, error) {
	p, err := core.Start(g.tr, g.reg, siteName(idx), g.opts)
	if err != nil {
		return nil, err
	}
	m := &member{idx: idx, p: p, log: NewLog(p.PID()), done: make(chan struct{})}
	g.mu.Lock()
	g.cur[idx] = m
	g.all = append(g.all, m)
	g.mu.Unlock()
	go g.read(m)
	return m, nil
}

func (g *group) read(m *member) {
	defer close(m.done)
	pid := m.p.PID()
	for ev := range m.p.Events() {
		switch e := ev.(type) {
		case core.ViewEvent:
			m.log.OnView(e.EView)
			g.tracker.set(pid, e.EView)
		case core.MsgEvent:
			m.log.OnMsg(e)
			if f := g.onMsg.Load(); f != nil {
				(*f)(m, e)
			}
		}
	}
}

// startN boots sites 0..n-1 one at a time, each joining the view of those
// before it. Started all at once, a member that has not yet heard the
// smallest one proposes a view of its own about one time in ten, and the
// two rounds block each other for a whole ProposeTimeout (README, known
// behaviours); set-up time would then measure that race.
func (g *group) startN(n int, timeout time.Duration) error {
	for i := 0; i < n; i++ {
		if _, err := g.start(i); err != nil {
			return err
		}
		if _, ok := g.tracker.await(g.livePIDs(), timeout); !ok {
			return fmt.Errorf("group of %d did not converge within %v: %s", i+1, timeout, g.tracker.describe())
		}
	}
	return nil
}

func (g *group) member(idx int) *member {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur[idx]
}

// remove takes site idx out of the live set; the caller then calls Leave
// or Crash on the returned member.
func (g *group) remove(idx int) *member {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.cur[idx]
	delete(g.cur, idx)
	return m
}

func (g *group) livePIDs() []ids.PID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(ids.PIDSet, len(g.cur))
	for _, m := range g.cur {
		out.Add(m.p.PID())
	}
	return out.Sorted()
}

// coreStats sums the counters of every incarnation started so far.
func (g *group) coreStats() core.Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sum core.Stats
	for _, m := range g.all {
		s := m.p.Stats()
		sum.ViewsInstalled += s.ViewsInstalled
		sum.MsgsSent += s.MsgsSent
		sum.MsgsDelivered += s.MsgsDelivered
		sum.FlushDeliveries += s.FlushDeliveries
		sum.ProposalsSent += s.ProposalsSent
		sum.ProposalRetries += s.ProposalRetries
		sum.Reproposals += s.Reproposals
		sum.Reconciles += s.Reconciles
		sum.StableMsgsPruned += s.StableMsgsPruned
	}
	return sum
}

// stop ends the run: every live member crashes at once (so that no view
// change starts and the logs end in the views the run ended in), the
// readers drain, the transport closes, and the logs are verified.
func (g *group) stop() []string {
	live := g.livePIDs()
	g.mu.Lock()
	all := append([]*member(nil), g.all...)
	cur := make([]*member, 0, len(g.cur))
	for _, m := range g.cur {
		cur = append(cur, m)
	}
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range cur {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.p.Crash()
		}(m)
	}
	wg.Wait()
	logs := make([]*Log, 0, len(all))
	for _, m := range all {
		<-m.done
		logs = append(logs, m.log)
	}
	g.tr.Close()
	return Verify(logs, live)
}

// viewTracker holds the view each incarnation's application most
// recently read from its event stream, and when. View-change latencies
// are measured against it, so they end when the last member has been
// told, not when the run-time has merely installed.
type viewTracker struct {
	mu      sync.Mutex
	views   map[ids.PID]trackedView
	changed chan struct{}
}

type trackedView struct {
	id      ids.ViewID
	members []ids.PID
	at      time.Time
}

func newViewTracker() *viewTracker {
	return &viewTracker{views: make(map[ids.PID]trackedView), changed: make(chan struct{}, 1)}
}

func (t *viewTracker) set(pid ids.PID, v core.EView) {
	now := time.Now()
	t.mu.Lock()
	t.views[pid] = trackedView{id: v.ID, members: v.Members, at: now}
	t.mu.Unlock()
	select {
	case t.changed <- struct{}{}:
	default:
	}
}

// await blocks until every member of want has read one common view whose
// composition is exactly want, and returns when the last of them read
// it. ok is false on timeout.
func (t *viewTracker) await(want []ids.PID, timeout time.Duration) (at time.Time, ok bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if at, ok := t.common(want); ok {
			return at, true
		}
		select {
		case <-t.changed:
		case <-deadline.C:
			return time.Time{}, false
		}
	}
}

func (t *viewTracker) common(want []ids.PID) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id ids.ViewID
	var last time.Time
	for i, pid := range want {
		v, ok := t.views[pid]
		if !ok || !samePIDs(v.members, want) {
			return time.Time{}, false
		}
		if i == 0 {
			id = v.id
		} else if v.id != id {
			return time.Time{}, false
		}
		if v.at.After(last) {
			last = v.at
		}
	}
	return last, true
}

func (t *viewTracker) describe() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := ""
	for pid, v := range t.views {
		s += fmt.Sprintf(" %v:%v%v", pid, v.id, v.members)
	}
	return s
}
