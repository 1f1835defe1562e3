package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/eventq"
	"repro/internal/evs"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/stable"
	"repro/internal/transport"
)

// Errors returned by the Process API.
var (
	// ErrStopped is returned once the process has left or crashed.
	ErrStopped = errors.New("core: process stopped")
	// ErrBlocked is returned for operations that cannot proceed while a
	// view change is in progress (e.g. merge requests); retry after the
	// next view event.
	ErrBlocked = errors.New("core: view change in progress")
)

// Stats are per-process counters, readable at any time.
type Stats struct {
	ViewsInstalled  uint64
	MsgsSent        uint64
	MsgsDelivered   uint64
	FlushDeliveries uint64
	EChangesApplied uint64
	ProposalsSent   uint64
	// ProposalRetries counts proposal rounds restarted after an ack
	// timeout (a subset of ProposalsSent).
	ProposalRetries uint64
	// Reproposals counts membership rounds this process started solely
	// to reunify diverged view ids (a subset of ProposalsSent); with the
	// reconciliation fast path enabled, only divergences reconciliation
	// could not heal reach it.
	Reproposals uint64
	// Reconciles counts install re-sends this process performed to heal
	// a same-composition view-id divergence without a proposal round.
	Reconciles uint64
	// InstallsDeduped counts install packets dropped because the view
	// was already installed here (a reconcile re-send raced the original
	// install, or arrived after another heal); the duplicate is
	// idempotent by construction.
	InstallsDeduped uint64
	// StableMsgsPruned counts buffered messages discarded by stability
	// tracking (delivered by every member, so no flush can need them).
	StableMsgsPruned uint64
}

// counters are the live Stats: the protocol loop adds, any goroutine
// loads, nothing locks.
type counters struct {
	viewsInstalled, msgsSent, msgsDelivered, flushDeliveries atomic.Uint64
	eChangesApplied, proposalsSent, proposalRetries          atomic.Uint64
	reproposals, reconciles, installsDeduped                 atomic.Uint64
	stableMsgsPruned                                         atomic.Uint64
}

// snapshot loads every counter. The loads are individually atomic, not
// one cut: a snapshot taken while the loop runs may see a send whose
// self-delivery is not counted yet.
func (c *counters) snapshot() Stats {
	return Stats{
		ViewsInstalled:   c.viewsInstalled.Load(),
		MsgsSent:         c.msgsSent.Load(),
		MsgsDelivered:    c.msgsDelivered.Load(),
		FlushDeliveries:  c.flushDeliveries.Load(),
		EChangesApplied:  c.eChangesApplied.Load(),
		ProposalsSent:    c.proposalsSent.Load(),
		ProposalRetries:  c.proposalRetries.Load(),
		Reproposals:      c.reproposals.Load(),
		Reconciles:       c.reconciles.Load(),
		InstallsDeduped:  c.installsDeduped.Load(),
		StableMsgsPruned: c.stableMsgsPruned.Load(),
	}
}

// Process is one group member: the application's handle on the (enriched)
// view synchrony run-time. All methods are safe for concurrent use.
type Process struct {
	pid   ids.PID
	opts  Options
	ep    transport.Endpoint
	store *stable.Store
	obs   Observer // nil when observation is off; every note is gated on it

	events *eventq.Queue[Event]
	evch   chan Event
	reqs   chan request
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	stats counters

	mu  sync.Mutex
	cur EView
	// status is the loop's most recently published introspection
	// snapshot (see StatusSnapshot); refreshed every tick.
	status Status

	m machine // protocol state; loop-goroutine confined after Start
}

type reqKind int

const (
	reqMulticast reqKind = iota + 1
	reqUnicast
	reqMergeSubviews
	reqMergeSVSets
	reqForceSuspect
	reqUnforceSuspect
)

type request struct {
	kind     reqKind
	payload  []byte
	to       ids.PID
	subviews []ids.SubviewID
	svsets   []ids.SVSetID
	reply    chan error
}

// Stable-storage keys used by the run-time.
const (
	keyInc   = "core/inc"
	keyEpoch = "core/epoch"
)

// Start boots a new incarnation of the given site, attaches it to the
// transport (the simulated fabric or a real-socket backend), installs
// its bootstrap singleton view, and starts the protocol. The first event
// on Events is always the ViewEvent for the singleton view (the paper: a
// history begins with the view change that joins the group); larger
// views follow as the membership protocol merges it with whatever it can
// reach.
func Start(tr transport.Transport, reg *stable.Registry, site string, opts Options) (*Process, error) {
	opts = opts.withDefaults()
	store := reg.Open(site)

	inc := uint32(1)
	if raw, ok := store.Get(keyInc); ok && len(raw) == 4 {
		inc = binary.BigEndian.Uint32(raw) + 1
	}
	var incBuf [4]byte
	binary.BigEndian.PutUint32(incBuf[:], inc)
	store.Put(keyInc, incBuf[:])

	pid := ids.PID{Site: site, Inc: inc}
	ep, err := tr.Attach(pid)
	if err != nil {
		return nil, fmt.Errorf("core: attach %v: %w", pid, err)
	}

	p := &Process{
		pid:    pid,
		opts:   opts,
		ep:     ep,
		store:  store,
		obs:    opts.Observer,
		events: eventq.New[Event](),
		evch:   make(chan Event, 128),
		reqs:   make(chan request, 64),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.m.init(p)

	// Bootstrap: install the singleton view synchronously so the first
	// delivered event is the join view change.
	epoch := p.m.loadEpoch() + 1
	bootID := ids.ViewID{Epoch: epoch, Coord: pid}
	p.m.storeEpoch(epoch)
	boot := EView{
		ID:        bootID,
		Members:   []ids.PID{pid},
		Structure: evs.NewSingleton(bootID, pid),
	}
	if !opts.Enriched {
		boot.Structure = evs.Flat(bootID, ids.NewPIDSet(pid))
	}
	p.m.installBootstrap(boot)

	go p.run()
	go p.pumpEvents()
	return p, nil
}

// PID returns the process identifier of this incarnation.
func (p *Process) PID() ids.PID { return p.pid }

// Site returns the stable site name.
func (p *Process) Site() string { return p.pid.Site }

// Group returns the group name.
func (p *Process) Group() string { return p.opts.Group }

// Events returns the stream of views, e-view changes, and message
// deliveries. The channel closes after Leave or Crash once all pending
// events are consumed. There must be exactly one consumer.
func (p *Process) Events() <-chan Event { return p.evch }

// CurrentView returns a snapshot of the most recently installed enriched
// view (including applied e-view changes).
func (p *Process) CurrentView() EView {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// Stats returns a snapshot of the process counters.
func (p *Process) Stats() Stats { return p.stats.snapshot() }

// Multicast sends payload to the members of the current view with the
// view-synchronous guarantees. If a view change is in progress the
// message is queued and multicast in the next installed view (a message
// is always delivered in the view it was sent in — P2.2).
func (p *Process) Multicast(payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return p.submit(request{kind: reqMulticast, payload: cp})
}

// Unicast sends payload to a single member of the current view. Like a
// multicast it is delivered only in the view it was sent in (P2.2) and at
// most once (P2.3), but it is not subject to Agreement: if the view
// changes first it is silently dropped and the caller must retry in the
// new view. Returns ErrBlocked while a view change is in progress.
func (p *Process) Unicast(to ids.PID, payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return p.submit(request{kind: reqUnicast, to: to, payload: cp})
}

// SubviewMerge asks the view sequencer to merge the given subviews into
// one, per §6.1. The operation is asynchronous: success is observed as an
// EChangeEvent. Per the paper, a merge across different sv-sets has no
// effect (no event will arrive). Returns ErrBlocked during view changes.
func (p *Process) SubviewMerge(svs ...ids.SubviewID) error {
	if len(svs) < 2 {
		return fmt.Errorf("core: SubviewMerge needs >= 2 subviews")
	}
	return p.submit(request{kind: reqMergeSubviews, subviews: svs})
}

// SVSetMerge asks the view sequencer to merge the given sv-sets into one,
// per §6.1. Asynchronous, like SubviewMerge.
func (p *Process) SVSetMerge(sss ...ids.SVSetID) error {
	if len(sss) < 2 {
		return fmt.Errorf("core: SVSetMerge needs >= 2 sv-sets")
	}
	return p.submit(request{kind: reqMergeSVSets, svsets: sss})
}

// ForceSuspect injects a false suspicion of q into this process's
// failure detector: q is treated as failed regardless of its heartbeats
// until Unforce. The membership protocol reacts exactly as it would to a
// real failure — the paper's point that a process cannot tell the
// difference ("failures, whether real or due to false suspicions").
// Fault-injection experiments and tests use this.
func (p *Process) ForceSuspect(q ids.PID) error {
	return p.submit(request{kind: reqForceSuspect, to: q})
}

// Unforce removes an injected suspicion of q.
func (p *Process) Unforce(q ids.PID) error {
	return p.submit(request{kind: reqUnforceSuspect, to: q})
}

// Leave gracefully terminates participation: peers are told immediately
// (no suspicion timeout) and the process stops. The events channel closes
// after the remaining events drain.
func (p *Process) Leave() { p.shutdown(true) }

// Crash kills the process without any farewell, modeling a real crash:
// peers find out through the failure detector.
func (p *Process) Crash() { p.shutdown(false) }

// Done is closed when the protocol loop has exited.
func (p *Process) Done() <-chan struct{} { return p.done }

func (p *Process) shutdown(farewell bool) {
	p.once.Do(func() {
		if farewell {
			// Farewell is sent from here (not the loop) so that Leave
			// works even if the loop is wedged; the packet is idempotent.
			p.ep.Broadcast(pktHeartbeat{Group: p.opts.Group, From: p.pid, Left: true})
		}
		close(p.stop)
	})
	<-p.done
}

func (p *Process) submit(r request) error {
	r.reply = make(chan error, 1)
	select {
	case p.reqs <- r:
	case <-p.done:
		return ErrStopped
	}
	select {
	case err := <-r.reply:
		return err
	case <-p.done:
		return ErrStopped
	}
}

func (p *Process) pumpEvents() {
	for {
		ev, ok := p.events.Pop()
		if !ok {
			close(p.evch)
			return
		}
		p.evch <- ev
	}
}

// setCur publishes a snapshot of the current view.
func (p *Process) setCur(v EView) {
	p.mu.Lock()
	p.cur = v
	p.mu.Unlock()
}

// run is the protocol event loop; all of p.m is confined to it.
func (p *Process) run() {
	defer func() {
		p.ep.Detach()
		p.events.Close()
		close(p.done)
	}()
	hb := time.NewTicker(p.opts.HeartbeatEvery)
	defer hb.Stop()
	tick := time.NewTicker(p.opts.Tick)
	defer tick.Stop()

	// lastTick drives the tick-lag health gauge: how much later than
	// the configured period each housekeeping tick actually fired.
	var lastTick time.Time

	p.m.sendHeartbeat()
	for {
		select {
		case <-p.stop:
			return
		case <-hb.C:
			p.m.sendHeartbeat()
		case <-tick.C:
			start := time.Now()
			var lag time.Duration
			if !lastTick.IsZero() {
				if lag = start.Sub(lastTick) - p.opts.Tick; lag < 0 {
					lag = 0
				}
			}
			lastTick = start
			p.m.onTick(start)
			if now := time.Now(); now.Sub(p.m.lastPublish) >= statusEvery {
				p.m.publishStatus(now, lag)
			}
			if p.obs != nil {
				p.obs.Observe(Note{Kind: NoteTick, Self: p.pid, Dur: time.Since(start)})
				p.obs.Observe(Note{Kind: NoteLoopHealth, Self: p.pid, N: p.events.Len(), Dur: lag})
			}
		case <-p.ep.Wait():
			for {
				msg, ok := p.ep.TryRecv()
				if !ok {
					break
				}
				if p.obs != nil {
					p.obs.Observe(Note{Kind: NotePktRecv, Self: p.pid, Label: msg.Kind, N: msg.Size})
				}
				now := time.Now()
				p.m.onPacket(msg, now)
				// Payloads the transport coalesced onto this packet (e.g.
				// heartbeats riding on data) are processed after it.
				for _, pb := range msg.Piggyback {
					if p.obs != nil {
						p.obs.Observe(Note{Kind: NotePktRecv, Self: p.pid, Label: pb.Kind, N: pb.Size})
					}
					p.m.onPacket(pb, now)
				}
			}
			if p.ep.Closed() {
				return
			}
		case r := <-p.reqs:
			p.m.onRequest(r)
		}
	}
}

// machine holds all protocol state. Only the run goroutine touches it
// after Start.
type machine struct {
	p   *Process
	det *fd.Detector

	view EView
	comp ids.PIDSet
	// vc is this process's vector clock, reset at every install. Causal
	// order releases each sender's multicasts in the order of the
	// sender's own stamp component, without gaps, so vc[s] is also the
	// record of what was delivered from s in the current view: exactly
	// the messages with Stamp[s] <= vc[s]. The causal buffer suppresses
	// duplicates by the same rule (against its own copy of the vector),
	// onInstall picks the flush messages this process is missing by it
	// (P2.3), and heartbeats advertise it for stability pruning.
	vc     clock.Vector
	causal *clock.CausalBuffer[causalPkt]
	// from is the per-sender remainder of the delivery bookkeeping (see
	// senderState), reset with vc. Its size is the number of senders,
	// never the number of messages the view has carried.
	from       map[ids.PID]*senderState
	echApplied uint32
	nextSeq    uint64

	blocked bool
	// blockedSince anchors the in-flight proposal age Status reports:
	// set when blocked flips true, zeroed at install.
	blockedSince time.Time
	ackedProp    ids.ViewID
	outbox       [][]byte
	future       map[ids.ViewID][]causalPkt

	maxEpoch      uint64
	peerView      map[ids.PID]ids.ViewID
	peerVC        map[ids.PID]clock.Vector
	tombstones    map[ids.PID]time.Time
	mismatch      int
	pendingMerges []pktMergeReq

	// lastInstall is the install packet that created the current view,
	// kept (with its flush retransmission bodies) so the coordinator can
	// re-send it to a member that missed it; haveInstall is false for
	// bootstrap singleton views, which no packet created (a singleton
	// has no peer to diverge anyway). reconAttempts counts install
	// re-sends per diverging peer since the last install; reconHold is
	// the tick countdown between reconcile actions (MismatchDwell).
	lastInstall   pktInstall
	haveInstall   bool
	reconAttempts map[ids.PID]int
	reconHold     int

	// lastPublish throttles tick-path status publication (building a
	// Status formats the whole view, a real cost at millisecond
	// ticks); installs and the initial bootstrap publish immediately.
	// Loop-goroutine only.
	lastPublish time.Time

	coord *coordState
}

type coordState struct {
	prop     ids.ViewID
	comp     ids.PIDSet
	acks     map[ids.PID]pktAck
	deadline time.Time
	// since is when this round opened; Status reports its age at a
	// coordinator that is not itself blocked.
	since time.Time
}

// senderState is what the current view remembers about one sender.
type senderState struct {
	// log[head:] holds the bodies of the sender's multicasts delivered
	// in the current view and not yet known to be delivered everywhere,
	// for flush retransmission. Delivery appends, so it is ascending in
	// Stamp[sender]; not contiguous, because an e-view change takes a
	// stamp slot and is never retained. pruneStable drops a prefix by
	// zeroing it and advancing head.
	log  []pktData
	head int
	uni  uniWindow
}

// unstable returns the retained messages, oldest first.
func (st *senderState) unstable() []pktData { return st.log[st.head:] }

// dropStable discards the retained messages whose own stamp component is
// at most floor and reports how many went.
func (st *senderState) dropStable(sender ids.PID, floor uint64) int {
	live := st.unstable()
	k := sort.Search(len(live), func(i int) bool { return live[i].Stamp.Get(sender) > floor })
	// Zero what is dropped so the payloads are collectable at once, and
	// move the survivors to the front only when they are the smaller
	// half: each message is moved at most once on average, and the
	// backing array neither creeps forward nor is reallocated.
	clear(live[:k])
	st.head += k
	if st.head > len(st.log)/2 {
		n := copy(st.log, st.log[st.head:]) // n < head: no overlap
		clear(st.log[st.head:])
		st.log, st.head = st.log[:n], 0
	}
	return k
}

// uniWindowSize is how many of a sender's most recent unicasts are
// remembered individually.
const uniWindowSize = 64

// uniWindow de-duplicates one sender's unicasts within a view in bounded
// space. Unicast Seqs rise but are not contiguous (the counter is shared
// with multicasts), so the window keeps the uniWindowSize highest Seqs
// accepted; a Seq at or below the highest one evicted can no longer be
// told from a replay and is dropped, which Unicast's contract allows
// (the caller retries at application level).
type uniWindow struct {
	recent []uint64 // ascending
	floor  uint64
}

// admit reports whether the unicast numbered seq is to be delivered, and
// remembers it if so.
func (w *uniWindow) admit(seq uint64) bool {
	if seq <= w.floor {
		return false
	}
	i, dup := slices.BinarySearch(w.recent, seq)
	if dup {
		return false
	}
	w.recent = slices.Insert(w.recent, i, seq)
	if len(w.recent) > uniWindowSize {
		w.floor = w.recent[0]
		w.recent = slices.Delete(w.recent, 0, 1)
	}
	return true
}

// sender returns the current view's state for pid, creating it on first
// use.
func (m *machine) sender(pid ids.PID) *senderState {
	st := m.from[pid]
	if st == nil {
		st = new(senderState)
		m.from[pid] = st
	}
	return st
}

// resetDelivery starts the per-view delivery state afresh; every install
// (and init) goes through here so no structure is left behind.
func (m *machine) resetDelivery() {
	m.vc = clock.NewVector()
	m.causal = clock.NewCausalBuffer[causalPkt]()
	m.from = make(map[ids.PID]*senderState)
	m.peerVC = make(map[ids.PID]clock.Vector)
	m.echApplied = 0
}

func (m *machine) init(p *Process) {
	m.p = p
	if p.opts.AdaptiveFD {
		// See Options.AdaptiveFD for the clamp; fd's defaults supply
		// the deviation multiplier and the warm-up.
		m.det = fd.NewAdaptive(p.opts.SuspectAfter, fd.AdaptiveConfig{
			Floor: 2 * p.opts.HeartbeatEvery,
			Ceil:  4 * p.opts.SuspectAfter,
		})
	} else {
		m.det = fd.New(p.opts.SuspectAfter)
	}
	if o := p.obs; o != nil {
		self := p.pid
		m.det.SetHooks(fd.Hooks{
			HeartbeatGap: func(q ids.PID, gap time.Duration) {
				o.Observe(Note{Kind: NoteHeartbeatGap, Self: self, Peer: q, Dur: gap})
			},
			SuspectChange: func(q ids.PID, suspected bool) {
				o.Observe(Note{Kind: NoteSuspect, Self: self, Peer: q, Flag: suspected})
			},
			EffectiveTimeout: func(q ids.PID, timeout time.Duration) {
				o.Observe(Note{Kind: NoteTimeout, Self: self, Peer: q, Dur: timeout})
			},
		})
	}
	m.resetDelivery()
	m.future = make(map[ids.ViewID][]causalPkt)
	m.peerView = make(map[ids.PID]ids.ViewID)
	m.tombstones = make(map[ids.PID]time.Time)
	m.reconAttempts = make(map[ids.PID]int)
}

func (m *machine) loadEpoch() uint64 {
	if raw, ok := m.p.store.Get(keyEpoch); ok && len(raw) == 8 {
		return binary.BigEndian.Uint64(raw)
	}
	return 0
}

func (m *machine) storeEpoch(e uint64) {
	if e <= m.maxEpoch {
		return
	}
	m.maxEpoch = e
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], e)
	m.p.store.Put(keyEpoch, buf[:])
}

// installBootstrap installs the singleton view during Start (before the
// loop goroutine exists).
func (m *machine) installBootstrap(v EView) {
	m.view = v
	m.comp = v.Comp()
	m.p.setCur(v)
	m.p.stats.viewsInstalled.Add(1)
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteView, Self: m.p.pid, EView: v})
	}
	m.p.events.Push(ViewEvent{EView: v})
	// Publish an initial status so StatusSnapshot answers before the
	// first housekeeping tick.
	m.publishStatus(time.Now(), 0)
}
