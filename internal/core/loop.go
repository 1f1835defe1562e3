package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/evs"
	"repro/internal/ids"
	"repro/internal/transport"
)

// send unicasts a protocol packet, reporting it to the observer first.
// All loop-originated sends go through here (or bcast) so that per-kind
// packet accounting sees every packet.
func (m *machine) send(to ids.PID, payload any) {
	if m.p.obs != nil {
		kind, size := transport.Describe(payload)
		m.p.obs.Observe(Note{Kind: NotePktSent, Self: m.p.pid, Label: kind, N: size})
	}
	m.p.ep.Send(to, payload)
}

// bcast broadcasts a protocol packet; see send.
func (m *machine) bcast(payload any) {
	if m.p.obs != nil {
		kind, size := transport.Describe(payload)
		m.p.obs.Observe(Note{Kind: NotePktSent, Self: m.p.pid, Label: kind, N: size})
	}
	m.p.ep.Broadcast(payload)
}

// sendHeartbeat broadcasts the periodic liveness/discovery packet.
func (m *machine) sendHeartbeat() {
	m.bcast(pktHeartbeat{
		Group:    m.p.opts.Group,
		From:     m.p.pid,
		View:     m.view.ID,
		MaxEpoch: m.maxEpoch,
		VC:       m.vc.Restrict(m.comp),
	})
}

func (m *machine) onPacket(msg transport.Message, now time.Time) {
	switch pkt := msg.Payload.(type) {
	case pktHeartbeat:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.onHeartbeat(pkt, now)
	case pktData:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.noteAlive(pkt.ID.Sender, now)
		if pkt.Unicast {
			m.onUnicast(pkt)
		} else {
			m.onCausal(pkt)
		}
	case pktEChange:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.noteAlive(pkt.ID.Sender, now)
		m.onCausal(pkt)
	case pktMergeReq:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.noteAlive(pkt.From, now)
		m.onMergeReq(pkt)
	case pktPropose:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.noteAlive(pkt.Proposal.Coord, now)
		m.onPropose(pkt)
	case pktAck:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.noteAlive(pkt.From, now)
		m.onAck(pkt)
	case pktInstall:
		if pkt.Group != m.p.opts.Group {
			return
		}
		m.noteAlive(pkt.Proposal.Coord, now)
		m.onInstall(pkt)
	}
}

// noteAlive feeds the failure detector, ignoring tombstoned (departed)
// processes and our own packets.
func (m *machine) noteAlive(from ids.PID, now time.Time) {
	if from == m.p.pid {
		return
	}
	if _, left := m.tombstones[from]; left {
		return
	}
	m.det.Heard(from, now)
}

func (m *machine) onHeartbeat(hb pktHeartbeat, now time.Time) {
	if hb.From == m.p.pid {
		return
	}
	if hb.Left {
		m.tombstones[hb.From] = now
		m.det.Forget(hb.From)
		delete(m.peerView, hb.From)
		return
	}
	m.noteAlive(hb.From, now)
	if _, left := m.tombstones[hb.From]; left {
		return
	}
	m.storeEpoch(hb.MaxEpoch)
	m.peerView[hb.From] = hb.View
	if hb.View == m.view.ID && m.comp.Has(hb.From) {
		m.peerVC[hb.From] = hb.VC
	}
}

// pruneStable discards messages that every member of the current view
// has delivered: once the component-wise minimum of all members'
// delivery vectors reaches a message's own component at its sender, no
// flush can ever need to retransmit it (Agreement is already satisfied
// for it at everyone). This bounds the per-view retransmission buffer
// and the size of flush acks in long-lived views. One floor per sender
// and a prefix drop: senders x members work per tick plus the messages
// pruned, however many the view has carried.
func (m *machine) pruneStable() {
	if m.blocked || len(m.comp) < 2 {
		return
	}
	// Need a report from every other member for this view.
	for q := range m.comp {
		if q == m.p.pid {
			continue
		}
		if _, ok := m.peerVC[q]; !ok {
			return
		}
	}
	pruned := 0
	for s, st := range m.from {
		if len(st.unstable()) == 0 {
			continue
		}
		floor := m.vc.Get(s)
		for q := range m.comp {
			if q == m.p.pid {
				continue
			}
			if t := m.peerVC[q].Get(s); t < floor {
				floor = t
			}
		}
		pruned += st.dropStable(s, floor)
	}
	if pruned > 0 {
		m.p.stats.stableMsgsPruned.Add(uint64(pruned))
	}
}

// unstableMsgs counts the message bodies retained for flush.
func (m *machine) unstableMsgs() int {
	n := 0
	for _, st := range m.from {
		n += len(st.unstable())
	}
	return n
}

// ---- data / e-change path ----

// onCausal routes a causally-stamped packet by view.
func (m *machine) onCausal(pk causalPkt) {
	v := pk.PktView()
	switch {
	case v == m.view.ID:
		if m.blocked {
			// Flush discipline: once we have acked a proposal our
			// reported delivered-set is frozen; late current-view traffic
			// reaches us through the coordinator's flush if any survivor
			// delivered it.
			return
		}
		// Offer drops duplicates: anything at or below the sender's
		// delivered high-water mark, or already waiting.
		for _, d := range m.causal.Offer(pk) {
			m.deliverCausal(d, false)
		}
	case m.view.ID.Less(v):
		// Data for a view we have not installed yet; hold it.
		m.future[v] = append(m.future[v], pk)
	default:
		// Stale view: P2.2 forbids delivery outside the origin view.
	}
}

// deliverCausal finalizes delivery of a causally-ready packet.
func (m *machine) deliverCausal(pk causalPkt, flushed bool) {
	// Only the sender's component moves: the causal buffer released the
	// packet because every other component of its stamp was covered
	// already, a local packet's stamp is vc itself, and after a flush
	// delivery vc is read no more before the install resets it.
	s := pk.CausalSender()
	m.vc[s] = pk.CausalStamp()[s]
	switch d := pk.(type) {
	case pktData:
		st := m.sender(s)
		st.log = append(st.log, d)
		if m.p.obs != nil {
			n := Note{Kind: NoteDeliver, Self: m.p.pid, Msg: d.ID, View: d.View, Stamp: d.Stamp}
			if flushed {
				n.Label = "flush"
			}
			m.p.obs.Observe(n)
		}
		m.p.events.Push(MsgEvent{
			ID:      d.ID,
			From:    d.ID.Sender,
			View:    d.View,
			Payload: d.Payload,
			Stamp:   d.Stamp,
			Flushed: flushed,
		})
		m.p.stats.msgsDelivered.Add(1)
		if flushed {
			m.p.stats.flushDeliveries.Add(1)
		}
	case pktEChange:
		m.applyEChange(d)
	}
}

// applyEChange applies an e-view change in sequence order (P6.1: all
// members receive them from the single sequencer via a FIFO causal
// channel, hence in identical order).
func (m *machine) applyEChange(d pktEChange) {
	if d.Seq != m.echApplied+1 {
		// Either a duplicate (Seq <= applied) or a protocol bug; a gap is
		// impossible under per-sender FIFO from the single sequencer.
		return
	}
	var (
		next  evs.Structure
		err   error
		newSv ids.SubviewID
		newSs ids.SVSetID
	)
	switch d.Kind {
	case EChangeSubviewMerge:
		next, newSv, err = m.view.Structure.MergeSubviews(d.Subviews)
	case EChangeSVSetMerge:
		next, newSs, err = m.view.Structure.MergeSVSets(d.SVSets)
	default:
		return
	}
	if err != nil {
		// The sequencer validated before multicasting, and every member
		// applies the same prefix to the same structure, so failure here
		// is deterministic across members — drop uniformly, advancing the
		// applied counter so the chain stays aligned.
		m.echApplied = d.Seq
		return
	}
	m.echApplied = d.Seq
	m.view.Structure = next
	m.view.Changes = d.Seq
	m.p.setCur(m.view)
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteEChange, Self: m.p.pid, EView: m.view, Change: d.Kind,
			N: int(d.Seq), NewSubview: newSv, NewSVSet: newSs, Stamp: d.Stamp})
	}
	m.p.events.Push(EChangeEvent{
		EView:      m.view,
		Kind:       d.Kind,
		Seq:        d.Seq,
		NewSubview: newSv,
		NewSVSet:   newSs,
		Stamp:      d.Stamp,
	})
	m.p.stats.eChangesApplied.Add(1)
}

// ---- application requests ----

// onUnicast delivers an addressed point-to-point message: current view
// only, deduplicated, outside the causal/flush machinery.
func (m *machine) onUnicast(d pktData) {
	if d.View != m.view.ID || m.blocked {
		return // stale or mid-change; the sender retries at app level
	}
	if !m.sender(d.ID.Sender).uni.admit(d.ID.Seq) {
		return // a duplicate, or too old to tell from one
	}
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteDeliver, Self: m.p.pid, Msg: d.ID, View: d.View, Label: "unicast"})
	}
	m.p.events.Push(MsgEvent{
		ID:      d.ID,
		From:    d.ID.Sender,
		View:    d.View,
		Payload: d.Payload,
		Unicast: true,
	})
	m.p.stats.msgsDelivered.Add(1)
}

func (m *machine) doUnicast(to ids.PID, payload []byte) {
	m.nextSeq++
	pkt := pktData{
		Group:   m.p.opts.Group,
		ID:      ids.MsgID{Sender: m.p.pid, Seq: m.nextSeq},
		View:    m.view.ID,
		Payload: payload,
		Unicast: true,
	}
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteSend, Self: m.p.pid, Msg: pkt.ID, View: pkt.View})
	}
	m.p.stats.msgsSent.Add(1)
	if to == m.p.pid {
		m.onUnicast(pkt)
		return
	}
	m.send(to, pkt)
}

func (m *machine) onRequest(r request) {
	switch r.kind {
	case reqMulticast:
		if m.blocked {
			m.outbox = append(m.outbox, r.payload)
			r.reply <- nil
			return
		}
		m.doMulticast(r.payload)
		r.reply <- nil
	case reqUnicast:
		if m.blocked {
			r.reply <- ErrBlocked
			return
		}
		if !m.comp.Has(r.to) {
			r.reply <- fmt.Errorf("core: unicast target %v not in current view", r.to)
			return
		}
		m.doUnicast(r.to, r.payload)
		r.reply <- nil
	case reqForceSuspect:
		m.det.ForceSuspect(r.to)
		r.reply <- nil
	case reqUnforceSuspect:
		m.det.Unforce(r.to)
		r.reply <- nil
	case reqMergeSubviews, reqMergeSVSets:
		if m.blocked {
			r.reply <- ErrBlocked
			return
		}
		req := pktMergeReq{
			Group:    m.p.opts.Group,
			From:     m.p.pid,
			View:     m.view.ID,
			Kind:     EChangeSubviewMerge,
			Subviews: r.subviews,
			SVSets:   r.svsets,
		}
		if r.kind == reqMergeSVSets {
			req.Kind = EChangeSVSetMerge
		}
		if m.p.obs != nil {
			m.p.obs.Observe(Note{Kind: NoteMergeRequest, Self: m.p.pid, Change: req.Kind})
		}
		seqr := m.sequencer()
		if seqr == m.p.pid {
			m.onMergeReq(req)
		} else {
			m.send(seqr, req)
		}
		r.reply <- nil
	}
}

// sequencer returns the process ordering e-view changes in the current
// view: the smallest member.
func (m *machine) sequencer() ids.PID {
	min, _ := m.comp.Min()
	return min
}

func (m *machine) doMulticast(payload []byte) {
	m.nextSeq++
	m.vc.Tick(m.p.pid)
	pkt := pktData{
		Group:   m.p.opts.Group,
		ID:      ids.MsgID{Sender: m.p.pid, Seq: m.nextSeq},
		View:    m.view.ID,
		Stamp:   m.vc.Restrict(m.comp),
		Payload: payload,
	}
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteSend, Self: m.p.pid, Msg: pkt.ID, View: pkt.View})
	}
	m.p.stats.msgsSent.Add(1)
	// Self-delivery first: the sender's own multicast is always in its
	// delivered set, so a surviving sender's messages reach all
	// co-survivors through the flush.
	m.causal.RecordLocal(pkt.Stamp)
	m.mcast(pkt)
}

// mcast self-delivers a freshly stamped packet and sends it to every
// other member of the view. The packet is boxed into an interface once,
// not once per destination.
func (m *machine) mcast(pkt causalPkt) {
	m.deliverCausal(pkt, false)
	for _, q := range m.view.Members {
		if q != m.p.pid {
			m.send(q, pkt)
		}
	}
}

// onMergeReq is executed by the sequencer: validate against the current
// structure and, if effective, multicast the e-view change. The request
// does not need to name the sequencer's exact current view: subview and
// sv-set identifiers persist across view changes (P6.3), so a request
// whose identifiers still resolve is still meaningful; one whose
// identifiers died with a view change fails validation and is dropped.
// Requests arriving during a view change are parked and replayed after
// the install.
func (m *machine) onMergeReq(req pktMergeReq) {
	if m.sequencer() != m.p.pid {
		return
	}
	if m.blocked {
		if len(m.pendingMerges) < 64 {
			m.pendingMerges = append(m.pendingMerges, req)
		}
		return
	}
	// Validate now so no-effect calls (per §6.1) are dropped silently
	// without consuming a sequence number.
	var err error
	switch req.Kind {
	case EChangeSubviewMerge:
		_, _, err = m.view.Structure.MergeSubviews(req.Subviews)
	case EChangeSVSetMerge:
		_, _, err = m.view.Structure.MergeSVSets(req.SVSets)
	default:
		return
	}
	if err != nil {
		return
	}
	m.nextSeq++
	m.vc.Tick(m.p.pid)
	pkt := pktEChange{
		Group:    m.p.opts.Group,
		ID:       ids.MsgID{Sender: m.p.pid, Seq: m.nextSeq},
		View:     m.view.ID,
		Stamp:    m.vc.Restrict(m.comp),
		Seq:      m.echApplied + 1,
		Kind:     req.Kind,
		Subviews: req.Subviews,
		SVSets:   req.SVSets,
	}
	m.causal.RecordLocal(pkt.Stamp)
	m.mcast(pkt)
}

// ---- membership: tick, propose, ack, install ----

func (m *machine) onTick(now time.Time) {
	// The GC horizon is derived from the largest timeout the detector
	// can report (the adaptive ceiling, when enabled), so a peer whose
	// adapted timeout grew under jitter is never dropped while its
	// effective timeout could still clear it.
	m.det.GC(now, 10*m.det.MaxTimeout()+time.Second)
	// A departed process's tombstone blocks its liveness indications
	// (stale packets of a dead incarnation must not resurrect it) for a
	// time that scales with the timing profile.
	for pid, t := range m.tombstones {
		if now.Sub(t) > 20*m.p.opts.SuspectAfter {
			delete(m.tombstones, pid)
		}
	}
	m.pruneStable()

	alive := m.det.Alive(now)
	desired := alive.Clone()
	desired.Add(m.p.pid)

	need := !desired.Equal(m.comp)
	// divFound records a view-id divergence with an unchanged
	// composition (divPeer/divView the diverging member and its view);
	// such a divergence is healed by the reconciliation fast path below
	// when possible, and otherwise launches a re-proposal (reported via
	// a NoteReproposal at launch). An explicit flag, not a zero-PID
	// sentinel: a zero ids.PID comparing equal to divPeer must not
	// silently skip the notes.
	var (
		divFound bool
		divPeer  ids.PID
		divView  ids.ViewID
	)
	if !need {
		// Same composition but a member advertises a different view: the
		// histories diverged (it missed our install, or an asymmetric
		// partition let it move on while we never suspected it).
		// Transient mismatch during install propagation is absorbed by
		// the dwell. The scan picks the smallest diverging PID so which
		// peer gets reported (and reconciled first) is deterministic
		// across runs — map iteration order must not leak into traces.
		for q, v := range m.peerView {
			if m.comp.Has(q) && alive.Has(q) && v != m.view.ID {
				if !divFound || q.Less(divPeer) {
					divPeer, divView = q, v
				}
				divFound = true
			}
		}
		need = divFound
	}
	if need {
		m.mismatch++
	} else {
		m.mismatch = 0
	}
	if !divFound {
		// No live divergence: any reconcile bookkeeping is stale (the
		// peer healed, left, or the composition changed — which resets
		// everything at the next install anyway).
		m.reconHold = 0
		if len(m.reconAttempts) > 0 {
			clear(m.reconAttempts)
		}
	}

	if m.coord != nil {
		if now.After(m.coord.deadline) {
			// Shrink to whoever answered (plus self) and retry.
			next := make(ids.PIDSet)
			next.Add(m.p.pid)
			for q := range m.coord.acks {
				if alive.Has(q) || q == m.p.pid {
					next.Add(q)
				}
			}
			// Anything newly alive and desired can come along too.
			for q := range desired.Intersect(m.coord.comp) {
				if alive.Has(q) {
					next.Add(q)
				}
			}
			m.startProposal(next, now, true)
		}
		return
	}

	if m.mismatch < MismatchDwell {
		return
	}
	if min, ok := desired.Min(); !ok || min != m.p.pid {
		return // someone smaller is responsible for coordinating
	}
	if divFound {
		if m.reconHold > 0 {
			// A reconcile re-send is still in flight; give the peer time
			// to apply it before acting on the divergence again.
			m.reconHold--
			return
		}
		// Reconciliation fast path: the diverging peer sits in our
		// composition, so it acked the proposal our view came from (the
		// coordinator installed only after every member acked) and merely
		// missed the install packet. Re-delivering the cached install
		// heals it without a new agreement round — but only when the peer
		// is *behind* us; if its view is newer we are the laggard and
		// only a fresh proposal reunifies the histories.
		if !m.p.opts.NoReconcile && m.haveInstall && divView.Less(m.view.ID) &&
			m.reconAttempts[divPeer] < ReconcileAttempts {
			m.reconAttempts[divPeer]++
			m.p.stats.reconciles.Add(1)
			if m.p.obs != nil {
				m.p.obs.Observe(Note{Kind: NoteReconcile, Self: m.p.pid, Peer: divPeer, View: m.view.ID,
					N: m.reconAttempts[divPeer]})
			}
			inst := m.lastInstall
			inst.Resend = true
			m.send(divPeer, inst)
			m.reconHold = MismatchDwell
			return
		}
		// Reconcile exhausted or impossible: escalate to a re-proposal.
		m.p.stats.reproposals.Add(1)
		if m.p.obs != nil {
			m.p.obs.Observe(Note{Kind: NoteReproposal, Self: m.p.pid, Peer: divPeer, View: m.view.ID,
				Proposal: divView})
		}
	}
	m.startProposal(m.clampSingleJoin(desired), now, false)
}

// clampSingleJoin applies the Isis-style grow-by-one rule when enabled.
func (m *machine) clampSingleJoin(desired ids.PIDSet) ids.PIDSet {
	if !m.p.opts.SingleJoin {
		return desired
	}
	newbies := desired.Diff(m.comp)
	if len(newbies) <= 1 {
		return desired
	}
	first, _ := newbies.Min()
	clamped := desired.Intersect(m.comp)
	clamped.Add(m.p.pid)
	clamped.Add(first)
	return clamped
}

func (m *machine) startProposal(comp ids.PIDSet, now time.Time, retry bool) {
	epoch := m.maxEpoch + 1
	m.storeEpoch(epoch)
	prop := ids.ViewID{Epoch: epoch, Coord: m.p.pid}
	m.coord = &coordState{
		prop:     prop,
		comp:     comp.Clone(),
		acks:     make(map[ids.PID]pktAck, len(comp)),
		deadline: now.Add(m.p.opts.ProposeTimeout),
		since:    now,
	}
	m.p.stats.proposalsSent.Add(1)
	if retry {
		m.p.stats.proposalRetries.Add(1)
	}
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NotePropose, Self: m.p.pid, View: prop, N: len(comp), Flag: retry})
	}
	pkt := pktPropose{Group: m.p.opts.Group, Proposal: prop, Comp: comp.Sorted()}
	for q := range comp {
		if q != m.p.pid {
			m.send(q, pkt)
		}
	}
	m.onPropose(pkt) // self-participation
}

func (m *machine) onPropose(pr pktPropose) {
	m.storeEpoch(pr.Proposal.Epoch)
	inComp := false
	for _, q := range pr.Comp {
		if q == m.p.pid {
			inComp = true
			break
		}
	}
	if !inComp {
		return
	}
	if !m.view.ID.Less(pr.Proposal) {
		return // not newer than what we already installed
	}
	if !m.ackedProp.IsZero() && pr.Proposal.Less(m.ackedProp) {
		return // committed to a higher proposal already
	}
	// Abandon our own competing lower proposal.
	if m.coord != nil && m.coord.prop.Less(pr.Proposal) {
		m.coord = nil
	}
	m.ackedProp = pr.Proposal
	if !m.blocked {
		m.blockedSince = time.Now()
	}
	m.blocked = true
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteBlock, Self: m.p.pid, View: pr.Proposal})
	}
	ack := pktAck{
		Group:      m.p.opts.Group,
		Proposal:   pr.Proposal,
		From:       m.p.pid,
		PredView:   m.view.ID,
		Delivered:  m.deliveredCopy(),
		EChangeSeq: m.echApplied,
		Structure:  m.view.Structure,
	}
	if pr.Proposal.Coord == m.p.pid {
		m.onAck(ack)
	} else {
		m.send(pr.Proposal.Coord, ack)
	}
}

// deliveredCopy is the ack's delivered set: every retained body, keyed by
// message id.
func (m *machine) deliveredCopy() map[ids.MsgID]pktData {
	cp := make(map[ids.MsgID]pktData, m.unstableMsgs())
	for _, st := range m.from {
		for _, d := range st.unstable() {
			cp[d.ID] = d
		}
	}
	return cp
}

func (m *machine) onAck(a pktAck) {
	if m.coord == nil || a.Proposal != m.coord.prop || !m.coord.comp.Has(a.From) {
		return
	}
	m.coord.acks[a.From] = a
	if len(m.coord.acks) < len(m.coord.comp) {
		return
	}
	m.finishProposal()
}

// finishProposal runs at the coordinator once every member of the
// proposed composition has acked: compute per-predecessor flush sets,
// compose the enriched structure, and install.
func (m *machine) finishProposal() {
	c := m.coord
	m.coord = nil

	// Group acks by predecessor view.
	type predGroup struct {
		survivors ids.PIDSet
		flush     map[ids.MsgID]pktData
		structure evs.Structure
		maxECh    uint32
	}
	preds := make(map[ids.ViewID]*predGroup)
	for _, a := range c.acks {
		g, ok := preds[a.PredView]
		if !ok {
			g = &predGroup{survivors: make(ids.PIDSet), flush: make(map[ids.MsgID]pktData)}
			preds[a.PredView] = g
		}
		g.survivors.Add(a.From)
		for id, d := range a.Delivered {
			g.flush[id] = d
		}
		// E-view changes are totally ordered per view, so structures of
		// co-view members form a chain; the longest prefix wins.
		if a.EChangeSeq >= g.maxECh {
			if a.EChangeSeq > g.maxECh || g.structure.View.IsZero() {
				g.structure = a.Structure
				g.maxECh = a.EChangeSeq
			}
		}
	}

	comp := c.comp.Sorted()
	flush := make(map[ids.ViewID][]pktData, len(preds))
	var predList []evs.Predecessor
	// Deterministic predecessor ordering (sorted by view id) so composed
	// singleton ids do not depend on map iteration.
	predIDs := make([]ids.ViewID, 0, len(preds))
	for v := range preds {
		predIDs = append(predIDs, v)
	}
	sort.Slice(predIDs, func(i, j int) bool { return predIDs[i].Less(predIDs[j]) })
	for _, v := range predIDs {
		g := preds[v]
		msgs := make([]pktData, 0, len(g.flush))
		for _, d := range g.flush {
			msgs = append(msgs, d)
		}
		sort.Slice(msgs, func(i, j int) bool { return lessMsgID(msgs[i].ID, msgs[j].ID) })
		flush[v] = msgs
		predList = append(predList, evs.Predecessor{Structure: g.structure, Survivors: g.survivors})
	}

	var structure evs.Structure
	if m.p.opts.Enriched {
		structure = evs.Compose(c.prop, c.comp, predList)
	} else {
		structure = evs.Flat(c.prop, c.comp)
	}

	inst := pktInstall{
		Group:     m.p.opts.Group,
		Proposal:  c.prop,
		Comp:      comp,
		Flush:     flush,
		Structure: structure,
	}
	for _, q := range comp {
		if q != m.p.pid {
			m.send(q, inst)
		}
	}
	m.onInstall(inst)
}

func lessMsgID(a, b ids.MsgID) bool {
	if a.Sender != b.Sender {
		return a.Sender.Less(b.Sender)
	}
	return a.Seq < b.Seq
}

func (m *machine) onInstall(inst pktInstall) {
	if inst.Proposal == m.view.ID {
		// Already installed: a reconcile re-send (or a duplicated packet)
		// of the view we live in. Installing is idempotent per view id,
		// so drop it — re-running the state reset would wipe delivery
		// bookkeeping mid-view.
		m.p.stats.installsDeduped.Add(1)
		return
	}
	if inst.Proposal != m.ackedProp {
		return // we did not ack this proposal; P2.1 forbids joining it
	}
	// Deliver the messages our co-survivors delivered and we missed
	// (P2.1), in an order extending causality.
	var flushStart time.Time
	if m.p.obs != nil {
		flushStart = time.Now()
	}
	// Missing is whatever lies above this process's high-water mark for
	// the sender — never a position in the flush list, which skips the
	// stamp slots of e-view changes and of messages already stable.
	var missing []pktData
	for _, d := range inst.Flush[m.view.ID] {
		if s := d.ID.Sender; d.Stamp.Get(s) > m.vc.Get(s) {
			missing = append(missing, d)
		}
	}
	for _, d := range causalTopoOrder(missing) {
		m.deliverCausal(d, true)
	}
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteFlush, Self: m.p.pid, View: m.view.ID, Proposal: inst.Proposal,
			N: len(missing), Dur: time.Since(flushStart)})
	}

	newView := EView{
		ID:        inst.Proposal,
		Members:   inst.Comp,
		Structure: inst.Structure,
	}
	m.view = newView
	m.comp = newView.Comp()
	m.resetDelivery()
	m.blocked = false
	m.blockedSince = time.Time{}
	m.ackedProp = ids.ViewID{}
	m.mismatch = 0
	// Cache the install (with its flush retransmission bodies) so the
	// reconciliation fast path can re-deliver it to a member that misses
	// the packet; fresh install means any reconcile bookkeeping is stale.
	inst.Resend = false
	m.lastInstall = inst
	m.haveInstall = true
	m.reconHold = 0
	if len(m.reconAttempts) > 0 {
		clear(m.reconAttempts)
	}
	m.storeEpoch(inst.Proposal.Epoch)
	m.p.setCur(newView)
	m.p.stats.viewsInstalled.Add(1)
	if m.p.obs != nil {
		m.p.obs.Observe(Note{Kind: NoteView, Self: m.p.pid, EView: newView})
	}
	m.p.events.Push(ViewEvent{EView: newView})

	// Optimistically assume co-members are installing the same view, so
	// the stale-member trigger does not fire during install propagation.
	for _, q := range newView.Members {
		if q != m.p.pid {
			m.peerView[q] = newView.ID
		}
	}

	// Traffic that raced ahead of this install.
	if held, ok := m.future[newView.ID]; ok {
		delete(m.future, newView.ID)
		for _, pk := range held {
			m.onCausal(pk)
		}
	}
	for v := range m.future {
		if !m.view.ID.Less(v) {
			delete(m.future, v)
		}
	}

	// Multicasts queued while blocked go out in (and tagged with) the new
	// view.
	pendingOut := m.outbox
	m.outbox = nil
	for _, payload := range pendingOut {
		m.doMulticast(payload)
	}

	// Merge requests parked during the change are replayed; those whose
	// subviews/sv-sets did not survive fail validation and vanish.
	parked := m.pendingMerges
	m.pendingMerges = nil
	for _, req := range parked {
		m.onMergeReq(req)
	}
}
