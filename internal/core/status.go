package core

import (
	"time"
)

// Status is a live introspection snapshot of one process: the paper's
// externally meaningful state (current view id, composition, e-view
// structure) plus the run-time health an operator watches while the
// group runs — per-peer failure-detector state, the age of any
// in-flight proposal, event-loop health, and the process counters.
//
// The protocol loop publishes a fresh Status on every housekeeping tick
// (and at every install), so a Status is at most one tick stale; AsOf
// carries the publication time so a consumer can detect a wedged loop
// (AsOf stops advancing) rather than mistake its last words for the
// present. All fields are plain data: a Status is safe to retain,
// compare, and marshal.
type Status struct {
	// PID is the process identity (site#incarnation); Site and Group
	// repeat its components for consumers that key on site names.
	PID   string `json:"pid"`
	Site  string `json:"site"`
	Group string `json:"group"`

	// ViewID, Epoch, and Members describe the current view; Structure
	// is the canonical subview/sv-set grouping summary (sv-sets joined
	// by "|", subviews by "+", members by ","), with Subviews/SVSets
	// its sizes and EChanges the e-view changes applied in this view.
	ViewID    string   `json:"view_id"`
	Epoch     uint64   `json:"epoch"`
	Members   []string `json:"members"`
	Size      int      `json:"size"`
	Structure string   `json:"structure"`
	Subviews  int      `json:"subviews"`
	SVSets    int      `json:"svsets"`
	EChanges  uint32   `json:"echanges"`

	// Blocked reports the flush discipline in force: the process acked
	// AckedProposal and multicasting is suspended until the install.
	// ProposalAge is how long the process has been blocked (or, at a
	// coordinator that is not itself blocked, how long its round has
	// been open) — the "in-flight proposal age" a watcher thresholds to
	// flag a stuck membership round.
	Blocked       bool          `json:"blocked"`
	AckedProposal string        `json:"acked_proposal,omitempty"`
	ProposalAge   time.Duration `json:"proposal_age_ns,omitempty"`

	// Coordinating reports an open coordinator round at this process:
	// CoordProposal the proposed view id, CoordAcks how many of
	// CoordSize members have acked so far.
	Coordinating  bool   `json:"coordinating,omitempty"`
	CoordProposal string `json:"coord_proposal,omitempty"`
	CoordAcks     int    `json:"coord_acks,omitempty"`
	CoordSize     int    `json:"coord_size,omitempty"`

	// Peers holds the failure-detector and divergence state for every
	// other member of the current view, sorted by PID.
	Peers []PeerStatus `json:"peers,omitempty"`

	// EventQueueLen is the application event-queue depth at AsOf;
	// TickLag how much later than Options.Tick the publishing tick
	// fired. These are the health gauges the loop feeds (see
	// NoteLoopHealth).
	EventQueueLen int           `json:"eventq_len"`
	TickLag       time.Duration `json:"tick_lag_ns"`

	// UnstableMsgs is how many delivered message bodies the process
	// retains for flush retransmission (not yet known to be delivered
	// by every member); CausalPending how many received multicasts wait
	// in the causal buffer for a predecessor. Both return to zero on an
	// idle healthy view; either one growing is an overload precursor —
	// a member that stopped reporting deliveries, or a lost message
	// holding its successors back.
	UnstableMsgs  int `json:"unstable_msgs"`
	CausalPending int `json:"causal_pending"`

	// Stats are the process counters at AsOf.
	Stats Stats `json:"stats"`

	// AsOf is when the loop published this snapshot.
	AsOf time.Time `json:"as_of"`
}

// PeerStatus is one co-member's state as seen from this process.
type PeerStatus struct {
	PID string `json:"pid"`
	// View is the view id the peer last advertised via heartbeat
	// (empty before its first heartbeat in this composition). A peer
	// persistently advertising a different view id than ours is the
	// divergence the reconciliation fast path heals.
	View string `json:"view,omitempty"`
	// Diverged flags View != our ViewID (with a non-empty View).
	Diverged bool `json:"diverged,omitempty"`
	// Suspected is the failure detector's current opinion; Timeout the
	// peer's effective suspicion timeout (adapted per peer when
	// Options.AdaptiveFD is on); SilentFor how long since the last
	// liveness indication (zero if never heard).
	Suspected bool          `json:"suspected,omitempty"`
	Timeout   time.Duration `json:"timeout_ns"`
	SilentFor time.Duration `json:"silent_for_ns"`
}

// StatusSnapshot returns the most recently published Status. It reads a
// loop-independent copy under the process mutex — never the protocol
// loop's own state and never through the request channel — so it is
// safe to call from any goroutine at any rate, and it keeps answering
// (with a stale AsOf) even if the protocol loop has wedged. The admin
// endpoint serves it; see internal/admin.
func (p *Process) StatusSnapshot() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status
}

// statusEvery is the publication floor on the tick path: at
// millisecond ticks, formatting the full view into a Status every
// single tick is measurable protocol-loop jitter, and no monitor polls
// that fast. Installs (and the bootstrap publish) bypass the floor so
// a view change is visible immediately.
const statusEvery = 25 * time.Millisecond

// publishStatus builds a Status from the machine state and stores it
// for StatusSnapshot. Runs on the protocol goroutine (tick and install
// paths); everything it publishes is freshly allocated, so later
// publications never mutate an already-returned snapshot.
func (m *machine) publishStatus(now time.Time, lag time.Duration) {
	st := Status{
		PID:       m.p.pid.String(),
		Site:      m.p.pid.Site,
		Group:     m.p.opts.Group,
		ViewID:    m.view.ID.String(),
		Epoch:     m.view.ID.Epoch,
		Size:      len(m.view.Members),
		Structure: m.view.Structure.Summary(),
		Subviews:  m.view.Structure.NumSubviews(),
		SVSets:    m.view.Structure.NumSVSets(),
		EChanges:  m.view.Changes,
		Blocked:   m.blocked,

		EventQueueLen: m.p.events.Len(),
		TickLag:       lag,
		UnstableMsgs:  m.unstableMsgs(),
		CausalPending: m.causal.Pending(),
		AsOf:          now,
	}
	st.Members = make([]string, len(m.view.Members))
	for i, q := range m.view.Members {
		st.Members[i] = q.String()
	}
	if m.blocked {
		st.AckedProposal = m.ackedProp.String()
		if !m.blockedSince.IsZero() {
			st.ProposalAge = now.Sub(m.blockedSince)
		}
	}
	if m.coord != nil {
		st.Coordinating = true
		st.CoordProposal = m.coord.prop.String()
		st.CoordAcks = len(m.coord.acks)
		st.CoordSize = len(m.coord.comp)
		if !m.blocked && !m.coord.since.IsZero() {
			st.ProposalAge = now.Sub(m.coord.since)
		}
	}
	if n := len(m.view.Members); n > 1 {
		st.Peers = make([]PeerStatus, 0, n-1)
		for _, q := range m.view.Members { // already sorted
			if q == m.p.pid {
				continue
			}
			ps := PeerStatus{
				PID:       q.String(),
				Suspected: m.det.Suspects(q, now),
				Timeout:   m.det.TimeoutFor(q),
			}
			if v, ok := m.peerView[q]; ok {
				ps.View = v.String()
				ps.Diverged = v != m.view.ID
			}
			if d, ok := m.det.SilentFor(q, now); ok {
				ps.SilentFor = d
			}
			st.Peers = append(st.Peers, ps)
		}
	}
	st.Stats = m.p.stats.snapshot()
	m.p.mu.Lock()
	m.p.status = st
	m.p.mu.Unlock()
	m.lastPublish = now
}
