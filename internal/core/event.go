// Package core implements the run-time of (enriched) view synchrony: a
// partitionable group membership service integrated with reliable
// multicast, satisfying the paper's Section-2 properties —
//
//	P2.1 Agreement:  processes that survive from one view to the same
//	                 next view deliver the same set of messages;
//	P2.2 Uniqueness: a message is delivered in at most one view (the view
//	                 it was multicast in);
//	P2.3 Integrity:  a message is delivered at most once per process and
//	                 only if some process multicast it;
//
// — extended with the Section-6 enriched-view service: views carry a
// subview / sv-set structure that shrinks on failures and grows only via
// application-requested merges, with e-view changes totally ordered
// within a view (P6.1), forming consistent cuts (P6.2), and preserved
// across view changes (P6.3).
//
// Each process runs a single event-loop goroutine owning all protocol
// state; the application talks to it through Process's methods and
// consumes events from Process.Events.
package core

import (
	"time"

	"repro/internal/clock"
	"repro/internal/evs"
	"repro/internal/ids"
	"repro/internal/transport/wire"
)

// EView is an enriched view as delivered to the application: the agreed
// composition plus the subview / sv-set structure. For a process running
// with Options.Enriched == false the structure is the degenerate single
// subview in a single sv-set (the traditional, "flat" view abstraction).
type EView struct {
	// ID identifies the view; totally ordered along any process history.
	ID ids.ViewID
	// Members is the agreed composition, sorted.
	Members []ids.PID
	// Structure is the subview / sv-set decomposition, including the
	// effect of every e-view change applied so far in this view.
	Structure evs.Structure
	// Changes counts the e-view changes applied within this view (zero
	// right after installation).
	Changes uint32
}

// Comp returns the composition as a fresh PIDSet.
func (v EView) Comp() ids.PIDSet { return ids.NewPIDSet(v.Members...) }

// Size returns the number of members.
func (v EView) Size() int { return len(v.Members) }

// HasMember reports whether p is in the view.
func (v EView) HasMember(p ids.PID) bool {
	for _, m := range v.Members {
		if m == p {
			return true
		}
	}
	return false
}

// Cluster returns the members of p's subview — the processes whose
// structure proves they have been together since their last application
// merge. The §6.2 methodology runs external operations within this set.
func (v EView) Cluster(p ids.PID) ids.PIDSet {
	sv, ok := v.Structure.SubviewOf(p)
	if !ok {
		return nil
	}
	return v.Structure.SubviewMembers(sv)
}

// CoSubview reports whether p and q currently share a subview.
func (v EView) CoSubview(p, q ids.PID) bool {
	sp, okP := v.Structure.SubviewOf(p)
	sq, okQ := v.Structure.SubviewOf(q)
	return okP && okQ && sp == sq
}

// Event is what the run-time delivers to the application. The concrete
// types are MsgEvent, ViewEvent, and EChangeEvent.
type Event interface{ isEvent() }

// MsgEvent is the delivery of an application multicast.
type MsgEvent struct {
	// ID is the message identifier (sender + per-sender sequence).
	ID ids.MsgID
	// From is the multicasting process.
	From ids.PID
	// View is the view the message was multicast — and is delivered — in.
	View ids.ViewID
	// Payload is the application payload. Do not mutate.
	Payload []byte
	// Stamp is the sender's vector timestamp for the multicast; the
	// delivery order respects causality within the view.
	Stamp clock.Vector
	// Flushed reports that the delivery happened during the flush phase
	// of a view change (the message was delivered by a peer surviving
	// with us, so Agreement forces it into our history too).
	Flushed bool
	// Unicast reports that the message was addressed to this process
	// alone (Process.Unicast). Unicasts keep Uniqueness and Integrity
	// but are outside the Agreement property.
	Unicast bool
}

func (MsgEvent) isEvent() {}

// ViewEvent is the installation of a new view (a view change).
type ViewEvent struct {
	EView EView
}

func (ViewEvent) isEvent() {}

// EChangeKind says which merge operation caused an e-view change. The
// concrete type lives in internal/transport/wire (it appears in wire
// packets); core re-exports it.
type EChangeKind = wire.EChangeKind

// E-view change kinds.
const (
	EChangeSubviewMerge = wire.EChangeSubviewMerge
	EChangeSVSetMerge   = wire.EChangeSVSetMerge
)

// EChangeEvent is an e-view change within the current view: the view
// composition is unchanged but the subview / sv-set structure evolved by
// an application-requested merge.
type EChangeEvent struct {
	// EView is the enriched view after applying the change.
	EView EView
	// Kind is the merge operation applied.
	Kind EChangeKind
	// Seq is the change's sequence number within the view (1-based);
	// all members apply e-view changes in identical Seq order (P6.1).
	Seq uint32
	// NewSubview is set for SubviewMerge: the merged subview.
	NewSubview ids.SubviewID
	// NewSVSet is set for SVSetMerge: the merged sv-set.
	NewSVSet ids.SVSetID
	// Stamp is the sequencer's vector timestamp for the change; e-view
	// changes are delivered causally, making each a consistent cut
	// (P6.2).
	Stamp clock.Vector
}

func (EChangeEvent) isEvent() {}

// Observer is the one sink for everything the run-time reports about a
// process: the externally meaningful events (sends, deliveries, view
// installs, e-view changes), the protocol-internal instrumentation
// (failure-detector transitions, membership rounds, flush and tick
// timing, per-kind packet accounting) and a group-object host's mode
// steps. A nil Options.Observer means off: no note is built and nothing
// is timed. Observe runs synchronously on the emitting goroutine (the
// protocol loop, or the host's event loop for mode steps), so it must be
// fast and must not call back into the Process.
type Observer interface {
	Observe(n Note)
}

// NoteKind says what a Note reports, and so which of its fields are set.
type NoteKind uint8

// Note kinds. Each comment names the fields the kind sets besides Kind
// and Self.
const (
	// NoteSend: Self multicast (or unicast) Msg in View.
	NoteSend NoteKind = iota + 1
	// NoteDeliver: Self delivered Msg, multicast in View with Stamp.
	// Label is the delivery path: "" causal, "flush" during a view
	// change's flush phase, "unicast" for Process.Unicast.
	NoteDeliver
	// NoteView: Self installed EView.
	NoteView
	// NoteEChange: Self applied the e-view change number N, of kind
	// Change and vector timestamp Stamp, giving EView; NewSubview or
	// NewSVSet is what the merge created.
	NoteEChange
	// NoteMergeRequest: Self submitted a merge of kind Change; the
	// matching NoteEChange marks its completion.
	NoteMergeRequest
	// NoteSuspect: Self's failure detector flipped its opinion of Peer;
	// Flag is set when Peer became suspected, clear when a liveness
	// indication (including first contact) cleared it. The first
	// suspicion after an install starts the view-change latency.
	NoteSuspect
	// NoteHeartbeatGap: a liveness indication from Peer, Dur after the
	// previous one.
	NoteHeartbeatGap
	// NoteTimeout: an adaptive detector (Options.AdaptiveFD) set Peer's
	// effective suspicion timeout to Dur.
	NoteTimeout
	// NotePropose: Self started coordinating the membership round for
	// proposal View over N members; Flag is set when the round replaces
	// one whose acks timed out.
	NotePropose
	// NoteBlock: Self acked proposal View and blocked multicasting (the
	// flush discipline).
	NoteBlock
	// NoteFlush: Self flushed View on the way to installing Proposal,
	// delivering N missed messages from co-survivors in Dur.
	NoteFlush
	// NoteReproposal: Self starts a round only because co-member Peer
	// advertises view Proposal while Self is in View; with the
	// reconciliation fast path on, only once reconciling was exhausted
	// or impossible.
	NoteReproposal
	// NoteReconcile: Self re-sent its cached install of View to Peer,
	// which advertises an older view over the same composition; N counts
	// the re-sends to Peer since the install.
	NoteReconcile
	// NotePktSent and NotePktRecv: one protocol packet of fabric kind
	// Label and nominal size N bytes.
	NotePktSent
	NotePktRecv
	// NoteTick: one housekeeping tick took Dur.
	NoteTick
	// NoteLoopHealth: at a tick N events were queued toward the
	// application and the tick fired Dur later than its period.
	NoteLoopHealth
	// NoteModeStep: a group object's Figure-1 machine took edge Label
	// from mode From to mode To in View, after Dur in From.
	NoteModeStep
)

// Note is one observation, passed by value; fields its Kind does not set
// are zero.
type Note struct {
	Kind           NoteKind
	Self, Peer     ids.PID
	View, Proposal ids.ViewID
	Msg            ids.MsgID
	Stamp          clock.Vector
	EView          EView
	Change         EChangeKind
	NewSubview     ids.SubviewID
	NewSVSet       ids.SVSetID
	N              int
	Dur            time.Duration
	Flag           bool
	// Label, From and To are constant strings (a packet-kind label, a
	// delivery path, a Figure-1 edge label and modes), never built per
	// note.
	Label, From, To string
}
