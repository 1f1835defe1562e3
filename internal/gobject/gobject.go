// Package gobject hosts group objects (Section 3's application model) on
// top of the enriched view synchrony run-time. The Host is the only owner
// of the choreography every group object shares:
//
//   - consuming the process's event stream;
//   - driving the Figure-1 mode machine from the object's mode function;
//   - classifying the shared state problem at each S-mode entry
//     (enriched local classification, or the flat announcement protocol);
//   - exchanging per-view state snapshots among the members;
//   - pulling bulk state with the transfer tool when the object says a
//     replica is behind;
//   - folding the subview structure back together (§6.2) once nobody is
//     behind, and invoking Reconcile on the mode machine.
//
// The application implements Object — its semantics (snapshots, merges,
// operation messages) — and, where it needs them, the optional
// ViewChanger, Announcers and Puller. Every object in internal/apps runs
// on this host.
//
// The one e-change / reconcile rule. E-view changes never re-drive the
// mode machine: they only grow the structure (application merges), so
// they cannot degrade a capability, while re-evaluating the mode function
// mid-merge Reconfigures an already reconciled member back into S with no
// settle round open. A settling member reconciles as soon as the
// classification is known, every awaited snapshot is in and it needs no
// pull; it does not wait for the structure merges to round-trip, which
// would strand it whenever a merge stalls behind another view change.
// The undisturbed-N property of the enriched quorum mode function lives
// in the view-change step, which this rule leaves alone.
package gobject

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/sstate"
	"repro/internal/stable"
	"repro/internal/transfer"
	"repro/internal/transport"
)

// Metric names the host registers (ROADMAP: metrics over the
// group-object layer). Classification counters are the prefix plus the
// sstate.Kind label ("gobject.classifications.Transfer").
const (
	// MetricSnapAnnounces counts snapshot announcements multicast by
	// this host (one per view change, one per completed pull, and the
	// retries of an open settle round).
	MetricSnapAnnounces = "gobject.snap_announces"
	// MetricSnapMerges counts peer snapshots folded into local state.
	MetricSnapMerges = "gobject.snap_merges"
	// MetricPulls counts completed bulk state transfers.
	MetricPulls = "gobject.pulls"
	// MetricPullDuration is the request-to-done latency of bulk pulls,
	// in seconds.
	MetricPullDuration = "gobject.pull_duration_s"
	// MetricReconciles counts successful Reconcile transitions.
	MetricReconciles = "gobject.reconciles"
	// MetricClassifyPrefix prefixes per-kind shared-state
	// classification counters.
	MetricClassifyPrefix = "gobject.classifications."
)

// pullDurationBuckets spans sub-millisecond simulated pulls up to
// multi-second bulk transfers; override per registry with SetBuckets.
var pullDurationBuckets = obs.LogLinearBuckets(0.0001, 10, 3)

// retryEvery paces the settle-round retries: an announcement, pull or
// merge request can be refused (ErrBlocked) or deferred past its view by
// a racing view change, and without retries a quiet group would never
// complete the round.
const retryEvery = 200 * time.Millisecond

// Errors returned by the Host API.
var (
	// ErrNotServing is returned by Multicast outside N-mode.
	ErrNotServing = errors.New("gobject: not in N-mode")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("gobject: closed")
)

// Object is the application-specific part of a group object. All methods
// are invoked from the host's single event-loop goroutine, with no host
// lock held; the object must do its own locking only if the application
// reads its state from other goroutines.
type Object interface {
	// Bind is called once, before the event loop starts, with the host
	// that runs the object. It returns the object's mode function (§3:
	// shared by all members).
	Bind(h *Host) modes.Func
	// WasNormal is the classifier judgment: did this cluster serve
	// external operations in N-mode before the change?
	WasNormal(cluster ids.PIDSet) bool
	// Snapshot serializes the reconciliation state this member announces
	// at a view change (versions, digests, or the whole state when it is
	// small — see Puller for the rest).
	Snapshot() ([]byte, error)
	// MergeSnapshot folds a member's announced snapshot into local
	// state. It must be idempotent and order-insensitive (a semilattice
	// join): snapshots arrive in any order and are re-announced.
	MergeSnapshot(from ids.PID, snap []byte) error
	// Apply handles an ordinary application message.
	Apply(m core.MsgEvent)
}

// ViewChanger is implemented by objects with per-view state of their
// own. ViewChange runs at every view installation after the mode machine
// stepped and before the snapshot is taken, so what it changes (a lock
// freed because its holder left, pending operations failed) is what the
// member announces.
type ViewChanger interface {
	ViewChange(v core.EView)
}

// Announcers is implemented by objects that do not need a snapshot from
// every member: it names the members that announce in v and whose
// snapshots a settle round awaits (possibly none). The default is the
// whole composition.
type Announcers interface {
	Announcers(v core.EView) ids.PIDSet
}

// Puller is implemented by objects whose snapshot is not their whole
// state: behind replicas pull the bulk from a donor with the transfer
// tool.
type Puller interface {
	transfer.App
	// Behind judges, from the snapshot table every member shares, whether
	// member q still lacks state some member holds, and names a donor.
	// The host asks it about itself to decide on a pull, and about every
	// member before the sequencer merges the structure (§6.2: members of
	// a subview hold the same state).
	Behind(q ids.PID, snaps map[ids.PID][]byte) (donor ids.PID, behind bool)
}

// Config parametrizes a Host.
type Config struct {
	// Enriched selects §6.2 local classification; false runs the flat
	// announcement protocol.
	Enriched bool
	// Transfer configures the bulk transfer tool.
	Transfer transfer.Options
	// Metrics is the registry the host's counters and histograms are
	// registered in. Nil gets a private per-host registry, which keeps
	// Stats a per-host reading; passing one shared registry aggregates
	// the gobject.* metrics group-wide (and Stats then reports group
	// totals at every member).
	Metrics *obs.Registry
}

// Stats counts host activity. It is a point-in-time view over the
// host's obs metrics (see the Metric constants), kept for harnesses
// that want plain numbers without a registry snapshot.
type Stats struct {
	Classifications map[sstate.Kind]int
	Pulls           int
	Reconciles      int
}

// ModeStats is a copy of the mode machine's bookkeeping, safe to read
// from any goroutine.
type ModeStats struct {
	History   []modes.Step
	Counts    map[modes.Transition]int
	Residency map[modes.Mode]time.Duration
}

// Host runs one replica of a group object.
type Host struct {
	p        *core.Process
	obj      Object
	enriched bool
	modeFn   modes.Func
	observer core.Observer  // the process's, for mode steps; nil when off
	puller   Puller         // nil when the snapshot is the whole state
	tool     *transfer.Tool // nil exactly when puller is

	// mu guards what API calls on other goroutines read.
	mu      sync.Mutex
	machine *modes.Machine
	closed  bool

	// round belongs to the event-loop goroutine; before the first view
	// it is an empty one with nothing to do.
	round     *round
	pullStart time.Time

	// Metric handles (lock-free); classCounters is the lazily built
	// per-classification-kind cache, guarded by statsMu.
	reg           *obs.Registry
	snapAnnounces *obs.Counter
	snapMerges    *obs.Counter
	pulls         *obs.Counter
	reconciles    *obs.Counter
	pullDuration  *obs.Histogram

	statsMu       sync.Mutex
	classCounters map[sstate.Kind]*obs.Counter

	done chan struct{}
}

// round is the reconciliation state of one installed view.
type round struct {
	id ids.ViewID
	// want holds the members whose snapshot the round awaits, snaps what
	// arrived (from anyone, in this view).
	want  ids.PIDSet
	snaps map[ids.PID][]byte
	// settling is true from an S-mode entry until Reconcile.
	settling   bool
	classified bool
	pulling    bool
	// proto and flatAnn are the flat classification round and this
	// member's claim in it, kept verbatim for the retries: re-deriving
	// it would report the wrong predecessor mode.
	proto   *sstate.Protocol
	flatAnn []byte
	// mergeDuty is set while this member is the sequencer of an enriched
	// view with more than one subview; mergeAsked until the request
	// shows up as an e-change or the retry tick clears it.
	mergeDuty  bool
	mergeAsked bool
}

// snapMagic prefixes an announced snapshot; the body is the object's own
// encoding and the sender is the message's.
var snapMagic = []byte("\x01gobject2\x00")

// Open starts a replica of obj at the given site.
func Open(fabric transport.Transport, reg *stable.Registry, site string, coreOpts core.Options, cfg Config, obj Object) (*Host, error) {
	coreOpts.Enriched = cfg.Enriched
	coreOpts.LogViews = true
	p, err := core.Start(fabric, reg, site, coreOpts)
	if err != nil {
		return nil, fmt.Errorf("gobject: %w", err)
	}
	mreg := cfg.Metrics
	if mreg == nil {
		mreg = obs.NewRegistry()
	}
	h := &Host{
		p:             p,
		obj:           obj,
		enriched:      cfg.Enriched,
		observer:      coreOpts.Observer,
		reg:           mreg,
		snapAnnounces: mreg.Counter(MetricSnapAnnounces),
		snapMerges:    mreg.Counter(MetricSnapMerges),
		pulls:         mreg.Counter(MetricPulls),
		reconciles:    mreg.Counter(MetricReconciles),
		pullDuration:  mreg.Histogram(MetricPullDuration, pullDurationBuckets),
		classCounters: make(map[sstate.Kind]*obs.Counter),
		round:         &round{},
		done:          make(chan struct{}),
	}
	if pl, ok := obj.(Puller); ok {
		h.puller = pl
		h.tool = transfer.New(p, pl, cfg.Transfer)
	}
	h.modeFn = obj.Bind(h)
	go h.run()
	return h, nil
}

// Process exposes the underlying process.
func (h *Host) Process() *core.Process { return h.p }

// Mode returns the current Figure-1 mode.
func (h *Host) Mode() modes.Mode {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.machine == nil {
		return modes.Settling
	}
	return h.machine.Mode()
}

// ModeStats returns a copy of the mode machine's history, transition
// counts and residency, taken under the host's lock (the machine itself
// is stepped by the event loop and is not safe to share).
func (h *Host) ModeStats() ModeStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.machine == nil {
		return ModeStats{}
	}
	return ModeStats{
		History:   h.machine.History(),
		Counts:    h.machine.Counts(),
		Residency: h.machine.Residency(),
	}
}

// Closed reports whether Close was called.
func (h *Host) Closed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Metrics returns the registry the host's gobject.* metrics live in
// (the Config.Metrics registry, or the private one created for the
// host).
func (h *Host) Metrics() *obs.Registry { return h.reg }

// Stats returns a snapshot of the host counters, read back from the
// metrics registry.
func (h *Host) Stats() Stats {
	out := Stats{
		Pulls:      int(h.pulls.Value()),
		Reconciles: int(h.reconciles.Value()),
	}
	h.statsMu.Lock()
	out.Classifications = make(map[sstate.Kind]int, len(h.classCounters))
	for k, c := range h.classCounters {
		out.Classifications[k] = int(c.Value())
	}
	h.statsMu.Unlock()
	return out
}

// Multicast sends an external-operation message; allowed only in N-mode.
func (h *Host) Multicast(payload []byte) error {
	if h.Closed() {
		return ErrClosed
	}
	if h.Mode() != modes.Normal {
		return ErrNotServing
	}
	return h.p.Multicast(payload)
}

// Close leaves the group.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	h.p.Leave()
	<-h.done
}

func (h *Host) run() {
	defer close(h.done)
	tick := time.NewTicker(retryEvery)
	defer tick.Stop()
	events := h.p.Events()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			switch e := ev.(type) {
			case core.ViewEvent:
				h.onView(e.EView)
			case core.EChangeEvent:
				h.onStructure(e.EView)
			case core.MsgEvent:
				h.onMsg(e)
			}
		case <-tick.C:
			h.round.mergeAsked = false
			if h.round.settling {
				h.announce()
			}
		}
		h.advance()
	}
}

func (h *Host) onView(v core.EView) {
	self := h.p.PID()
	h.mu.Lock()
	prevMode, prevView := modes.Settling, ids.ViewID{}
	if h.machine == nil {
		h.machine = modes.NewMachine(h.modeFn, v)
		if o := h.observer; o != nil {
			h.machine.Observe(func(st modes.Step, dwell time.Duration) {
				o.Observe(core.Note{Kind: core.NoteModeStep, Self: self, View: st.View,
					From: st.From.String(), To: st.To.String(), Label: st.Label.String(), Dur: dwell})
			})
		}
	} else {
		prevMode, prevView = h.machine.Mode(), h.machine.View().ID
		h.machine.OnView(v)
	}
	settling := h.machine.Mode() == modes.Settling
	h.mu.Unlock()

	if h.tool != nil {
		h.tool.Abort()
	}
	if vc, ok := h.obj.(ViewChanger); ok {
		vc.ViewChange(v)
	}
	r := &round{id: v.ID, want: v.Comp(), snaps: make(map[ids.PID][]byte), settling: settling}
	if an, ok := h.obj.(Announcers); ok {
		r.want = an.Announcers(v)
	}
	if h.enriched {
		if settling {
			h.classify(r, sstate.ClassifyEnriched(v, h.obj.WasNormal))
		}
	} else {
		if settling {
			r.proto = sstate.NewProtocol(v)
		}
		// Every member states where it comes from, whatever its mode:
		// the settlers' classification needs all of them.
		r.flatAnn, _ = sstate.Announcement(self, prevView, prevMode)
	}
	h.round = r
	h.onStructure(v)
	h.announce()
}

// onStructure notes whether the view's structure still needs folding
// and by whom; e-view changes do nothing else (see the package comment).
func (h *Host) onStructure(v core.EView) {
	min, _ := v.Comp().Min()
	h.round.mergeDuty = h.enriched && min == h.p.PID() && v.Structure.NumSubviews() > 1
	h.round.mergeAsked = false
}

// announce multicasts this member's snapshot, if the round awaits it,
// and its flat-protocol claim. Members announce in every mode: settlers
// reconcile from the answers of those that kept serving.
func (h *Host) announce() {
	r := h.round
	if r.want.Has(h.p.PID()) {
		if snap, err := h.obj.Snapshot(); err == nil {
			r.snaps[h.p.PID()] = snap
			h.snapAnnounces.Inc()
			_ = h.p.Multicast(append(append([]byte{}, snapMagic...), snap...))
		}
	}
	if r.flatAnn != nil {
		_ = h.p.Multicast(r.flatAnn)
	}
}

func (h *Host) classify(r *round, class sstate.Classification) {
	r.classified = true
	h.statsMu.Lock()
	c, ok := h.classCounters[class.Kind]
	if !ok {
		c = h.reg.Counter(MetricClassifyPrefix + class.Kind.String())
		h.classCounters[class.Kind] = c
	}
	h.statsMu.Unlock()
	c.Inc()
}

func (h *Host) onMsg(m core.MsgEvent) {
	r := h.round
	if h.tool != nil {
		if pr, handled, _ := h.tool.HandleMessage(m); handled {
			if pr.Done {
				r.pulling = false
				h.pulls.Inc()
				h.pullDuration.ObserveDuration(time.Since(h.pullStart))
				h.announce() // peers learn we caught up
			}
			return
		}
	}
	if sstate.IsInfo(m.Payload) {
		if r.proto != nil && !r.classified && m.View == r.id {
			if done, _ := r.proto.Offer(m); done {
				if class, err := r.proto.Classify(); err == nil {
					h.classify(r, class)
				}
			}
		}
		return
	}
	if bytes.HasPrefix(m.Payload, snapMagic) {
		if m.View == r.id {
			snap := m.Payload[len(snapMagic):]
			r.snaps[m.From] = snap
			h.snapMerges.Inc()
			_ = h.obj.MergeSnapshot(m.From, snap)
		}
		return
	}
	h.obj.Apply(m)
}

// advance drives the settle round and the sequencer's merge duty. It
// runs after every event and retry tick and returns at once when the
// view is reconciled and folded, which is the steady state.
func (h *Host) advance() {
	r := h.round
	if !r.settling && !r.mergeDuty {
		return
	}
	view := h.p.CurrentView()
	if view.ID != r.id {
		return // the process is ahead; its ViewEvent is queued
	}
	for p := range r.want {
		if _, ok := r.snaps[p]; !ok {
			return
		}
	}

	// Settler: pull if the object says this replica is behind, otherwise
	// the shared state is reconstructed.
	if r.settling && r.classified && !r.pulling {
		if donor, behind := h.behind(h.p.PID(), r); behind {
			r.pulling = true
			h.pullStart = time.Now()
			_ = h.tool.Request(donor)
		} else {
			h.mu.Lock()
			_, err := h.machine.Reconcile()
			h.mu.Unlock()
			if err == nil {
				r.settling = false
				h.reconciles.Inc()
			}
		}
	}

	// Sequencer: fold the structure once nobody is behind (Behind judges
	// from the same snapshot table everywhere): sv-sets first, then,
	// driven by the resulting e-change, the subviews.
	if r.mergeDuty && !r.mergeAsked {
		for _, q := range view.Members {
			if _, behind := h.behind(q, r); behind {
				return
			}
		}
		r.mergeAsked = true
		if sss := view.Structure.SVSets(); len(sss) > 1 {
			_ = h.p.SVSetMerge(sss...)
		} else {
			_ = h.p.SubviewMerge(view.Structure.Subviews()...)
		}
	}
}

func (h *Host) behind(q ids.PID, r *round) (ids.PID, bool) {
	if h.puller == nil {
		return ids.PID{}, false
	}
	return h.puller.Behind(q, r.snaps)
}
