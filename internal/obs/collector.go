package obs

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ids"
)

// Metric names the Collector registers. Per-packet-kind counters are
// the listed prefixes plus the fabric kind label ("data", "hb",
// "propose", "ack", "install", "echange", "mergereq", "other").
const (
	// Counters.
	MetricViewInstalls  = "view.installs"
	MetricViewProposals = "view.proposals"
	MetricViewRetries   = "view.proposal_retries"
	MetricViewBlocks    = "view.blocks"
	MetricSuspicions    = "fd.suspicions"
	// MetricFalseSuspicions counts suspicions later revoked by a fresh
	// liveness indication from the same incarnation — i.e. the peer was
	// alive the whole time (a crashed site returns as a new PID, so its
	// suspicion is never cleared). Forced suspicions that get cleared
	// count too: they are false by construction.
	MetricFalseSuspicions = "fd.false_suspicion_total"
	// MetricReproposals counts membership rounds started solely because
	// a co-member advertised a different view id with an unchanged
	// composition (peerView divergence after install propagation or an
	// asymmetric partition). These rounds are the churn the E7 10 ms
	// anomaly exposed: no detector tuning removes them, so the span
	// profiler attributes agreement latency to them separately.
	MetricReproposals = "core.reproposal_total"
	// MetricReconciles counts install re-sends by the reconciliation fast
	// path: the coordinator re-delivered its cached Install to a member
	// advertising an older view id with an unchanged composition, healing
	// the divergence without a membership round. Every reconcile is a
	// re-proposal (and its ~ProposeTimeout agree-phase outlier) avoided.
	MetricReconciles      = "core.reconcile_total"
	MetricEChangeApplied  = "echange.applied"
	MetricEChangeRequests = "echange.requests"
	MetricFlushRecovered  = "flush.recovered_msgs"
	MetricMulticasts      = "msgs.multicast"
	MetricDelivered       = "msgs.delivered"
	MetricFlushDelivered  = "msgs.flush_delivered"

	// Gauges.
	MetricGroupSize = "group.size"
	// MetricEventQueueDepth is the application event-queue depth
	// sampled at each housekeeping tick (see core.NoteLoopHealth). With
	// several processes sharing one collector the gauge holds the most
	// recent sample from any of them; per-process depth lives in
	// core.Status.
	MetricEventQueueDepth = "eventq.depth"

	// Histograms (values in seconds).
	MetricViewChangeLatency = "view.change_latency_s"
	MetricEChangeLatency    = "echange.latency_s"
	MetricFlushDuration     = "flush.duration_s"
	MetricTickDuration      = "tick.duration_s"
	// MetricTickLag records how much later than the configured period
	// each housekeeping tick fired — the event-loop overload signal
	// (core.NoteLoopHealth), as opposed to MetricTickDuration which times
	// the tick's own work.
	MetricTickLag      = "loop.tick_lag_s"
	MetricHeartbeatGap = "fd.heartbeat_gap_s"
	// MetricFDEffectiveTimeout records every adaptive-timeout update
	// (one observation per heartbeat-gap sample on processes running
	// with Options.AdaptiveFD).
	MetricFDEffectiveTimeout = "fd.effective_timeout_s"

	// Per-kind counter prefixes.
	MetricPktSentPrefix   = "pkts.sent."
	MetricPktRecvPrefix   = "pkts.recv."
	MetricBytesSentPrefix = "bytes.sent."
	MetricBytesRecvPrefix = "bytes.recv."

	// Mode metric prefixes: dwell histograms per mode being left
	// ("mode.dwell_s.N") and transition counters per Figure-1 label
	// ("mode.transitions.Failure").
	MetricModeDwellPrefix      = "mode.dwell_s."
	MetricModeTransitionPrefix = "mode.transitions."
)

// Collector is a core.Observer folding every note into a metrics
// Registry and (optionally) a Tracer. One Collector serves any number of
// processes: notes carry the process id, and per-process latency anchors
// (first suspicion to install, merge request to e-change) are tracked
// internally.
//
// Notes arrive on each process's protocol goroutine; the hot paths
// (packets, deliveries, ticks) touch only lock-free metric handles or a
// short-lived read lock on a label's handle cache.
type Collector struct {
	reg *Registry
	tr  *Tracer

	viewInstalls   *Counter
	viewProposals  *Counter
	viewRetries    *Counter
	viewBlocks     *Counter
	suspicions     *Counter
	falseSusp      *Counter
	reproposals    *Counter
	reconciles     *Counter
	echApplied     *Counter
	echRequests    *Counter
	flushRecovered *Counter
	multicasts     *Counter
	delivered      *Counter
	flushDelivered *Counter
	groupSize      *Gauge
	eventqDepth    *Gauge
	viewLatency    *Histogram
	echLatency     *Histogram
	flushDuration  *Histogram
	tickDuration   *Histogram
	tickLag        *Histogram
	heartbeatGap   *Histogram
	effTimeout     *Histogram

	// Per-label handles: packet kind for sent/recv, mode being left for
	// dwell, Figure-1 edge label for transitions.
	sent, recv family[kindCounters]
	modeDwell  family[*Histogram]
	modeTrans  family[*Counter]

	mu sync.Mutex
	// procs holds the processes with an open latency window; an entry
	// goes when its last window closes.
	procs map[ids.PID]procObs
	// susp holds the standing suspicions per (observer, peer) pair, so a
	// clear that revokes one is told from a first-contact clear.
	susp map[pidPair]struct{}
	// incs is the newest incarnation seen installing a view, per site.
	incs map[string]uint32
}

// pidPair keys per-(observer, peer) state.
type pidPair struct{ self, peer ids.PID }

// kindCounters are the msg/byte counter pair for one packet kind and
// direction.
type kindCounters struct {
	msgs  *Counter
	bytes *Counter
}

// family caches the metric handles of one labelled family (a name
// prefix plus a small-enum label), each resolved against the registry on
// the first use of its label.
type family[T any] struct {
	mu      sync.RWMutex
	m       map[string]T
	resolve func(label string) T
}

func (f *family[T]) get(label string) T {
	f.mu.RLock()
	h, ok := f.m[label]
	f.mu.RUnlock()
	if ok {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok = f.m[label]; !ok {
		if f.m == nil {
			f.m = make(map[string]T)
		}
		h = f.resolve(label)
		f.m[label] = h
	}
	return h
}

// procObs is one process's latency anchors, indexed by window; a zero
// time is a closed window.
type procObs [2]time.Time

const (
	// changeWindow runs from the first suspicion, proposal or block since
	// the last install to the next install.
	changeWindow = iota
	// mergeWindow runs from the process's merge request to its next
	// e-change.
	mergeWindow
)

// NewCollector creates a collector writing metrics to reg and, when tr
// is non-nil, trace events to tr. A nil reg gets a private registry
// (useful when only the trace is wanted).
func NewCollector(reg *Registry, tr *Tracer) *Collector {
	if reg == nil {
		reg = NewRegistry()
	}
	pair := func(msgs, bytes string) func(string) kindCounters {
		return func(kind string) kindCounters {
			return kindCounters{msgs: reg.Counter(msgs + kind), bytes: reg.Counter(bytes + kind)}
		}
	}
	c := &Collector{
		reg:            reg,
		tr:             tr,
		viewInstalls:   reg.Counter(MetricViewInstalls),
		viewProposals:  reg.Counter(MetricViewProposals),
		viewRetries:    reg.Counter(MetricViewRetries),
		viewBlocks:     reg.Counter(MetricViewBlocks),
		suspicions:     reg.Counter(MetricSuspicions),
		falseSusp:      reg.Counter(MetricFalseSuspicions),
		reproposals:    reg.Counter(MetricReproposals),
		reconciles:     reg.Counter(MetricReconciles),
		echApplied:     reg.Counter(MetricEChangeApplied),
		echRequests:    reg.Counter(MetricEChangeRequests),
		flushRecovered: reg.Counter(MetricFlushRecovered),
		multicasts:     reg.Counter(MetricMulticasts),
		delivered:      reg.Counter(MetricDelivered),
		flushDelivered: reg.Counter(MetricFlushDelivered),
		groupSize:      reg.Gauge(MetricGroupSize),
		eventqDepth:    reg.Gauge(MetricEventQueueDepth),
		viewLatency:    reg.Histogram(MetricViewChangeLatency, LatencyBuckets),
		echLatency:     reg.Histogram(MetricEChangeLatency, LatencyBuckets),
		flushDuration:  reg.Histogram(MetricFlushDuration, DurationBuckets),
		tickDuration:   reg.Histogram(MetricTickDuration, DurationBuckets),
		tickLag:        reg.Histogram(MetricTickLag, DurationBuckets),
		heartbeatGap:   reg.Histogram(MetricHeartbeatGap, GapBuckets),
		effTimeout:     reg.Histogram(MetricFDEffectiveTimeout, GapBuckets),
		procs:          make(map[ids.PID]procObs),
		susp:           make(map[pidPair]struct{}),
		incs:           make(map[string]uint32),
	}
	c.sent.resolve = pair(MetricPktSentPrefix, MetricBytesSentPrefix)
	c.recv.resolve = pair(MetricPktRecvPrefix, MetricBytesRecvPrefix)
	c.modeDwell.resolve = func(mode string) *Histogram {
		return reg.Histogram(MetricModeDwellPrefix+mode, GapBuckets)
	}
	c.modeTrans.resolve = func(label string) *Counter {
		return reg.Counter(MetricModeTransitionPrefix + label)
	}
	return c
}

var _ core.Observer = (*Collector)(nil)

// Registry returns the registry the collector writes to.
func (c *Collector) Registry() *Registry { return c.reg }

// Tracer returns the tracer, or nil when tracing is off.
func (c *Collector) Tracer() *Tracer { return c.tr }

// MarkRun forwards a run-boundary marker to the tracer (a no-op when
// tracing is off). Harnesses call it between independent simulations
// sharing one collector; see Tracer.MarkRun.
func (c *Collector) MarkRun(label string) {
	if c.tr != nil {
		c.tr.MarkRun(label)
	}
}

// Observe implements core.Observer: it updates the note's metrics and,
// when a tracer is attached, appends the note's trace event.
func (c *Collector) Observe(n core.Note) {
	revoked := false
	switch n.Kind {
	case core.NoteSend:
		c.multicasts.Inc()
	case core.NoteDeliver:
		c.delivered.Inc()
		if n.Label == "flush" {
			c.flushDelivered.Inc()
		}
	case core.NoteView:
		c.viewInstalls.Inc()
		c.groupSize.Set(int64(n.EView.Size()))
		c.closeWindow(n.Self, changeWindow, c.viewLatency)
		c.retire(n.Self)
	case core.NoteEChange:
		c.echApplied.Inc()
		c.closeWindow(n.Self, mergeWindow, c.echLatency)
	case core.NoteMergeRequest:
		c.echRequests.Inc()
		c.openWindow(n.Self, mergeWindow, true)
	case core.NoteSuspect:
		// A clear that revokes a standing suspicion of the same
		// incarnation means the peer was alive all along — a false
		// suspicion (see MetricFalseSuspicions).
		key := pidPair{n.Self, n.Peer}
		c.mu.Lock()
		_, standing := c.susp[key]
		if n.Flag {
			c.susp[key] = struct{}{}
		} else {
			delete(c.susp, key)
		}
		c.mu.Unlock()
		if n.Flag {
			c.suspicions.Inc()
			c.openWindow(n.Self, changeWindow, false)
		} else if standing {
			revoked = true
			c.falseSusp.Inc()
		}
	case core.NoteHeartbeatGap:
		c.heartbeatGap.ObserveDuration(n.Dur)
	case core.NoteTimeout:
		c.effTimeout.ObserveDuration(n.Dur)
	case core.NotePropose:
		c.viewProposals.Inc()
		if n.Flag {
			c.viewRetries.Inc()
		}
		c.openWindow(n.Self, changeWindow, false)
	case core.NoteBlock:
		c.viewBlocks.Inc()
		c.openWindow(n.Self, changeWindow, false)
	case core.NoteFlush:
		c.flushDuration.ObserveDuration(n.Dur)
		c.flushRecovered.Add(uint64(n.N))
	case core.NoteReproposal:
		c.reproposals.Inc()
		c.openWindow(n.Self, changeWindow, false)
	case core.NoteReconcile:
		// Deliberately opens no view-change window: no install follows
		// at the reconciler, so the window would stay open and
		// misattribute the next genuine change's latency.
		c.reconciles.Inc()
	case core.NotePktSent, core.NotePktRecv:
		kc := c.recv.get(n.Label)
		if n.Kind == core.NotePktSent {
			kc = c.sent.get(n.Label)
		}
		kc.msgs.Inc()
		kc.bytes.Add(uint64(n.N))
	case core.NoteTick:
		c.tickDuration.ObserveDuration(n.Dur)
	case core.NoteLoopHealth:
		c.eventqDepth.Set(int64(n.N))
		c.tickLag.ObserveDuration(n.Dur)
	case core.NoteModeStep:
		c.modeDwell.get(n.From).ObserveDuration(n.Dur)
		c.modeTrans.get(n.Label).Inc()
	}
	if c.tr != nil {
		c.trace(n, revoked)
	}
}

// trace appends n's trace event. Packet, heartbeat-gap, timeout, tick,
// loop-health and merge-request notes have none: the first five fire
// per packet or per tick, and the e-change closes the merge request.
func (c *Collector) trace(n core.Note, revoked bool) {
	var ev Event
	switch n.Kind {
	case core.NoteSend:
		ev = Event{Type: EvSend, Msg: n.Msg.String(), View: n.View.String()}
	case core.NoteDeliver:
		ev = Event{Type: EvDeliver, Msg: n.Msg.String(), View: n.View.String(), Kind: n.Label,
			Stamp: stampString(n.Stamp)}
	case core.NoteView:
		ev = Event{Type: EvInstall, View: n.EView.ID.String(), N: n.EView.Size(), Round: n.EView.ID.Epoch,
			Struct: StructureSummary(n.EView.Structure)}
	case core.NoteEChange:
		// Note carries the identifier the merge created — together with
		// the sequence number it lets the P6.1 checker compare the
		// e-change *content*, not just its position, across processes.
		ev = Event{Type: EvEChange, View: n.EView.ID.String(), Kind: n.Change.String(), N: n.N,
			Stamp: stampString(n.Stamp), Struct: StructureSummary(n.EView.Structure)}
		switch n.Change {
		case core.EChangeSubviewMerge:
			ev.Note = n.NewSubview.String()
		case core.EChangeSVSetMerge:
			ev.Note = n.NewSVSet.String()
		}
	case core.NoteSuspect:
		ev = Event{Type: EvSuspect, Peer: n.Peer.String(), Note: "cleared"}
		if n.Flag {
			ev.Note = "suspected"
		} else if revoked {
			ev.Note = "false-suspicion"
		}
	case core.NotePropose:
		ev = Event{Type: EvPropose, View: n.View.String(), N: n.N, Round: n.View.Epoch}
		if n.Flag {
			ev.Note = "retry"
		}
	case core.NoteBlock:
		ev = Event{Type: EvAck, View: n.View.String(), Round: n.View.Epoch}
	case core.NoteFlush:
		// View is the predecessor being flushed; Round, the epoch of the
		// proposal about to be installed, pins the flush to its
		// membership round for the span profiler even when proposals
		// overlap.
		ev = Event{Type: EvFlush, View: n.View.String(), Round: n.Proposal.Epoch, N: n.N, DurMS: ms(n.Dur)}
	case core.NoteReproposal:
		ev = Event{Type: EvRepropose, Peer: n.Peer.String(), View: n.View.String(), Note: n.Proposal.String()}
	case core.NoteReconcile:
		ev = Event{Type: EvReconcile, Peer: n.Peer.String(), View: n.View.String(), N: n.N}
	case core.NoteModeStep:
		ev = Event{Type: EvMode, View: n.View.String(), Kind: n.Label, DurMS: ms(n.Dur), Note: n.From + "->" + n.To}
	default:
		return
	}
	ev.PID = n.Self.String()
	c.tr.Append(ev)
}

// ms renders a duration as fractional milliseconds for Event.DurMS.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stampString renders a vector timestamp for Event.Stamp; the empty
// vector (a unicast's) renders as no stamp at all.
func stampString(v clock.Vector) string {
	if len(v) == 0 {
		return ""
	}
	return v.String()
}

// openWindow starts self's latency window w now; an open window keeps
// its start unless restart.
func (c *Collector) openWindow(self ids.PID, w int, restart bool) {
	c.mu.Lock()
	if p := c.procs[self]; restart || p[w].IsZero() {
		p[w] = time.Now()
		c.procs[self] = p
	}
	c.mu.Unlock()
}

// closeWindow ends self's latency window w, when open, as an
// observation of h, and forgets self once no window is open.
func (c *Collector) closeWindow(self ids.PID, w int, h *Histogram) {
	c.mu.Lock()
	if p := c.procs[self]; !p[w].IsZero() {
		h.ObserveDuration(time.Since(p[w]))
		p[w] = time.Time{}
		if p[changeWindow].IsZero() && p[mergeWindow].IsZero() {
			delete(c.procs, self)
		} else {
			c.procs[self] = p
		}
	}
	c.mu.Unlock()
}

// retire forgets what is kept about the older incarnations of self's
// site once self installs a view: a crashed site returns as a new PID,
// so their suspicions are never revoked and their windows never closed.
func (c *Collector) retire(self ids.PID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.incs[self.Site] >= self.Inc {
		return
	}
	c.incs[self.Site] = self.Inc
	stale := func(p ids.PID) bool { return p.Site == self.Site && p.Inc < self.Inc }
	for k := range c.susp {
		if stale(k.self) || stale(k.peer) {
			delete(c.susp, k)
		}
	}
	for p := range c.procs {
		if stale(p) {
			delete(c.procs, p)
		}
	}
}

// Tee composes observers into one that hands every note to each of
// them in order. Nil arguments are skipped; Tee returns nil when none
// remain (leaving the run-time's observation off) and the observer
// itself when only one remains. It lets an experiment's own Collector
// and the harness's (or the property checkers' Recorder) watch the same
// process without rewiring:
//
//	opts.Observer = obs.Tee(timing.Observer, tracecheck.NewRecorder())
func Tee(observers ...core.Observer) core.Observer {
	var t tee
	for _, o := range observers {
		if o != nil {
			t = append(t, o)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

// tee is a slice of sinks.
type tee []core.Observer

func (t tee) Observe(n core.Note) {
	for _, o := range t {
		o.Observe(n)
	}
}
