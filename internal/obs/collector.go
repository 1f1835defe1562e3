package obs

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/modes"
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
	// sampled at each housekeeping tick (see
	// core.ExtendedObserver.OnLoopHealth). With several processes
	// sharing one collector the gauge holds the most recent sample from
	// any of them; per-process depth lives in core.Status.
	MetricEventQueueDepth = "eventq.depth"

	// Histograms (values in seconds).
	MetricViewChangeLatency = "view.change_latency_s"
	MetricEChangeLatency    = "echange.latency_s"
	MetricFlushDuration     = "flush.duration_s"
	MetricTickDuration      = "tick.duration_s"
	// MetricTickLag records how much later than the configured period
	// each housekeeping tick fired — the event-loop overload signal
	// (OnLoopHealth), as opposed to MetricTickDuration which times the
	// tick's own work.
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

// Collector implements core.ExtendedObserver, folding every run-time
// instrumentation hook into a metrics Registry and (optionally) a
// Tracer. One Collector serves any number of processes: events carry
// the process id, and per-process latency anchors (first suspicion to
// install, merge request to e-change) are tracked internally.
//
// Callbacks arrive on each process's protocol goroutine; the hot paths
// (packets, deliveries, ticks) touch only lock-free metric handles or a
// short-lived read lock on the per-kind counter cache.
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

	kindMu sync.RWMutex
	sent   map[string]*kindCounters
	recv   map[string]*kindCounters

	mu    sync.Mutex
	procs map[ids.PID]*procObs
	// susp is the last suspicion state seen per (observer, peer) pair,
	// used to tell a revoked (false) suspicion from a first-contact
	// clear.
	susp map[pidPair]bool
}

// pidPair keys per-(observer, peer) state.
type pidPair struct{ self, peer ids.PID }

// kindCounters are the msg/byte counter pair for one packet kind and
// direction.
type kindCounters struct {
	msgs  *Counter
	bytes *Counter
}

// procObs is the per-process latency-anchor state.
type procObs struct {
	// changeStart is when the current view change began at this process
	// (first suspicion, proposal, or block since the last install).
	changeStart time.Time
	// mergeStart is when the process last submitted a merge request.
	mergeStart time.Time
}

// NewCollector creates a collector writing metrics to reg and, when tr
// is non-nil, trace events to tr. A nil reg gets a private registry
// (useful when only the trace is wanted).
func NewCollector(reg *Registry, tr *Tracer) *Collector {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Collector{
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
		sent:           make(map[string]*kindCounters),
		recv:           make(map[string]*kindCounters),
		procs:          make(map[ids.PID]*procObs),
		susp:           make(map[pidPair]bool),
	}
}

var _ core.ExtendedObserver = (*Collector)(nil)

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

func (c *Collector) proc(pid ids.PID) *procObs {
	p, ok := c.procs[pid]
	if !ok {
		p = &procObs{}
		c.procs[pid] = p
	}
	return p
}

// markChange anchors the start of a view change at self, if not already
// anchored since the last install.
func (c *Collector) markChange(self ids.PID) {
	c.mu.Lock()
	p := c.proc(self)
	if p.changeStart.IsZero() {
		p.changeStart = time.Now()
	}
	c.mu.Unlock()
}

// ---- core.Observer ----

// OnSend implements core.Observer.
func (c *Collector) OnSend(self ids.PID, id ids.MsgID, view ids.ViewID) {
	c.multicasts.Inc()
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvSend, Msg: id.String(), View: view.String()})
}

// OnDeliver implements core.Observer.
func (c *Collector) OnDeliver(self ids.PID, ev core.MsgEvent) {
	c.delivered.Inc()
	kind := ""
	if ev.Flushed {
		c.flushDelivered.Inc()
		kind = "flush"
	} else if ev.Unicast {
		kind = "unicast"
	}
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvDeliver, Msg: ev.ID.String(), View: ev.View.String(),
		Kind: kind, Stamp: stampString(ev.Stamp)})
}

// OnView implements core.Observer: closes the view-change latency
// window opened by the first suspicion/proposal/block since the last
// install.
func (c *Collector) OnView(self ids.PID, ev core.ViewEvent) {
	c.viewInstalls.Inc()
	c.groupSize.Set(int64(ev.EView.Size()))
	c.mu.Lock()
	p := c.proc(self)
	if !p.changeStart.IsZero() {
		c.viewLatency.ObserveDuration(time.Since(p.changeStart))
		p.changeStart = time.Time{}
	}
	c.mu.Unlock()
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvInstall, View: ev.EView.ID.String(),
		N: ev.EView.Size(), Round: ev.EView.ID.Epoch, Struct: StructureSummary(ev.EView.Structure)})
}

// OnEChange implements core.Observer: closes the e-change latency
// window opened by this process's merge request, when there is one.
func (c *Collector) OnEChange(self ids.PID, ev core.EChangeEvent) {
	c.echApplied.Inc()
	c.mu.Lock()
	p := c.proc(self)
	if !p.mergeStart.IsZero() {
		c.echLatency.ObserveDuration(time.Since(p.mergeStart))
		p.mergeStart = time.Time{}
	}
	c.mu.Unlock()
	if c.tr == nil {
		return
	}
	// Note carries the identifier the merge created — together with the
	// Seq it lets the P6.1 checker compare the e-change *content*, not
	// just its position, across processes.
	note := ""
	switch ev.Kind {
	case core.EChangeSubviewMerge:
		note = ev.NewSubview.String()
	case core.EChangeSVSetMerge:
		note = ev.NewSVSet.String()
	}
	c.tr.Append(Event{PID: self.String(), Type: EvEChange, View: ev.EView.ID.String(),
		Kind: ev.Kind.String(), N: int(ev.Seq), Note: note, Stamp: stampString(ev.Stamp),
		Struct: StructureSummary(ev.EView.Structure)})
}

// stampString renders a vector timestamp for Event.Stamp; the empty
// vector (a unicast's) renders as no stamp at all.
func stampString(v clock.Vector) string {
	if len(v) == 0 {
		return ""
	}
	return v.String()
}

// ---- core.ExtendedObserver ----

// OnSuspectChange implements core.ExtendedObserver. A clear that revokes
// a standing suspicion of the same incarnation means the peer was alive
// all along — a false suspicion (see MetricFalseSuspicions).
func (c *Collector) OnSuspectChange(self, peer ids.PID, suspected bool) {
	key := pidPair{self, peer}
	c.mu.Lock()
	wasSuspected := c.susp[key]
	c.susp[key] = suspected
	c.mu.Unlock()
	note := "cleared"
	if suspected {
		note = "suspected"
		c.suspicions.Inc()
		c.markChange(self)
	} else if wasSuspected {
		note = "false-suspicion"
		c.falseSusp.Inc()
	}
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvSuspect, Peer: peer.String(), Note: note})
}

// OnHeartbeatGap implements core.ExtendedObserver.
func (c *Collector) OnHeartbeatGap(_, _ ids.PID, gap time.Duration) {
	c.heartbeatGap.ObserveDuration(gap)
}

// OnEffectiveTimeout implements core.ExtendedObserver.
func (c *Collector) OnEffectiveTimeout(_, _ ids.PID, timeout time.Duration) {
	c.effTimeout.ObserveDuration(timeout)
}

// OnPropose implements core.ExtendedObserver.
func (c *Collector) OnPropose(self ids.PID, proposal ids.ViewID, members int, retry bool) {
	c.viewProposals.Inc()
	note := ""
	if retry {
		c.viewRetries.Inc()
		note = "retry"
	}
	c.markChange(self)
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvPropose, View: proposal.String(),
		N: members, Round: proposal.Epoch, Note: note})
}

// OnBlock implements core.ExtendedObserver.
func (c *Collector) OnBlock(self ids.PID, proposal ids.ViewID) {
	c.viewBlocks.Inc()
	c.markChange(self)
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvAck, View: proposal.String(), Round: proposal.Epoch})
}

// OnFlush implements core.ExtendedObserver. View is the predecessor
// view being flushed; Round is the epoch of the proposal about to be
// installed, pinning the flush to its membership round for the span
// profiler even when proposals overlap.
func (c *Collector) OnFlush(self ids.PID, pred, proposal ids.ViewID, recovered int, d time.Duration) {
	c.flushDuration.ObserveDuration(d)
	c.flushRecovered.Add(uint64(recovered))
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvFlush, View: pred.String(), Round: proposal.Epoch,
		N: recovered, DurMS: float64(d) / float64(time.Millisecond)})
}

// OnReproposal implements core.ExtendedObserver: a membership round is
// starting only to reunify diverged view ids (see MetricReproposals).
func (c *Collector) OnReproposal(self, peer ids.PID, ours, theirs ids.ViewID) {
	c.reproposals.Inc()
	c.markChange(self)
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvRepropose, Peer: peer.String(),
		View: ours.String(), Note: theirs.String()})
}

// OnReconcile implements core.ExtendedObserver: the coordinator is
// re-sending its cached install to a lagging co-member instead of
// starting a round (see MetricReconciles). Deliberately does NOT anchor
// a view-change window (markChange): no install follows at the
// reconciler, so anchoring would leave the window open and misattribute
// the next genuine change's latency.
func (c *Collector) OnReconcile(self, peer ids.PID, view ids.ViewID, attempt int) {
	c.reconciles.Inc()
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvReconcile, Peer: peer.String(),
		View: view.String(), N: attempt})
}

// OnPacket implements core.ExtendedObserver. Not traced (one multicast
// generates O(n) packets); per-kind counters only.
func (c *Collector) OnPacket(_ ids.PID, kind string, size int, sent bool) {
	kc := c.kind(kind, sent)
	kc.msgs.Inc()
	kc.bytes.Add(uint64(size))
}

// OnTick implements core.ExtendedObserver.
func (c *Collector) OnTick(_ ids.PID, d time.Duration) {
	c.tickDuration.ObserveDuration(d)
}

// OnLoopHealth implements core.ExtendedObserver: the event-queue depth
// gauge and the tick-lag histogram. Not traced — it fires every tick.
func (c *Collector) OnLoopHealth(_ ids.PID, queued int, lag time.Duration) {
	c.eventqDepth.Set(int64(queued))
	c.tickLag.ObserveDuration(lag)
}

// OnMergeRequest implements core.ExtendedObserver: opens the e-change
// latency window closed by OnEChange.
func (c *Collector) OnMergeRequest(self ids.PID, _ core.EChangeKind) {
	c.echRequests.Inc()
	c.mu.Lock()
	c.proc(self).mergeStart = time.Now()
	c.mu.Unlock()
}

// kind returns the counter pair for a packet kind and direction,
// creating and caching it on first use.
func (c *Collector) kind(kind string, sent bool) *kindCounters {
	m := c.recv
	if sent {
		m = c.sent
	}
	c.kindMu.RLock()
	kc, ok := m[kind]
	c.kindMu.RUnlock()
	if ok {
		return kc
	}
	c.kindMu.Lock()
	defer c.kindMu.Unlock()
	if kc, ok = m[kind]; ok {
		return kc
	}
	if sent {
		kc = &kindCounters{
			msgs:  c.reg.Counter(MetricPktSentPrefix + kind),
			bytes: c.reg.Counter(MetricBytesSentPrefix + kind),
		}
	} else {
		kc = &kindCounters{
			msgs:  c.reg.Counter(MetricPktRecvPrefix + kind),
			bytes: c.reg.Counter(MetricBytesRecvPrefix + kind),
		}
	}
	m[kind] = kc
	return kc
}

// ---- mode machine ----

// OnModeStep records a Figure-1 mode transition: a dwell-time
// observation for the mode being left, a transition counter, and a
// trace event. A gobject.Host finds this method on its process's
// Options.Observer (also through Tee) and feeds it every step of its
// mode machine; a hand-driven machine wires it with machine.Observe.
func (c *Collector) OnModeStep(self ids.PID, st modes.Step, dwell time.Duration) {
	c.reg.Histogram(MetricModeDwellPrefix+st.From.String(), GapBuckets).ObserveDuration(dwell)
	c.reg.Counter(MetricModeTransitionPrefix + st.Label.String()).Inc()
	if c.tr == nil {
		return
	}
	c.tr.Append(Event{PID: self.String(), Type: EvMode, View: st.View.String(),
		Kind: st.Label.String(), DurMS: float64(dwell) / float64(time.Millisecond),
		Note: st.From.String() + "->" + st.To.String()})
}

// ---- composition ----

// Tee composes observers into one: every core.Observer callback fans
// out to all of them, and every core.ExtendedObserver hook fans out to
// those that implement the extension. Nil arguments are skipped; Tee
// returns nil when none remain (leaving the run-time on its no-op fast
// path), and the observer itself when only one remains. It lets an
// experiment's own Collector and the harness's (or the property
// checkers' Recorder) watch the same process without rewiring:
//
//	opts.Observer = obs.Tee(timing.Observer, tracecheck.NewRecorder())
func Tee(observers ...core.Observer) core.Observer {
	list := make([]core.Observer, 0, len(observers))
	for _, o := range observers {
		if o != nil {
			list = append(list, o)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	}
	t := tee(list)
	var ext []core.ExtendedObserver
	for _, o := range list {
		if e, ok := o.(core.ExtendedObserver); ok {
			ext = append(ext, e)
		}
	}
	if len(ext) == 0 {
		return t
	}
	return &teeExt{tee: t, ext: ext}
}

// tee fans the plain Observer callbacks out to every member.
type tee []core.Observer

func (t tee) OnSend(self ids.PID, id ids.MsgID, view ids.ViewID) {
	for _, o := range t {
		o.OnSend(self, id, view)
	}
}

func (t tee) OnDeliver(self ids.PID, ev core.MsgEvent) {
	for _, o := range t {
		o.OnDeliver(self, ev)
	}
}

func (t tee) OnView(self ids.PID, ev core.ViewEvent) {
	for _, o := range t {
		o.OnView(self, ev)
	}
}

func (t tee) OnEChange(self ids.PID, ev core.EChangeEvent) {
	for _, o := range t {
		o.OnEChange(self, ev)
	}
}

// ModeStepSink is the part of an observer that records Figure-1 mode
// steps. A gobject.Host looks for it on its process's Options.Observer;
// Collector (hence tracecheck.Recorder) and Tee have it.
type ModeStepSink interface {
	OnModeStep(self ids.PID, st modes.Step, dwell time.Duration)
}

// OnModeStep forwards a group-object host's mode step to the members
// that record them.
func (t tee) OnModeStep(self ids.PID, st modes.Step, dwell time.Duration) {
	for _, o := range t {
		if s, ok := o.(ModeStepSink); ok {
			s.OnModeStep(self, st, dwell)
		}
	}
}

// teeExt additionally fans the extended hooks out to the members that
// implement them.
type teeExt struct {
	tee
	ext []core.ExtendedObserver
}

func (t *teeExt) OnSuspectChange(self, peer ids.PID, suspected bool) {
	for _, o := range t.ext {
		o.OnSuspectChange(self, peer, suspected)
	}
}

func (t *teeExt) OnHeartbeatGap(self, peer ids.PID, gap time.Duration) {
	for _, o := range t.ext {
		o.OnHeartbeatGap(self, peer, gap)
	}
}

func (t *teeExt) OnEffectiveTimeout(self, peer ids.PID, timeout time.Duration) {
	for _, o := range t.ext {
		o.OnEffectiveTimeout(self, peer, timeout)
	}
}

func (t *teeExt) OnPropose(self ids.PID, proposal ids.ViewID, members int, retry bool) {
	for _, o := range t.ext {
		o.OnPropose(self, proposal, members, retry)
	}
}

func (t *teeExt) OnBlock(self ids.PID, proposal ids.ViewID) {
	for _, o := range t.ext {
		o.OnBlock(self, proposal)
	}
}

func (t *teeExt) OnFlush(self ids.PID, pred, proposal ids.ViewID, recovered int, d time.Duration) {
	for _, o := range t.ext {
		o.OnFlush(self, pred, proposal, recovered, d)
	}
}

func (t *teeExt) OnReproposal(self, peer ids.PID, ours, theirs ids.ViewID) {
	for _, o := range t.ext {
		o.OnReproposal(self, peer, ours, theirs)
	}
}

func (t *teeExt) OnReconcile(self, peer ids.PID, view ids.ViewID, attempt int) {
	for _, o := range t.ext {
		o.OnReconcile(self, peer, view, attempt)
	}
}

func (t *teeExt) OnPacket(self ids.PID, kind string, size int, sent bool) {
	for _, o := range t.ext {
		o.OnPacket(self, kind, size, sent)
	}
}

func (t *teeExt) OnTick(self ids.PID, d time.Duration) {
	for _, o := range t.ext {
		o.OnTick(self, d)
	}
}

func (t *teeExt) OnLoopHealth(self ids.PID, queued int, lag time.Duration) {
	for _, o := range t.ext {
		o.OnLoopHealth(self, queued, lag)
	}
}

func (t *teeExt) OnMergeRequest(self ids.PID, kind core.EChangeKind) {
	for _, o := range t.ext {
		o.OnMergeRequest(self, kind)
	}
}
