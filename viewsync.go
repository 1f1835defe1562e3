// Package viewsync is the public facade of the enriched view synchrony
// library — a Go implementation of the programming model of Babaoğlu,
// Bartoli and Dini, "On Programming with View Synchrony" (ICDCS 1996).
//
// The library provides, over a simulated asynchronous partitionable
// network (Fabric):
//
//   - a partitionable group membership service integrated with reliable
//     multicast satisfying the view synchrony properties — Agreement,
//     Uniqueness, Integrity (paper §2);
//   - the enriched view extension: subviews and subview-sets that shrink
//     on failures and grow only under application control, with totally
//     ordered, causally cut-consistent e-view changes whose structure
//     survives view changes (paper §6);
//   - the application model of §3: NORMAL / REDUCED / SETTLING execution
//     modes with the Figure-1 transitions;
//   - the shared state machinery of §4: classification of state
//     transfer / creation / merging problems, both locally from enriched
//     views and via the costly protocol flat views force;
//   - an Isis-style state transfer tool (§5), last-process-to-fail
//     determination, weighted voting quorums, and trace-based property
//     checkers;
//   - three complete group objects built on the model: a quorum
//     replicated file, a parallel look-up database, and a majority lock
//     manager.
//
// Quick start:
//
//	fabric := viewsync.NewFabric(viewsync.FabricConfig{})
//	defer fabric.Close()
//	reg := viewsync.NewRegistry()
//	p, err := viewsync.Start(fabric, reg, "site-a", viewsync.Options{Group: "demo", Enriched: true})
//	if err != nil { ... }
//	p.Multicast([]byte("hello"))
//	for ev := range p.Events() {
//		switch e := ev.(type) {
//		case viewsync.ViewEvent:    // new view installed
//		case viewsync.EChangeEvent: // subview / sv-set merge applied
//		case viewsync.MsgEvent:     // message delivered
//		}
//	}
//
// See examples/ for runnable programs and DESIGN.md for the paper-to-code
// map.
package viewsync

import (
	"repro/internal/admin"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/evs"
	"repro/internal/gobject"
	"repro/internal/ids"
	"repro/internal/lastfail"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/simnet"
	"repro/internal/sstate"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transfer"
	"repro/internal/transport"
	"repro/internal/transport/udp"
)

// Identifier types (paper §2: process identifiers come from an infinite
// name space; recovery yields a fresh identifier).
type (
	// PID identifies one incarnation of a process: (site, incarnation).
	PID = ids.PID
	// ViewID identifies an installed view.
	ViewID = ids.ViewID
	// MsgID identifies a multicast message.
	MsgID = ids.MsgID
	// SubviewID identifies a subview (enriched views, §6).
	SubviewID = ids.SubviewID
	// SVSetID identifies a subview-set (enriched views, §6).
	SVSetID = ids.SVSetID
	// PIDSet is a set of process identifiers.
	PIDSet = ids.PIDSet
)

// NewPIDSet builds a PIDSet from members.
func NewPIDSet(members ...PID) PIDSet { return ids.NewPIDSet(members...) }

// Network transports. Transport is the pluggable seam every run-time
// layer consumes; Fabric (the simulated network) is the default
// implementation, and UDPTransport carries the same protocol over real
// loopback/LAN sockets.
type (
	// Transport is the abstract network: endpoint attachment, broadcast
	// discovery, per-kind traffic statistics.
	Transport = transport.Transport
	// TransportEndpoint is one process's attachment to a Transport.
	TransportEndpoint = transport.Endpoint
	// Partitioner is the optional fault-injection surface of a
	// Transport (both Fabric and UDPTransport implement it).
	Partitioner = transport.Partitioner
	// Fabric is the simulated network: delays, losses, partitions.
	Fabric = simnet.Fabric
	// FabricConfig parametrizes a Fabric.
	FabricConfig = simnet.Config
	// DelayModel produces per-message latencies.
	DelayModel = simnet.DelayModel
	// FabricStats are a transport's message counters.
	FabricStats = transport.Stats
	// UDPTransport carries the protocol over real UDP sockets.
	UDPTransport = udp.Transport
	// UDPConfig parametrizes a UDPTransport.
	UDPConfig = udp.Config
)

// NewFabric creates a running fabric.
func NewFabric(cfg FabricConfig) *Fabric { return simnet.New(cfg) }

// NewUDP creates a transport over real UDP sockets (loopback by
// default); see the udp package for LAN use.
func NewUDP(cfg UDPConfig) *UDPTransport { return udp.New(cfg) }

// NewUniformDelay returns a uniform [min,max] latency model.
var NewUniformDelay = simnet.NewUniformDelay

// Stable storage (crash-surviving per-site state, §3).
type (
	// Registry hands out per-site stable stores.
	Registry = stable.Registry
	// Store is one site's permanent storage.
	Store = stable.Store
	// ViewRecord is one persisted view-log entry.
	ViewRecord = stable.ViewRecord
)

// NewRegistry creates an empty storage registry.
func NewRegistry() *Registry { return stable.NewRegistry() }

// The view synchrony run-time (§2 + §6).
type (
	// Process is a group member: the application's handle on the
	// run-time.
	Process = core.Process
	// Options configures a Process.
	Options = core.Options
	// EView is an enriched view: composition + subview/sv-set structure.
	EView = core.EView
	// Event is a delivered event; one of MsgEvent, ViewEvent,
	// EChangeEvent.
	Event = core.Event
	// MsgEvent is a message delivery.
	MsgEvent = core.MsgEvent
	// ViewEvent is a view installation.
	ViewEvent = core.ViewEvent
	// EChangeEvent is an applied e-view change.
	EChangeEvent = core.EChangeEvent
	// ProcessStats are per-process counters.
	ProcessStats = core.Stats
	// Structure is the subview / sv-set decomposition of a view.
	Structure = evs.Structure
	// Observer is the one sink for a process's Notes (tracing, metrics).
	Observer = core.Observer
	// Note is one observation: a send, delivery, install, e-change,
	// failure-detector flip, membership round, packet, tick or mode step.
	Note = core.Note
	// VectorClock is a vector timestamp.
	VectorClock = clock.Vector
)

// Start boots a new incarnation of site on the transport (a *Fabric or
// a *UDPTransport) and joins its group. See core.Start.
func Start(tr Transport, reg *Registry, site string, opts Options) (*Process, error) {
	return core.Start(tr, reg, site, opts)
}

// Run-time errors.
var (
	// ErrStopped is returned by Process methods after Leave/Crash.
	ErrStopped = core.ErrStopped
	// ErrBlocked is returned while a view change is in progress.
	ErrBlocked = core.ErrBlocked
)

// The simulation-speed timing profile every fast harness in this repo
// runs with (see vstest.FastOptions).
const (
	SimHeartbeatEvery = core.SimHeartbeatEvery
	SimSuspectAfter   = core.SimSuspectAfter
	SimTick           = core.SimTick
	SimProposeTimeout = core.SimProposeTimeout
)

// The application model (§3, Figure 1).
type (
	// Mode is a group-object execution mode (N / R / S).
	Mode = modes.Mode
	// Transition labels Figure-1 edges.
	Transition = modes.Transition
	// ModeMachine enforces the Figure-1 transitions.
	ModeMachine = modes.Machine
	// ModeFunc maps views to target modes.
	ModeFunc = modes.Func
	// ModeStep is one recorded transition.
	ModeStep = modes.Step
)

// The three modes and four transitions of Figure 1.
const (
	Normal   = modes.Normal
	Reduced  = modes.Reduced
	Settling = modes.Settling

	Failure     = modes.Failure
	Repair      = modes.Repair
	Reconfigure = modes.Reconfigure
	Reconcile   = modes.Reconcile
)

// NewModeMachine creates a Figure-1 machine for the first installed view.
func NewModeMachine(fn ModeFunc, first EView) *ModeMachine { return modes.NewMachine(fn, first) }

// Mode-function library.
var (
	// AlwaysSettle: the look-up database example (§3).
	AlwaysSettle = modes.AlwaysSettle
	// QuorumEnriched: the replicated-file example on enriched views
	// (§6.2 local reasoning).
	QuorumEnriched = modes.QuorumEnriched
	// QuorumFlat: the replicated-file example on flat views.
	QuorumFlat = modes.QuorumFlat
)

// Shared state classification (§4).
type (
	// ProblemKind is the incarnation of the shared state problem.
	ProblemKind = sstate.Kind
	// Classification is a classifier verdict with its inducing sets.
	Classification = sstate.Classification
	// WasNormal judges whether a cluster served in N-mode.
	WasNormal = sstate.WasNormal
	// FlatProtocol collects the announcement round flat views need.
	FlatProtocol = sstate.Protocol
)

// The shared-state problem kinds.
const (
	ProblemNone            = sstate.None
	ProblemTransfer        = sstate.Transfer
	ProblemCreation        = sstate.Creation
	ProblemMerging         = sstate.Merging
	ProblemTransferMerging = sstate.TransferMerging
)

// ClassifyEnriched classifies locally from an enriched view (§6.2).
func ClassifyEnriched(v EView, wasN WasNormal) Classification {
	return sstate.ClassifyEnriched(v, wasN)
}

// NewFlatProtocol starts a flat-view classification round for v.
func NewFlatProtocol(v EView) *FlatProtocol { return sstate.NewProtocol(v) }

// Quorums (weighted voting for the replicated-file example).
type (
	// Voting assigns votes to sites.
	Voting = quorum.Voting
	// RW is a read/write quorum system.
	RW = quorum.RW
)

// Quorum constructors.
var (
	// NewVoting validates a vote assignment.
	NewVoting = quorum.New
	// UniformVoting assigns one vote per site.
	UniformVoting = quorum.Uniform
	// NewRW validates read/write thresholds.
	NewRW = quorum.NewRW
	// MajorityRW builds the symmetric majority system.
	MajorityRW = quorum.MajorityRW
)

// State transfer (§5).
type (
	// TransferTool moves application state from a donor to a joiner.
	TransferTool = transfer.Tool
	// TransferApp is the application callback interface.
	TransferApp = transfer.App
	// TransferOptions configures a tool.
	TransferOptions = transfer.Options
	// TransferStrategy selects Blocking or Split shipping.
	TransferStrategy = transfer.Strategy
	// TransferProgress reports reception progress.
	TransferProgress = transfer.Progress
)

// The transfer strategies of §5.
const (
	TransferBlocking = transfer.Blocking
	TransferSplit    = transfer.Split
)

// NewTransferTool creates a transfer tool for p.
func NewTransferTool(p *Process, app TransferApp, opts TransferOptions) *TransferTool {
	return transfer.New(p, app, opts)
}

// Last-process-to-fail determination (state creation, §4).
type (
	// LastFailResult is the outcome of the determination.
	LastFailResult = lastfail.Result
)

// DetermineLastToFail analyzes persisted view logs.
func DetermineLastToFail(logs map[string][]ViewRecord) LastFailResult {
	return lastfail.Determine(logs)
}

// Group-object framework: the reusable harness for building replicated
// objects on the application model (internal/gobject).
type (
	// GroupObject is the application-specific part of a group object.
	GroupObject = gobject.Object
	// ObjectViewChanger, ObjectAnnouncers and ObjectPuller are the
	// optional parts of a GroupObject: per-view state of its own, a say
	// in who announces, and bulk state behind the snapshot.
	ObjectViewChanger = gobject.ViewChanger
	ObjectAnnouncers  = gobject.Announcers
	ObjectPuller      = gobject.Puller
	// ObjectHost runs one replica of a GroupObject: it owns the event
	// loop, the mode machine, classification, snapshot exchange, bulk
	// transfer, and structure merging. Mode steps reach the process's
	// Options.Observer as notes.
	ObjectHost = gobject.Host
	// ObjectConfig parametrizes an ObjectHost.
	ObjectConfig = gobject.Config
	// ObjectStats counts host activity.
	ObjectStats = gobject.Stats
	// ObjectModeStats is a copy of a host's mode-machine statistics.
	ObjectModeStats = gobject.ModeStats
)

// OpenObject starts a replica of obj at the given site.
func OpenObject(tr Transport, reg *Registry, site string, coreOpts Options, cfg ObjectConfig, obj GroupObject) (*ObjectHost, error) {
	return gobject.Open(tr, reg, site, coreOpts, cfg, obj)
}

// Group-object framework errors.
var (
	// ErrNotServing is returned by ObjectHost.Multicast outside N-mode.
	ErrNotServing = gobject.ErrNotServing
)

// Observability (internal/obs): a lock-cheap metrics registry and a
// structured trace facility, folded together by a Collector that is the
// run-time's Observer.
type (
	// Metrics is a named collection of counters, gauges and histograms.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-serializable copy.
	MetricsSnapshot = obs.Snapshot
	// Tracer is a bounded ring of structured protocol events.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace event.
	TraceEvent = obs.Event
	// TraceSink receives every appended trace event.
	TraceSink = obs.Sink
	// Collector turns notes into metrics and trace events.
	Collector = obs.Collector
)

// Observability constructors.
var (
	// NewMetrics creates an empty metrics registry.
	NewMetrics = obs.NewRegistry
	// NewTracer creates a trace ring with optional sinks.
	NewTracer = obs.NewTracer
	// NewCollector creates a collector over a registry and tracer.
	NewCollector = obs.NewCollector
	// NewJSONLSink writes trace events as JSON lines.
	NewJSONLSink = obs.NewJSONLSink
	// NewTextSink writes trace events as human-readable lines.
	NewTextSink = obs.NewTextSink
	// TeeObservers composes observers (e.g. a Collector and a Recorder).
	TeeObservers = obs.Tee
)

// Live runtime introspection (internal/admin): an HTTP server exposing
// the metrics registry (Prometheus text + JSON), per-member status
// snapshots, the recent trace ring, and pprof — while the group runs.
// cmd/vsmon polls a set of these endpoints and renders a group-wide
// health table.
type (
	// AdminServer serves /metrics, /metrics.json, /status, /trace and
	// /debug/pprof for a set of registered members.
	AdminServer = admin.Server
	// AdminMember is one member's introspection hooks.
	AdminMember = admin.Member
	// MemberStatus is the /status document for one member: the process
	// status plus the Figure-1 mode label.
	MemberStatus = admin.MemberStatus
	// ProcessStatus is a live snapshot of one process (view id,
	// composition, structure, per-peer detector state, proposal age,
	// loop health); see Process.StatusSnapshot.
	ProcessStatus = core.Status
	// PeerStatus is one co-member's state within a ProcessStatus.
	PeerStatus = core.PeerStatus
	// GroupMonitor turns polled member statuses into health verdicts
	// (divergence beyond a grace window, stuck proposals, staleness).
	GroupMonitor = admin.Monitor
	// GroupAssessment is one monitoring round's verdict.
	GroupAssessment = admin.Assessment
)

// NewAdmin binds addr (":0" for an ephemeral port) and serves the admin
// endpoints for reg and tr (either may be nil). Register members with
// RegisterProcess / RegisterObject; Close releases the port.
func NewAdmin(addr string, reg *Metrics, tr *Tracer) (*AdminServer, error) {
	return admin.New(addr, reg, tr)
}

// RegisterProcess exposes p on the admin server under its PID. Raw
// processes have no mode automaton, so their /status mode is "".
func RegisterProcess(s *AdminServer, p *Process) {
	s.Register(p.PID().String(), admin.Member{Status: p.StatusSnapshot})
}

// RegisterObject exposes a group-object host on the admin server under
// its PID: the process status plus its live Figure-1 mode.
func RegisterObject(s *AdminServer, h *ObjectHost) {
	s.Register(h.Process().PID().String(), admin.Member{
		Status: h.Process().StatusSnapshot,
		Mode:   func() string { return h.Mode().String() },
	})
}

// Trace checking (verifies P2.1–P2.3, P6.1–P6.3, Figure-1 edge legality
// and the flush discipline over executions).
type (
	// Recorder is a Collector tracing into memory; its Report and Verify
	// run every checker over what it recorded.
	Recorder = tracecheck.Recorder
	// TraceSummary describes the shape of a checked trace.
	TraceSummary = tracecheck.Summary
)

// NewRecorder creates an empty trace recorder.
func NewRecorder() *Recorder { return tracecheck.NewRecorder() }
