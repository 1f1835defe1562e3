package core

import "time"

// Options configures a Process. The zero value is completed with the
// defaults below, chosen for simulation speed (millisecond scale) while
// preserving the required asymmetry: suspicion timeout well above the
// fabric's delay bound estimate, proposal timeout above a round trip.
type Options struct {
	// Group names the process group to join.
	Group string

	// HeartbeatEvery is the heartbeat broadcast period.
	HeartbeatEvery time.Duration
	// SuspectAfter is the failure-detector suspicion timeout.
	SuspectAfter time.Duration
	// Tick is the protocol housekeeping period (suspicion polling,
	// proposal retry checks).
	Tick time.Duration
	// ProposeTimeout bounds how long a coordinator waits for acks before
	// re-proposing with a shrunken composition.
	ProposeTimeout time.Duration
	// MismatchDwell is how many consecutive ticks a view-id mismatch or
	// composition drift must persist before triggering a proposal;
	// filters transient disagreement during install propagation. It is
	// also how many ticks the coordinator waits after re-sending its
	// cached install to a diverging peer before acting on the divergence
	// again (another re-send, or the re-proposal escalation).
	MismatchDwell int

	// NoReconcile disables the install-reconciliation fast path: every
	// same-composition view-id divergence escalates straight to a
	// re-proposal round, as the run-time behaved before the fast path
	// existed. Ablation experiments use it.
	NoReconcile bool

	// AdaptiveFD enables per-peer adaptive suspicion timeouts: a
	// Jacobson-style smoothed mean + fd.DefaultDevK·deviation over the
	// observed heartbeat gaps, clamped to [2*HeartbeatEvery,
	// 4*SuspectAfter] — a floor above one heartbeat period so scheduling
	// noise alone cannot suspect, a ceiling that bounds detection latency
	// (and the detector's GC horizon) however jittery the fabric gets.
	// Until fd.DefaultWarmup gaps have been observed from a peer, the
	// static SuspectAfter applies to it (and SuspectAfter remains the
	// fallback for first contact).
	AdaptiveFD bool

	// Enriched enables the subview / sv-set machinery. When false the
	// process delivers flat views (single subview, single sv-set) — the
	// traditional view-synchrony baseline.
	Enriched bool

	// SingleJoin restricts proposals to grow by at most one process
	// beyond the proposer's current view, reproducing Isis's rule that
	// two consecutive views expand by at most one member (the E1
	// baseline). Shrinking is unrestricted, as in Isis.
	SingleJoin bool

	// Observer, when non-nil, receives every Note the process emits.
	Observer Observer

	// LogViews persists every installed view to the site's stable store
	// (required for last-process-to-fail determination).
	LogViews bool
}

// Default protocol timing. Exported for tests and benchmarks that need to
// compute stabilization budgets from them.
const (
	DefaultHeartbeatEvery = 5 * time.Millisecond
	DefaultSuspectAfter   = 25 * time.Millisecond
	DefaultTick           = 2 * time.Millisecond
	DefaultProposeTimeout = 40 * time.Millisecond
	DefaultMismatchDwell  = 3
)

// ReconcileAttempts bounds how many install re-sends a diverging peer
// gets before the coordinator gives up on reconciliation and escalates
// to a full re-proposal round.
const ReconcileAttempts = 3

// Simulation-speed timing profile shared by every fast harness in the
// tree; vstest.FastOptions is the harness-facing source of this profile.
const (
	SimHeartbeatEvery = 3 * time.Millisecond
	SimSuspectAfter   = 18 * time.Millisecond
	SimTick           = 2 * time.Millisecond
	SimProposeTimeout = 30 * time.Millisecond
)

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Group == "" {
		o.Group = "group"
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = DefaultSuspectAfter
	}
	if o.Tick <= 0 {
		o.Tick = DefaultTick
	}
	if o.ProposeTimeout <= 0 {
		o.ProposeTimeout = DefaultProposeTimeout
	}
	if o.MismatchDwell <= 0 {
		o.MismatchDwell = DefaultMismatchDwell
	}
	return o
}
