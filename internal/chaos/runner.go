package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transport"
	"repro/internal/vstest"
)

// MetricFaultPrefix prefixes the per-kind fault-injection counters the
// runner maintains in its registry: chaos.fault_total.<kind>. Packet-
// level faults count injected packets; partition, hb-starve window,
// oneway window, and crash faults count activations.
const MetricFaultPrefix = "chaos.fault_total."

const (
	// formTimeout bounds the fault-free initial formation.
	formTimeout = 30 * time.Second
	// pollEvery is the liveness oracle's polling period.
	pollEvery = 5 * time.Millisecond
)

// Config configures one plan run. The zero value runs on the simulator.
// Every run boots its group with vstest.FastOptions on vstest.NewFabric
// seeded with the plan seed, so a replay rebuilds the same simulator
// fabric.
type Config struct {
	// Transport selects the backend: "sim" (default) or "udp".
	Transport string
	// SettleTimeout is the liveness bound: after faults cease the group
	// must reconverge to one full view within it (default 15s).
	SettleTimeout time.Duration

	// Metrics, when non-nil, receives the chaos.fault_total.* counters
	// and the run's protocol metrics (an obs.Collector is attached to
	// every process); nil uses a private registry.
	Metrics *obs.Registry
	// TraceSinks receive every trace event live, in addition to the
	// in-memory sink the tracecheck gate reads (vschaos wires a
	// JSONLSink here).
	TraceSinks []obs.Sink
	// Checkers overrides the tracecheck suite the run is gated through;
	// nil means tracecheck.DefaultCheckers. Oracle-validation tests
	// inject an always-failing checker here.
	Checkers []tracecheck.Checker
}

func (c Config) withDefaults() Config {
	if c.Transport == "" {
		c.Transport = "sim"
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 15 * time.Second
	}
	return c
}

// Result is one plan run's verdict.
type Result struct {
	Plan      Plan
	Transport string

	// Violations is what the tracecheck suite found in the run's trace.
	Violations []tracecheck.Violation
	// Reconverged reports the liveness oracle: after faults ceased, the
	// group reformed one view containing every live member within
	// Config.SettleTimeout. ReconvergeIn is how long that took.
	Reconverged  bool
	ReconvergeIn time.Duration
	// OracleDetail carries the last admin.Monitor assessment's flags
	// when the oracle timed out (empty on success).
	OracleDetail string

	// FaultCounts is how many injections each fault kind performed.
	FaultCounts map[string]uint64
	// Events is the trace length the checkers ran over.
	Events int
}

// Failed reports whether the run violated an oracle: any tracecheck
// violation, or a reconvergence timeout.
func (r Result) Failed() bool { return len(r.Violations) > 0 || !r.Reconverged }

// Summary renders the verdict on one line.
func (r Result) Summary() string {
	verdict := "ok"
	if len(r.Violations) > 0 {
		verdict = fmt.Sprintf("VIOLATIONS=%d", len(r.Violations))
	} else if !r.Reconverged {
		verdict = "NO-RECONVERGE"
	}
	total := uint64(0)
	for _, n := range r.FaultCounts {
		total += n
	}
	return fmt.Sprintf("seed=%-6d %-4s faults=%d injected=%d reconverge=%v %s",
		r.Plan.Seed, r.Transport, len(r.Plan.Faults), total, r.ReconvergeIn.Round(time.Millisecond), verdict)
}

// activeFault is one fault inside its window, with its mutable budget.
type activeFault struct {
	Fault
	idx       int // plan index, the deactivation key
	remaining int // KindDrop budget left (-1 = unlimited)
}

// engine is the run-time state behind the FaultFilter predicate.
type engine struct {
	mu     sync.Mutex
	active []*activeFault
	rng    *rand.Rand
	counts map[string]uint64
	reg    *obs.Registry
}

func (e *engine) count(kind FaultKind) {
	// Callers hold e.mu.
	e.counts[string(kind)]++
	e.reg.Counter(MetricFaultPrefix + string(kind)).Inc()
}

// verdict is the FaultFilter predicate: the first matching active fault
// (in schedule order) decides. It runs under the filter lock, so the
// seeded RNG's draw sequence follows the packet order deterministically
// for a given interleaving.
func (e *engine) verdict(from, to ids.PID, payload any) transport.Verdict {
	kind, _ := transport.Describe(payload)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, af := range e.active {
		switch af.Kind {
		case KindOneWay:
			if from.Site == af.A && to.Site == af.B {
				e.count(KindOneWay)
				return transport.Drop()
			}
		case KindHBStarve:
			if kind == "hb" && from.Site == af.A {
				return transport.Drop()
			}
		case KindLoss:
			if matchPkt(af.Pkt, kind) && (af.A == "" || from.Site == af.A) && e.rng.Float64() < af.Prob {
				e.count(KindLoss)
				return transport.Drop()
			}
		case KindDrop:
			if matchPkt(af.Pkt, kind) && from.Site == af.A && (af.B == "" || to.Site == af.B) && af.remaining != 0 {
				if af.remaining > 0 {
					af.remaining--
				}
				e.count(KindDrop)
				return transport.Drop()
			}
		case KindDelay:
			if matchPkt(af.Pkt, kind) && e.rng.Float64() < af.Prob {
				e.count(KindDelay)
				return transport.Delay(time.Duration(af.DelayMS) * time.Millisecond)
			}
		case KindDup:
			if matchPkt(af.Pkt, kind) && e.rng.Float64() < af.Prob {
				e.count(KindDup)
				return transport.Duplicate()
			}
		}
	}
	return transport.Pass()
}

func matchPkt(want, got string) bool { return want == "" || want == got }

// timelineEvent is one scheduled state change: a fault (by plan
// index; -1 is the horizon marker) entering or leaving its window.
type timelineEvent struct {
	at       time.Duration
	idx      int
	activate bool
}

// Run executes one plan: form the group fault-free, run the schedule,
// cease all faults, then judge reconvergence (liveness) and the trace
// (safety). Infrastructure failures — the group never forming, a
// process failing to start — return an error; oracle verdicts live in
// the Result.
func Run(plan Plan, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Plan: plan, Transport: cfg.Transport}
	if err := plan.Validate(); err != nil {
		return res, err
	}
	plan = plan.normalized()

	fabric := vstest.NewFabric(cfg.Transport, plan.Seed)
	defer fabric.Close()
	filt := transport.NewFaultFilter(fabric)

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	mem := obs.NewMemorySink()
	tracer := obs.NewTracer(0, append([]obs.Sink{mem}, cfg.TraceSinks...)...)

	opts := vstest.FastOptions()
	opts.Group = "chaos"
	opts.Observer = obs.NewCollector(reg, tracer)

	stores := stable.NewRegistry()
	start := func(site string) (*core.Process, error) {
		p, err := core.Start(filt, stores, site, opts)
		if err != nil {
			return nil, err
		}
		go func() {
			for range p.Events() {
			}
		}()
		return p, nil
	}

	live := make(map[string]*core.Process, plan.N)
	for i := 0; i < plan.N; i++ {
		p, err := start(vstest.SiteName(i))
		if err != nil {
			return res, fmt.Errorf("chaos: start %s: %w", vstest.SiteName(i), err)
		}
		live[p.Site()] = p
	}
	if _, err := vstest.Converged(procsOf(live), formTimeout); err != nil {
		return res, fmt.Errorf("chaos: formation: %w", err)
	}

	// Fault phase. The plan seed (offset so the generator and the
	// engine never share a draw stream) drives the per-packet
	// probability faults.
	eng := &engine{
		rng:    rand.New(rand.NewSource(plan.Seed ^ 0x5DEECE66D)),
		counts: make(map[string]uint64),
		reg:    reg,
	}
	filt.Arm(eng.verdict)

	var timeline []timelineEvent
	for i, f := range plan.Faults {
		at, dur := f.Window(plan.HorizonMS)
		timeline = append(timeline, timelineEvent{at: at, idx: i, activate: true})
		timeline = append(timeline, timelineEvent{at: at + dur, idx: i})
	}
	timeline = append(timeline, timelineEvent{at: plan.Horizon(), idx: -1}) // horizon marker
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })

	t0 := time.Now()
	for _, ev := range timeline {
		if d := ev.at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		if ev.idx < 0 {
			continue // horizon marker: the sleep was the point
		}
		f := plan.Faults[ev.idx]
		switch f.Kind {
		case KindCrash:
			if ev.activate {
				if p := live[f.A]; p != nil {
					eng.mu.Lock()
					eng.count(KindCrash)
					eng.mu.Unlock()
					p.Crash()
					delete(live, f.A)
				}
			} else if _, up := live[f.A]; !up {
				p, err := start(f.A)
				if err != nil {
					return res, fmt.Errorf("chaos: restart %s: %w", f.A, err)
				}
				live[f.A] = p
			}
		case KindPartition:
			eng.setActive(ev.idx, f, ev.activate)
			applyPartitions(filt, eng)
		default:
			eng.setActive(ev.idx, f, ev.activate)
		}
	}

	// Faults cease: disarm everything, heal all cuts, then hold the
	// group to the liveness oracle.
	filt.Disarm()
	filt.Heal()
	eng.mu.Lock()
	eng.active = nil
	res.FaultCounts = eng.counts
	eng.mu.Unlock()

	res.Reconverged, res.ReconvergeIn, res.OracleDetail = awaitReconvergence(live, cfg)

	// Let trailing installs propagate so the last spans close, then
	// crash (not Leave) so teardown adds no half-finished view changes
	// to the trace.
	time.Sleep(2 * opts.SuspectAfter)
	for _, p := range live {
		p.Crash()
	}

	events := mem.Events()
	res.Events = len(events)
	checkers := cfg.Checkers
	if checkers == nil {
		checkers = tracecheck.DefaultCheckers()
	}
	res.Violations = tracecheck.CheckWith(events, checkers...).Violations
	return res, nil
}

// setActive adds or removes a fault from the live set, keeping plan
// order so verdict precedence is deterministic.
func (e *engine) setActive(idx int, f Fault, on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if on {
		af := &activeFault{Fault: f, idx: idx, remaining: -1}
		if f.Kind == KindDrop && f.Count > 0 {
			af.remaining = f.Count
		}
		switch f.Kind {
		case KindPartition, KindHBStarve:
			// Window faults count once per activation; packet-level
			// faults count per packet in verdict.
			e.count(f.Kind)
		}
		e.active = append(e.active, af)
		sort.SliceStable(e.active, func(i, j int) bool { return e.active[i].idx < e.active[j].idx })
		return
	}
	for i, af := range e.active {
		if af.idx == idx {
			e.active = append(e.active[:i], e.active[i+1:]...)
			return
		}
	}
}

// applyPartitions recomputes the transport's partition components from
// the active partition cuts. Overlapping cuts merge into one component;
// sites in no cut form the implicit remainder.
func applyPartitions(part transport.Partitioner, e *engine) {
	e.mu.Lock()
	var groups [][]string
	for _, af := range e.active {
		if af.Kind == KindPartition {
			groups = append(groups, af.Sites)
		}
	}
	e.mu.Unlock()
	if len(groups) == 0 {
		part.Heal()
		return
	}
	merged := mergeGroups(groups)
	part.SetPartitions(merged...)
}

// mergeGroups unions overlapping site groups so SetPartitions receives
// disjoint components.
func mergeGroups(groups [][]string) [][]string {
	comp := make(map[string]int)
	next := 0
	for _, g := range groups {
		// Find an existing component this group touches.
		id := -1
		for _, s := range g {
			if c, ok := comp[s]; ok {
				id = c
				break
			}
		}
		if id == -1 {
			id = next
			next++
		}
		for _, s := range g {
			if c, ok := comp[s]; ok && c != id {
				for t, tc := range comp {
					if tc == c {
						comp[t] = id
					}
				}
			}
			comp[s] = id
		}
	}
	byID := make(map[int][]string)
	for s, c := range comp {
		byID[c] = append(byID[c], s)
	}
	keys := make([]int, 0, len(byID))
	for c := range byID {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	out := make([][]string, 0, len(byID))
	for _, c := range keys {
		sort.Strings(byID[c])
		out = append(out, byID[c])
	}
	return out
}

// awaitReconvergence is the liveness oracle: after faults cease, every
// live process must publish one agreed view containing exactly the live
// members within the settle bound. Health is judged through
// admin.Monitor — the same verdicts vsmon applies to a production group
// — so a wedged loop (stale status) or stuck proposal fails the oracle
// even if view ids happen to agree.
func awaitReconvergence(live map[string]*core.Process, cfg Config) (bool, time.Duration, string) {
	mon := &admin.Monitor{
		Grace: cfg.SettleTimeout, // divergence is judged by the full-view check below
		Stuck: cfg.SettleTimeout / 2,
	}
	start := time.Now()
	deadline := start.Add(cfg.SettleTimeout)
	var last admin.Assessment
	for {
		now := time.Now()
		want := make(map[string]bool, len(live))
		for _, p := range live {
			want[p.PID().String()] = true
		}
		reports := make([]admin.MemberReport, 0, len(live))
		for site, p := range live {
			reports = append(reports, admin.MemberReport{
				Endpoint: site,
				Status:   admin.MemberStatus{Status: p.StatusSnapshot()},
			})
		}
		last = mon.Assess(now, reports)
		if len(last.Views) == 1 && last.Healthy && allFullViews(reports, want) {
			return true, time.Since(start), ""
		}
		if now.After(deadline) {
			return false, time.Since(start), describeAssessment(last, reports, want)
		}
		time.Sleep(pollEvery)
	}
}

// allFullViews reports whether every member's view is exactly the live
// set.
func allFullViews(reports []admin.MemberReport, want map[string]bool) bool {
	for _, r := range reports {
		if r.Status.Size != len(want) {
			return false
		}
		for _, m := range r.Status.Members {
			if !want[m] {
				return false
			}
		}
	}
	return true
}

// describeAssessment renders the oracle's last look at the group for
// the timeout report.
func describeAssessment(a admin.Assessment, reports []admin.MemberReport, want map[string]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "views=%v majority=%q", a.Views, a.Majority)
	for _, h := range a.Members {
		if h.Flagged() {
			fmt.Fprintf(&b, "; %s: %s", h.PID, h.Detail)
		}
	}
	for _, r := range reports {
		if r.Status.Size != len(want) {
			fmt.Fprintf(&b, "; %s: view %s has %d members, want %d",
				r.Status.PID, r.Status.ViewID, r.Status.Size, len(want))
		}
	}
	return b.String()
}

// procsOf lists the live processes in site order.
func procsOf(live map[string]*core.Process) []*core.Process {
	sites := make([]string, 0, len(live))
	for s := range live {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	out := make([]*core.Process, 0, len(live))
	for _, s := range sites {
		out = append(out, live[s])
	}
	return out
}
