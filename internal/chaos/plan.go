// Package chaos is the deterministic fault-schedule engine: it draws a
// timed fault plan — partition cuts, kind-targeted loss bursts,
// targeted packet drops, heartbeat starvation, duplicate storms, delay
// spikes, process crash + restart — from a seeded PRNG, runs the plan
// against a live group over either network backend through a
// transport.FaultFilter, and gates the run through the offline
// tracecheck suite plus a liveness oracle (the group must reconverge to
// one full view within a bound after faults cease, judged via
// admin.Monitor). A failing plan is serializable JSON, replayable from
// its seed or its file, and greedily shrinkable to a minimal failing
// schedule (see Shrink). cmd/vschaos is the CLI: `-runs N` is the soak.
//
// Determinism is at the plan level: the same seed always yields the
// same fault schedule (same faults, windows, targets, and per-packet
// probability draws in the same packet order), so a violation found at
// a seed is reproduced by re-running that seed. Wall-clock scheduling
// of goroutines underneath is not replayed — the plan is the
// deterministic artifact, matching how the repo's experiments treat
// seeds.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/vstest"
)

// FaultKind names one fault family in a plan.
type FaultKind string

// The fault kinds a plan may schedule.
const (
	// KindPartition isolates Sites from the rest of the group (a
	// symmetric cut through the transport's Partitioner) for the window.
	KindPartition FaultKind = "partition"
	// KindOneWay drops every packet from site A to site B for the
	// window; the reverse direction is untouched (an asymmetric link).
	KindOneWay FaultKind = "oneway"
	// KindLoss drops packets of kind Pkt (empty = all kinds) with
	// probability Prob for the window, group-wide or from A when set.
	KindLoss FaultKind = "loss"
	// KindDrop drops the next Count packets of kind Pkt from site A to
	// site B inside the window (0 = unlimited within the window) — the
	// targeted install/ack drop of the reconcile experiments.
	KindDrop FaultKind = "drop"
	// KindHBStarve drops every heartbeat from site A for the window,
	// starving the rest of the group's failure detectors of its
	// liveness indications without touching its data traffic.
	KindHBStarve FaultKind = "hb-starve"
	// KindCrash crashes site A's process at At and restarts it (a new
	// incarnation that rejoins via discovery) after the window.
	KindCrash FaultKind = "crash"
	// KindDelay holds packets of kind Pkt (empty = all) for DelayMS
	// with probability Prob, inducing reordering.
	KindDelay FaultKind = "delay"
	// KindDup duplicates packets of kind Pkt (empty = all) with
	// probability Prob.
	KindDup FaultKind = "dup"
)

// Fault is one scheduled fault. Times are plan-relative milliseconds
// (the plan clock starts when the formed group enters the fault phase);
// sites are the single-letter site names chaos groups use (see
// vstest.SiteName).
type Fault struct {
	Kind FaultKind `json:"kind"`
	// At is the activation time, in ms from the start of the fault
	// phase.
	At int `json:"at_ms"`
	// For is the window length in ms; 0 means the fault stays active
	// until the plan horizon (for KindCrash: the process restarts at
	// the horizon).
	For int `json:"for_ms,omitempty"`
	// A and B are the source and destination sites for directed faults;
	// A alone targets a site-scoped fault (crash, hb-starve, loss).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Sites is the isolated component of a partition cut.
	Sites []string `json:"sites,omitempty"`
	// Pkt restricts packet-level faults to one fabric kind ("hb",
	// "data", "propose", "ack", "install", "echange", "mergereq");
	// empty matches every kind.
	Pkt string `json:"pkt,omitempty"`
	// Prob is the per-packet probability for loss/delay/dup faults.
	Prob float64 `json:"prob,omitempty"`
	// Count bounds how many packets a KindDrop fault eats (0 =
	// unlimited within the window).
	Count int `json:"count,omitempty"`
	// DelayMS is the hold duration for KindDelay.
	DelayMS int `json:"delay_ms,omitempty"`
}

// Window returns the fault's activation time and duration, resolving
// the For==0 convention against the plan horizon.
func (f Fault) Window(horizonMS int) (at, dur time.Duration) {
	at = time.Duration(f.At) * time.Millisecond
	end := f.At + f.For
	if f.For == 0 || end > horizonMS {
		end = horizonMS
	}
	if end < f.At {
		end = f.At
	}
	return at, time.Duration(end-f.At) * time.Millisecond
}

// String renders one fault compactly for reports.
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%dms", f.Kind, f.At)
	if f.For > 0 {
		fmt.Fprintf(&b, "+%dms", f.For)
	}
	switch {
	case len(f.Sites) > 0:
		fmt.Fprintf(&b, " {%s}", strings.Join(f.Sites, ","))
	case f.B != "":
		fmt.Fprintf(&b, " %s->%s", f.A, f.B)
	case f.A != "":
		fmt.Fprintf(&b, " %s", f.A)
	}
	if f.Pkt != "" {
		fmt.Fprintf(&b, " pkt=%s", f.Pkt)
	}
	if f.Prob > 0 {
		fmt.Fprintf(&b, " p=%.2f", f.Prob)
	}
	if f.Count > 0 {
		fmt.Fprintf(&b, " n=%d", f.Count)
	}
	if f.DelayMS > 0 {
		fmt.Fprintf(&b, " d=%dms", f.DelayMS)
	}
	return b.String()
}

// Plan is one complete fault schedule: the group size, the horizon
// after which all faults cease, and the faults. A plan is the
// serializable, replayable bug-report artifact of the harness.
type Plan struct {
	// Seed is the PRNG seed the plan was generated from; it also seeds
	// the per-packet probability draws at run time, so replaying a plan
	// replays its probabilistic faults' decision stream.
	Seed int64 `json:"seed"`
	// N is the group size (sites a, b, c, ...).
	N int `json:"n"`
	// HorizonMS is when all faults cease, in ms from the start of the
	// fault phase; the liveness oracle runs after it.
	HorizonMS int `json:"horizon_ms"`
	// Faults is the schedule, in activation order.
	Faults []Fault `json:"faults"`
}

// Horizon returns the plan horizon as a duration.
func (p Plan) Horizon() time.Duration { return time.Duration(p.HorizonMS) * time.Millisecond }

// String renders the plan on one line for logs.
func (p Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return fmt.Sprintf("seed=%d n=%d horizon=%dms [%s]", p.Seed, p.N, p.HorizonMS, strings.Join(parts, "; "))
}

// Validate checks the plan is runnable: positive group size and
// horizon, known fault kinds, sites within the group, sane windows.
func (p Plan) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("chaos: plan needs n >= 2, got %d", p.N)
	}
	if p.HorizonMS <= 0 {
		return fmt.Errorf("chaos: plan needs a positive horizon, got %dms", p.HorizonMS)
	}
	sites := make(map[string]bool, p.N)
	for i := 0; i < p.N; i++ {
		sites[vstest.SiteName(i)] = true
	}
	okSite := func(s string) bool { return s == "" || sites[s] }
	for i, f := range p.Faults {
		if f.At < 0 || f.At > p.HorizonMS {
			return fmt.Errorf("chaos: fault %d (%s): at %dms outside [0, %dms]", i, f.Kind, f.At, p.HorizonMS)
		}
		if f.For < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative window", i, f.Kind)
		}
		if !okSite(f.A) || !okSite(f.B) {
			return fmt.Errorf("chaos: fault %d (%s): site %q/%q outside the %d-site group", i, f.Kind, f.A, f.B, p.N)
		}
		for _, s := range f.Sites {
			if !sites[s] {
				return fmt.Errorf("chaos: fault %d (%s): site %q outside the group", i, f.Kind, s)
			}
		}
		switch f.Kind {
		case KindPartition:
			if len(f.Sites) == 0 || len(f.Sites) >= p.N {
				return fmt.Errorf("chaos: fault %d: partition component must isolate 1..%d sites, got %d", i, p.N-1, len(f.Sites))
			}
		case KindOneWay:
			if f.A == "" || f.B == "" || f.A == f.B {
				return fmt.Errorf("chaos: fault %d: oneway needs distinct a and b", i)
			}
		case KindLoss, KindDelay, KindDup:
			if f.Prob <= 0 || f.Prob > 1 {
				return fmt.Errorf("chaos: fault %d (%s): prob %v outside (0, 1]", i, f.Kind, f.Prob)
			}
			if f.Kind == KindDelay && f.DelayMS <= 0 {
				return fmt.Errorf("chaos: fault %d: delay needs delay_ms > 0", i)
			}
		case KindDrop:
			if f.A == "" {
				return fmt.Errorf("chaos: fault %d: drop needs a source site", i)
			}
		case KindHBStarve, KindCrash:
			if f.A == "" {
				return fmt.Errorf("chaos: fault %d (%s): needs a target site", i, f.Kind)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// normalized returns a copy with faults sorted by activation time
// (stable, so equal-time faults keep plan order — verdict precedence
// follows schedule order).
func (p Plan) normalized() Plan {
	out := p
	out.Faults = append([]Fault(nil), p.Faults...)
	sort.SliceStable(out.Faults, func(i, j int) bool { return out.Faults[i].At < out.Faults[j].At })
	return out
}

// Save writes the plan as indented JSON to path.
func (p Plan) Save(path string) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("chaos: marshal plan: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a plan from a JSON file and validates it.
func Load(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("chaos: read plan: %w", err)
	}
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, fmt.Errorf("chaos: parse plan %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("chaos: plan %s: %w", path, err)
	}
	return p, nil
}
