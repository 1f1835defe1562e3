package transport

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
)

// Action is what a FaultFilter verdict tells the filter to do with one
// packet.
type Action int

// The verdict actions.
const (
	// ActPass lets the packet through untouched.
	ActPass Action = iota
	// ActDrop loses the packet: it never enters the inner transport,
	// exactly as if the asynchronous network had eaten it.
	ActDrop
	// ActDuplicate sends the packet twice back to back, modeling the
	// duplicate delivery an unreliable datagram network may produce.
	ActDuplicate
	// ActDelay holds the packet for the verdict's duration before
	// sending it, inducing reordering against packets that pass
	// straight through.
	ActDelay
)

// Verdict is a FaultPredicate's decision for one packet: the action
// plus, for ActDelay, how long to hold it. Build verdicts with Pass,
// Drop, Duplicate, and Delay; the zero Verdict passes.
type Verdict struct {
	Act  Action
	Hold time.Duration
}

// Pass returns the pass-through verdict (also the zero Verdict).
func Pass() Verdict { return Verdict{} }

// Drop returns the drop verdict.
func Drop() Verdict { return Verdict{Act: ActDrop} }

// Duplicate returns the duplicate verdict.
func Duplicate() Verdict { return Verdict{Act: ActDuplicate} }

// Delay returns a delay verdict holding the packet for d. A
// non-positive d passes.
func Delay(d time.Duration) Verdict {
	if d <= 0 {
		return Verdict{}
	}
	return Verdict{Act: ActDelay, Hold: d}
}

// FaultPredicate decides one packet's fate. Broadcasts are expanded to
// per-destination decisions (see FaultFilter.Broadcast), so `to` is
// always a concrete destination while the filter is armed.
type FaultPredicate func(from, to ids.PID, payload any) Verdict

// DropFirst returns a predicate that drops the first n packets match
// accepts and passes everything else — the way to lose one specific
// packet (an Install, say), a fault no Partitioner can express. A spent
// or non-positive budget never consults match. Predicates run under
// the filter lock, so concurrent senders cannot overspend the budget;
// re-arming with a fresh DropFirst starts a fresh budget while the
// filter's Dropped count stays cumulative. Disarm the filter once
// Dropped shows the budget spent, so broadcasts stop being expanded.
func DropFirst(n int, match func(from, to ids.PID, payload any) bool) FaultPredicate {
	return func(from, to ids.PID, payload any) Verdict {
		if n <= 0 || !match(from, to, payload) {
			return Pass()
		}
		n--
		return Drop()
	}
}

// FaultFilter decorates a Transport with a send-time fault predicate
// whose verdict is pass, drop, duplicate, or delay(d), working
// identically over the simulator and real UDP: a dropped packet never
// enters the underlying transport, exactly as if the asynchronous
// network had lost it. It is the injection surface of the chaos harness
// (internal/chaos): one armed predicate composes an entire fault
// schedule — partitions expressed as directional drops, kind-targeted
// loss bursts, duplicate storms, reorder-inducing delay spikes.
//
// An armed FaultFilter expands every Broadcast into per-destination
// unicast sends over the endpoints attached through the
// filter (in sorted PID order, for determinism), so the predicate sees
// a concrete destination for every packet and one-way cuts apply to
// heartbeat broadcasts too. The expansion bypasses the inner
// transport's broadcast path (and therefore simnet's heartbeat
// piggybacking) while armed; disarmed, broadcasts pass straight
// through. Chaos runs attach every process through the filter, so the
// expansion reaches exactly the group.
//
// Delayed and duplicated sends go to the inner transport asynchronously
// (time.AfterFunc); both backends tolerate sends after endpoint detach
// or transport close as silent drops, so a delayed packet outliving its
// sender is safe — and realistic.
//
// The zero predicate (no Arm call) passes everything through.
type FaultFilter struct {
	inner Transport

	mu   sync.Mutex
	pred FaultPredicate
	eps  map[ids.PID]Endpoint // attached through this filter, for broadcast expansion

	dropped    atomic.Uint64
	duplicated atomic.Uint64
	delayed    atomic.Uint64
}

// NewFaultFilter wraps inner. The returned filter also implements
// Partitioner when inner does, forwarding the calls.
func NewFaultFilter(inner Transport) *FaultFilter {
	return &FaultFilter{inner: inner, eps: make(map[ids.PID]Endpoint)}
}

// Arm installs the fault predicate; nil disarms. Re-arming replaces the
// predicate atomically with respect to in-flight sends; the cumulative
// counters are never reset.
func (f *FaultFilter) Arm(pred FaultPredicate) {
	f.mu.Lock()
	f.pred = pred
	f.mu.Unlock()
}

// Disarm removes the predicate; subsequent sends pass through.
func (f *FaultFilter) Disarm() { f.Arm(nil) }

// Dropped returns how many packets the filter has dropped since
// creation (never reset).
func (f *FaultFilter) Dropped() uint64 { return f.dropped.Load() }

// Duplicated returns how many packets the filter has duplicated.
func (f *FaultFilter) Duplicated() uint64 { return f.duplicated.Load() }

// Delayed returns how many packets the filter has delayed.
func (f *FaultFilter) Delayed() uint64 { return f.delayed.Load() }

// verdict evaluates the predicate for one packet under the filter lock,
// so predicates may keep unguarded state (the chaos engine's seeded
// RNG relies on this serialization).
func (f *FaultFilter) verdict(from, to ids.PID, payload any) Verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pred == nil {
		return Verdict{}
	}
	return f.pred(from, to, payload)
}

// apply executes a verdict for one packet using send to reach the inner
// transport.
func (f *FaultFilter) apply(v Verdict, send func()) {
	switch v.Act {
	case ActDrop:
		f.dropped.Add(1)
	case ActDuplicate:
		f.duplicated.Add(1)
		send()
		send()
	case ActDelay:
		f.delayed.Add(1)
		time.AfterFunc(v.Hold, send)
	default:
		send()
	}
}

// Attach implements Transport, recording the endpoint for broadcast
// expansion.
func (f *FaultFilter) Attach(pid ids.PID) (Endpoint, error) {
	ep, err := f.inner.Attach(pid)
	if err != nil {
		return nil, err
	}
	fe := &faultEndpoint{Endpoint: ep, f: f}
	f.mu.Lock()
	f.eps[pid] = ep
	f.mu.Unlock()
	return fe, nil
}

// forget drops a detached endpoint from the broadcast-expansion set.
func (f *FaultFilter) forget(pid ids.PID) {
	f.mu.Lock()
	delete(f.eps, pid)
	f.mu.Unlock()
}

// peersOf snapshots the expansion destinations for a broadcast from
// `from`, sorted for determinism.
func (f *FaultFilter) peersOf(from ids.PID) []ids.PID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ids.PID, 0, len(f.eps))
	for pid := range f.eps {
		if pid != from {
			out = append(out, pid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// armed reports whether a predicate is installed.
func (f *FaultFilter) armed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pred != nil
}

// Close implements Transport.
func (f *FaultFilter) Close() { f.inner.Close() }

// Stats implements Transport. Filter faults are not folded into the
// inner transport's counters; use Dropped/Duplicated/Delayed for the
// filter's own counts.
func (f *FaultFilter) Stats() Stats { return f.inner.Stats() }

// ResetStats implements Transport.
func (f *FaultFilter) ResetStats() { f.inner.ResetStats() }

// SetPartitions implements Partitioner when the inner transport does;
// it is a no-op otherwise.
func (f *FaultFilter) SetPartitions(components ...[]string) {
	if p, ok := f.inner.(Partitioner); ok {
		p.SetPartitions(components...)
	}
}

// Heal implements Partitioner when the inner transport does.
func (f *FaultFilter) Heal() {
	if p, ok := f.inner.(Partitioner); ok {
		p.Heal()
	}
}

// Reachable implements Partitioner; without an inner Partitioner every
// pair is reachable.
func (f *FaultFilter) Reachable(a, b string) bool {
	if p, ok := f.inner.(Partitioner); ok {
		return p.Reachable(a, b)
	}
	return true
}

// faultEndpoint intercepts sends; everything else passes through.
type faultEndpoint struct {
	Endpoint
	f *FaultFilter
}

func (e *faultEndpoint) Send(to ids.PID, payload any) {
	v := e.f.verdict(e.PID(), to, payload)
	e.f.apply(v, func() { e.Endpoint.Send(to, payload) })
}

// Broadcast expands to per-destination sends while the filter is armed
// (see FaultFilter); disarmed, it passes through the inner broadcast
// path untouched.
func (e *faultEndpoint) Broadcast(payload any) {
	if !e.f.armed() {
		e.Endpoint.Broadcast(payload)
		return
	}
	from := e.PID()
	for _, to := range e.f.peersOf(from) {
		to := to
		v := e.f.verdict(from, to, payload)
		e.f.apply(v, func() { e.Endpoint.Send(to, payload) })
	}
}

func (e *faultEndpoint) Detach() {
	e.f.forget(e.PID())
	e.Endpoint.Detach()
}
