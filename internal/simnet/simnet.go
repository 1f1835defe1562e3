// Package simnet simulates the asynchronous, partitionable network the
// paper assumes: processes at remote sites connected by links that may
// delay, drop, and — crucially — partition. There are no bounds the upper
// layers may rely on: delays are drawn from a pluggable model, and a
// partition oracle can split and heal the network at any moment,
// independent of the computation.
//
// The fabric carries opaque payloads between named endpoints and offers a
// broadcast primitive modeling LAN-style heartbeat broadcast, which the
// membership layer uses for discovery after partitions heal.
//
// The fabric is the default implementation of transport.Transport (and
// its Partitioner fault surface); internal/transport/udp is the
// real-socket alternative.
package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/eventq"
	"repro/internal/ids"
	"repro/internal/transport"
)

// Message, Stats, Kinder, and Sizer are the transport-layer types; the
// aliases keep simnet's historical names working.
type (
	Message = transport.Message
	Stats   = transport.Stats
	Kinder  = transport.Kinder
	Sizer   = transport.Sizer
)

// Describe classifies a payload for statistics; see transport.Describe.
func Describe(payload any) (kind string, size int) {
	return transport.Describe(payload)
}

// DelayModel produces per-message latencies.
type DelayModel interface {
	// Delay returns the one-way latency for a message between two sites.
	Delay(from, to string) time.Duration
}

// UniformDelay draws latencies uniformly from [Min, Max]. It is safe for
// concurrent use.
type UniformDelay struct {
	Min, Max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewUniformDelay returns a delay model drawing from [min, max] using the
// given seed.
func NewUniformDelay(min, max time.Duration, seed int64) *UniformDelay {
	if max < min {
		max = min
	}
	return &UniformDelay{Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay implements DelayModel.
func (u *UniformDelay) Delay(_, _ string) time.Duration {
	if u.Max == u.Min {
		return u.Min
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.Min + time.Duration(u.rng.Int63n(int64(u.Max-u.Min)+1))
}

// Config parametrizes a Fabric.
type Config struct {
	// Delay is the latency model. Nil means a uniform 200µs–1ms model.
	Delay DelayModel
	// LossRate is the probability in [0,1) that any unicast message is
	// silently dropped.
	LossRate float64
	// Bandwidth, when positive, models each receiver's ingress link in
	// bytes per second: messages to one endpoint serialize, each
	// occupying the link for Size/Bandwidth. Zero means infinite
	// bandwidth (latency only).
	Bandwidth int64
	// Seed seeds the loss model's RNG.
	Seed int64
}

// pendKey identifies the (sender, destination) pair of a queued data
// packet eligible to carry piggybacked heartbeats.
type pendKey struct{ from, to ids.PID }

// Fabric is the simulated network. Create with New, stop with Close.
type Fabric struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[ids.PID]*Endpoint
	// sorted caches the attached pids in sorted order — the destination
	// order of a broadcast — and is nil whenever the endpoint set has
	// changed since it was built.
	sorted []ids.PID
	// component maps a site name to its partition component. Absent
	// entries are component 0. Partitioning is by site: all incarnations
	// of a site share its connectivity.
	component map[string]int
	stats     Stats
	closed    bool
	nextSeq   uint64
	// busyUntil models per-receiver ingress-link serialization when
	// Bandwidth > 0.
	busyUntil map[ids.PID]time.Time
	// pending tracks, per (sender, destination), the most recently
	// queued data packet, so a heartbeat broadcast to that destination
	// can ride on it instead of becoming a packet of its own. Entries
	// are invalidated when their packet leaves the queue.
	pending map[pendKey]*scheduled

	queue    deliveryQueue
	wakeup   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Compile-time checks: the fabric is a transport with fault injection.
var (
	_ transport.Transport   = (*Fabric)(nil)
	_ transport.Partitioner = (*Fabric)(nil)
)

// New creates a running fabric.
func New(cfg Config) *Fabric {
	if cfg.Delay == nil {
		cfg.Delay = NewUniformDelay(200*time.Microsecond, time.Millisecond, cfg.Seed+1)
	}
	f := &Fabric{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: make(map[ids.PID]*Endpoint),
		component: make(map[string]int),
		busyUntil: make(map[ids.PID]time.Time),
		pending:   make(map[pendKey]*scheduled),
		wakeup:    make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	f.stats = transport.NewStats()
	go f.run()
	return f
}

// Close stops the fabric's delivery goroutine and closes all endpoints.
func (f *Fabric) Close() {
	f.stopOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		eps := make([]*Endpoint, 0, len(f.endpoints))
		for _, ep := range f.endpoints {
			eps = append(eps, ep)
		}
		f.endpoints = make(map[ids.PID]*Endpoint)
		f.sorted = nil
		f.mu.Unlock()
		close(f.done)
		for _, ep := range eps {
			ep.inbox.Close()
		}
	})
}

// ErrClosed is returned for operations on a closed fabric.
var ErrClosed = errors.New("simnet: fabric closed")

// Attach registers a new endpoint for pid. It is an error to attach a pid
// that is already attached.
func (f *Fabric) Attach(pid ids.PID) (transport.Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, dup := f.endpoints[pid]; dup {
		return nil, fmt.Errorf("simnet: pid %v already attached", pid)
	}
	ep := &Endpoint{pid: pid, fabric: f, inbox: eventq.New[Message]()}
	f.endpoints[pid] = ep
	f.sorted = nil
	return ep, nil
}

// Detach removes pid's endpoint, modeling a crash: in-flight messages to
// it are dropped on delivery and its inbox is closed.
func (f *Fabric) Detach(pid ids.PID) {
	f.mu.Lock()
	ep, ok := f.endpoints[pid]
	if ok {
		delete(f.endpoints, pid)
		f.sorted = nil
	}
	f.mu.Unlock()
	if ok {
		ep.inbox.Close()
	}
}

// SetPartitions splits the network into the given components of sites.
// Sites not mentioned form one extra implicit component of their own
// (component -1 semantics: they are all placed together in a fresh
// component). Passing no arguments heals the network.
func (f *Fabric) SetPartitions(components ...[]string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.component = make(map[string]int)
	for i, comp := range components {
		for _, site := range comp {
			f.component[site] = i + 1
		}
	}
}

// Heal removes all partitions.
func (f *Fabric) Heal() { f.SetPartitions() }

// Reachable reports whether sites a and b are currently in the same
// partition component.
func (f *Fabric) Reachable(a, b string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.component[a] == f.component[b]
}

// Stats returns a consistent point-in-time snapshot of the fabric
// counters; the per-kind maps are deep copies owned by the caller. See
// transport.Stats for the full snapshot semantics; in particular a
// broadcast fan-out is applied in one critical section, so a snapshot
// never observes half of one.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats.Clone()
}

// ResetStats zeroes the fabric counters, including the per-kind maps
// (used between benchmark or experiment phases). Snapshots returned by
// earlier Stats calls are unaffected.
func (f *Fabric) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = transport.NewStats()
}

// Endpoints returns the currently attached pids, in sorted order.
func (f *Fabric) Endpoints() []ids.PID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.sortedLocked())
}

// sortedLocked returns the attached pids in sorted order, rebuilding the
// cache if an Attach, Detach or Close invalidated it; f.mu must be held.
// Callers must not modify or retain the result past the lock.
func (f *Fabric) sortedLocked() []ids.PID {
	if f.sorted == nil {
		set := make(ids.PIDSet, len(f.endpoints))
		for pid := range f.endpoints {
			set.Add(pid)
		}
		f.sorted = set.Sorted()
	}
	return f.sorted
}

// kick nudges the delivery goroutine after new traffic was queued.
func (f *Fabric) kick() {
	select {
	case f.wakeup <- struct{}{}:
	default:
	}
}

// send enqueues a unicast message. Loss and partition checks happen at
// send time; partition and liveness are re-checked at delivery time, so a
// partition forming while a message is in flight also cuts it off.
func (f *Fabric) send(from, to ids.PID, payload any) {
	kind, size := transport.Describe(payload)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.sendLocked(from, to, payload, kind, size)
	f.mu.Unlock()
	f.kick()
}

// sendLocked applies the full send path — counters, drop checks, delay
// and bandwidth scheduling — for one message; f.mu must be held. Keeping
// it a single locked step lets broadcast fan out a whole multicast under
// one lock acquisition and makes every send atomic with respect to
// Stats snapshots.
func (f *Fabric) sendLocked(from, to ids.PID, payload any, kind string, size int) {
	f.stats.Sent++
	f.stats.BytesSent += uint64(size)
	f.stats.PerKind[kind]++
	f.stats.PerKindBytes[kind] += uint64(size)
	if f.component[from.Site] != f.component[to.Site] {
		f.stats.DroppedPartition++
		return
	}
	if f.cfg.LossRate > 0 && f.rng.Float64() < f.cfg.LossRate {
		f.stats.DroppedLoss++
		return
	}
	if _, ok := f.endpoints[to]; !ok {
		f.stats.DroppedDead++
		return
	}
	delay := f.cfg.Delay.Delay(from.Site, to.Site)
	due := time.Now().Add(delay)
	if f.cfg.Bandwidth > 0 {
		// Serialize on the receiver's ingress link: the message occupies
		// it for size/bandwidth once the earlier traffic drained.
		if busy := f.busyUntil[to]; busy.After(due) {
			due = busy
		}
		occupancy := time.Duration(float64(size) / float64(f.cfg.Bandwidth) * float64(time.Second))
		due = due.Add(occupancy)
		f.busyUntil[to] = due
	}
	f.nextSeq++
	sc := &scheduled{
		due: due,
		seq: f.nextSeq,
		msg: Message{From: from, To: to, Payload: payload, Kind: kind, Size: size},
	}
	if kind == "data" {
		// Remember the packet as a piggyback carrier for this link until
		// it leaves the queue.
		sc.key = pendKey{from: from, to: to}
		f.pending[sc.key] = sc
	}
	heap.Push(&f.queue, sc)
}

// broadcast sends payload from `from` to every attached endpoint except
// the sender itself, subject to the same loss/partition rules as unicast.
// It models a LAN broadcast: the sender does not need to know who exists.
//
// The whole fan-out runs under one lock acquisition (not one per
// packet), in sorted destination order so equal-due-time tie-breaking
// and loss-RNG consumption are deterministic. Heartbeats additionally
// piggyback: where a data packet from the same sender is already queued
// toward a destination, the heartbeat rides on it — sharing its
// delivery fate — instead of becoming a packet of its own, which is
// what keeps the hb packet count low under data load.
func (f *Fabric) broadcast(from ids.PID, payload any) {
	kind, size := transport.Describe(payload)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	piggyback := kind == "hb"
	for _, to := range f.sortedLocked() {
		if to == from {
			continue
		}
		if piggyback {
			if sc := f.pending[pendKey{from: from, to: to}]; sc != nil {
				sc.msg.Piggyback = append(sc.msg.Piggyback,
					Message{From: from, To: to, Payload: payload, Kind: kind, Size: size})
				f.stats.Piggybacked++
				f.stats.PerKindPiggyback[kind]++
				f.stats.BytesSent += uint64(size)
				f.stats.PerKindBytes[kind] += uint64(size)
				continue
			}
		}
		f.sendLocked(from, to, payload, kind, size)
	}
	f.mu.Unlock()
	f.kick()
}

func (f *Fabric) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		f.mu.Lock()
		var wait time.Duration
		now := time.Now()
		for f.queue.Len() > 0 {
			next := f.queue[0]
			if next.due.After(now) {
				wait = next.due.Sub(now)
				break
			}
			heap.Pop(&f.queue)
			if next.key != (pendKey{}) && f.pending[next.key] == next {
				delete(f.pending, next.key)
			}
			f.deliverLocked(next.msg)
		}
		empty := f.queue.Len() == 0
		f.mu.Unlock()

		if empty {
			wait = time.Hour
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-f.done:
			return
		case <-f.wakeup:
		case <-timer.C:
		}
	}
}

// deliverLocked finalizes delivery of msg; f.mu must be held. Piggybacked
// payloads ride inside msg and share its fate, counted only under the
// piggyback counters (see transport.Stats).
func (f *Fabric) deliverLocked(msg Message) {
	if f.component[msg.From.Site] != f.component[msg.To.Site] {
		f.stats.DroppedPartition++
		return
	}
	ep, ok := f.endpoints[msg.To]
	if !ok {
		f.stats.DroppedDead++
		return
	}
	f.stats.Delivered++
	f.stats.PerKindDelivered[msg.Kind]++
	ep.inbox.Push(msg)
}

// scheduled is one in-flight message.
type scheduled struct {
	due time.Time
	seq uint64 // tie-break so ordering is deterministic for equal due times
	msg Message
	// key is set for data packets while they are piggyback carriers in
	// Fabric.pending (zero otherwise).
	key pendKey
}

type deliveryQueue []*scheduled

func (q deliveryQueue) Len() int { return len(q) }
func (q deliveryQueue) Less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}
func (q deliveryQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *deliveryQueue) Push(x any)   { *q = append(*q, x.(*scheduled)) }
func (q *deliveryQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

// Endpoint is one process's attachment to the fabric.
type Endpoint struct {
	pid    ids.PID
	fabric *Fabric
	inbox  *eventq.Queue[Message]
}

var _ transport.Endpoint = (*Endpoint)(nil)

// PID returns the endpoint's process id.
func (e *Endpoint) PID() ids.PID { return e.pid }

// Send unicasts payload to `to`.
func (e *Endpoint) Send(to ids.PID, payload any) {
	e.fabric.send(e.pid, to, payload)
}

// Broadcast sends payload to every attached endpoint (except self).
func (e *Endpoint) Broadcast(payload any) {
	e.fabric.broadcast(e.pid, payload)
}

// Recv blocks for the next message. ok is false once the endpoint is
// detached (crashed) or the fabric closed, and the inbox has drained.
func (e *Endpoint) Recv() (Message, bool) { return e.inbox.Pop() }

// TryRecv returns the next message without blocking.
func (e *Endpoint) TryRecv() (Message, bool) { return e.inbox.TryPop() }

// Wait returns a channel signaled when the inbox may be non-empty; use
// with TryRecv in select loops.
func (e *Endpoint) Wait() <-chan struct{} { return e.inbox.Wait() }

// Closed reports whether the endpoint has been detached.
func (e *Endpoint) Closed() bool { return e.inbox.Closed() }

// Detach removes this endpoint from the fabric (see Fabric.Detach).
func (e *Endpoint) Detach() { e.fabric.Detach(e.pid) }
