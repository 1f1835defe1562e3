// Package lockmgr implements the Section-6.2 example: a group object
// managing a mutually-exclusive write lock that can only be used in a
// view containing a majority of processes. The shared global state is
// the identity of the lock manager and of the current lock holder.
//
// Mode mapping: a majority view is required for both external operations
// (acquire, release), so a minority view is R-mode with an empty
// external subset; a majority view whose members are not reconciled
// about the holder is S-mode; otherwise N.
//
// The lock manager is the view's smallest member. A process acquires by
// asking the manager, which multicasts the grant; every member tracks
// (holder, grant sequence). On a view change to S-mode, members exchange
// their (holder, seq) pairs, adopt the highest, release the lock if its
// holder left the majority (a holder isolated in a minority partition
// observes R-mode and knows its lock is no longer protected), and
// reconcile. Two concurrent majorities cannot exist, so state merging
// never arises — the paper's observation about the primary-partition
// flavor of quorum objects.
package lockmgr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gobject"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/quorum"
	"repro/internal/sstate"
	"repro/internal/stable"
	"repro/internal/transport"
)

// Errors returned by the Manager API.
var (
	// ErrNotAvailable is returned outside N-mode.
	ErrNotAvailable = errors.New("lockmgr: no majority / not reconciled")
	// ErrBusy is returned by TryAcquire when another process holds the
	// lock.
	ErrBusy = errors.New("lockmgr: lock is held")
	// ErrNotHolder is returned by Release when this process does not
	// hold the lock.
	ErrNotHolder = errors.New("lockmgr: not the holder")
	// ErrTimeout is returned when the manager's answer did not arrive in
	// time (e.g. a view change); retry.
	ErrTimeout = errors.New("lockmgr: operation timed out")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("lockmgr: closed")
)

// Config parametrizes a member.
type Config struct {
	// RW is the majority quorum system shared by the group.
	RW quorum.RW
	// Enriched selects §6.2 local classification.
	Enriched bool
	// OpTimeout bounds TryAcquire/Release round trips (default 2s).
	OpTimeout time.Duration
}

// Manager is one member of the lock group.
type Manager struct {
	host *gobject.Host
	cfg  Config
	ops  *gobject.Pending // pending acquires and releases by op id

	mu     sync.Mutex
	holder ids.PID // zero when free
	seq    uint64  // grant/release sequence, monotone per majority era
	stats  Stats   // the object's own counters; the host's are read back
}

// Stats counts activity for experiments.
type Stats struct {
	Classifications map[sstate.Kind]int
	Grants          uint64
	Releases        uint64
	StaleFrees      uint64
	Reconciles      uint64
}

// lockInfo is the shared state, and the snapshot every member announces
// at a view change.
type lockInfo struct {
	Holder ids.PID `json:"holder"`
	Seq    uint64  `json:"seq"`
}

type lockMsg struct {
	Type   string  `json:"t"` // "acq", "rel", "grant", "free", "busy"
	Op     string  `json:"op,omitempty"`
	From   ids.PID `json:"from"`
	Holder ids.PID `json:"holder,omitempty"`
	Seq    uint64  `json:"seq,omitempty"`
}

var lockMagic = []byte("\x01lockmgr1\x00")

func encodeMsg(m lockMsg) []byte {
	body, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("lockmgr: encode: %v", err)) // unreachable
	}
	return append(append([]byte{}, lockMagic...), body...)
}

func decodeMsg(payload []byte) (lockMsg, bool) {
	if !bytes.HasPrefix(payload, lockMagic) {
		return lockMsg{}, false
	}
	var m lockMsg
	if err := json.Unmarshal(payload[len(lockMagic):], &m); err != nil {
		return lockMsg{}, false
	}
	return m, true
}

// Open starts a member.
func Open(fabric transport.Transport, reg *stable.Registry, site string, coreOpts core.Options, cfg Config) (*Manager, error) {
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	m := &Manager{cfg: cfg, ops: gobject.NewPending(ErrTimeout, ErrClosed)}
	if _, err := gobject.Open(fabric, reg, site, coreOpts, gobject.Config{Enriched: cfg.Enriched}, (*object)(m)); err != nil {
		return nil, fmt.Errorf("lockmgr: %w", err)
	}
	return m, nil
}

// Process exposes the underlying process.
func (m *Manager) Process() *core.Process { return m.host.Process() }

// Mode returns the current Figure-1 mode.
func (m *Manager) Mode() modes.Mode { return m.host.Mode() }

// Holder returns the current holder as known locally (zero PID if free).
func (m *Manager) Holder() ids.PID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.holder
}

// HeldByMe reports whether this process holds the lock *and* is still in
// a view where the lock is protected (N-mode).
func (m *Manager) HeldByMe() bool {
	return m.host.Mode() == modes.Normal && m.Holder() == m.host.Process().PID()
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	hs := m.host.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.stats
	out.Classifications = hs.Classifications
	out.Reconciles = uint64(hs.Reconciles)
	return out
}

// TryAcquire asks the manager for the lock. It returns nil on grant,
// ErrBusy if held elsewhere, ErrNotAvailable outside N-mode, ErrTimeout
// if a view change interrupted the exchange.
func (m *Manager) TryAcquire() error { return m.roundTrip("acq") }

// Release gives the lock back. Only the holder may release.
func (m *Manager) Release() error {
	if m.Holder() != m.host.Process().PID() {
		return ErrNotHolder
	}
	return m.roundTrip("rel")
}

func (m *Manager) roundTrip(typ string) error {
	if m.host.Closed() {
		return ErrClosed
	}
	if m.host.Mode() != modes.Normal {
		return ErrNotAvailable
	}
	p := m.host.Process()
	return m.ops.Do(p, m.cfg.OpTimeout, func(op string, view core.EView) error {
		mgr, ok := view.Comp().Min()
		if !ok {
			return ErrNotAvailable
		}
		if err := p.Unicast(mgr, encodeMsg(lockMsg{Type: typ, Op: op, From: p.PID()})); err != nil {
			return fmt.Errorf("lockmgr: request: %w", err)
		}
		return nil
	})
}

// Close leaves the group.
func (m *Manager) Close() { m.host.Close() }

// object is Manager as the host sees it: gobject.Object and ViewChanger.
// The snapshot is the whole shared state, so there is nothing to pull.
type object Manager

// Bind implements gobject.Object: repfile's quorum mode functions, with
// the lock-specific twist that both external operations need the
// majority.
func (o *object) Bind(h *gobject.Host) modes.Func {
	o.host = h
	if o.cfg.Enriched {
		return modes.QuorumEnriched(h.Process().PID(), o.cfg.RW)
	}
	return modes.QuorumFlat(o.cfg.RW)
}

// WasNormal implements gobject.Object.
func (o *object) WasNormal(cluster ids.PIDSet) bool { return o.cfg.RW.CanWrite(cluster) }

// ViewChange implements gobject.ViewChanger. A holder that is not in the
// new view lost the lock: this is locally decidable from the
// composition, and every member of the view decides it identically (the
// isolated holder itself observes R-mode on its side and knows the lock
// is no longer protected). It runs before the snapshot is taken, so
// announced states never reference a departed holder.
func (o *object) ViewChange(v core.EView) {
	o.ops.FailOlder(v.ID)
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.holder.IsZero() && !v.Comp().Has(o.holder) {
		o.holder = ids.PID{}
		o.seq++
		o.stats.StaleFrees++
	}
}

// Snapshot implements gobject.Object.
func (o *object) Snapshot() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return json.Marshal(lockInfo{Holder: o.holder, Seq: o.seq})
}

// MergeSnapshot implements gobject.Object: a settling member adopts the
// freshest lock state among the members (the join is "highest sequence
// wins"); members that kept serving are the ones it adopts from and
// change nothing.
func (o *object) MergeSnapshot(_ ids.PID, snap []byte) error {
	var info lockInfo
	if err := json.Unmarshal(snap, &info); err != nil {
		return fmt.Errorf("lockmgr: snapshot: %w", err)
	}
	if o.host.Mode() != modes.Settling {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if info.Seq > o.seq {
		o.seq, o.holder = info.Seq, info.Holder
	}
	return nil
}

// Apply implements gobject.Object.
func (o *object) Apply(ev core.MsgEvent) {
	msg, ok := decodeMsg(ev.Payload)
	if !ok {
		return
	}
	switch msg.Type {
	case "acq":
		o.onAcquire(msg)
	case "rel":
		o.onRelease(msg)
	case "grant", "free":
		o.onGrantOrFree(msg)
	case "busy":
		o.ops.Resolve(msg.Op, ErrBusy)
	}
}

// managing reports whether this member is the view's lock manager and
// serving.
func (o *object) managing() bool {
	p := o.host.Process()
	min, _ := p.CurrentView().Comp().Min()
	return min == p.PID() && o.host.Mode() == modes.Normal
}

// onAcquire runs at the manager.
func (o *object) onAcquire(msg lockMsg) {
	if !o.managing() {
		return // requester times out
	}
	p := o.host.Process()
	o.mu.Lock()
	if !o.holder.IsZero() && o.holder != msg.From {
		holder := o.holder
		o.mu.Unlock()
		_ = p.Unicast(msg.From, encodeMsg(lockMsg{Type: "busy", Op: msg.Op, From: p.PID(), Holder: holder}))
		return
	}
	// A free lock is assigned eagerly, so a second acquire arriving
	// before the grant round-trips sees it taken (the manager serializes
	// grants). A holder asking again gets an idempotent re-grant: the
	// previous one may have been lost in a view change after the manager
	// assigned it, and the requester is retrying.
	if o.holder.IsZero() {
		o.seq++
		o.holder = msg.From
		o.stats.Grants++
	}
	seq := o.seq
	o.mu.Unlock()
	_ = p.Multicast(encodeMsg(lockMsg{Type: "grant", Op: msg.Op, From: p.PID(), Holder: msg.From, Seq: seq}))
}

// onRelease runs at the manager.
func (o *object) onRelease(msg lockMsg) {
	if !o.managing() {
		return
	}
	p := o.host.Process()
	o.mu.Lock()
	if o.holder != msg.From {
		o.mu.Unlock()
		// Remote requesters simply time out on protocol errors; the
		// local case matters for fast feedback.
		if msg.From == p.PID() {
			o.ops.Resolve(msg.Op, ErrNotHolder)
		}
		return
	}
	o.seq++
	o.holder = ids.PID{}
	seq := o.seq
	o.stats.Releases++
	o.mu.Unlock()
	_ = p.Multicast(encodeMsg(lockMsg{Type: "free", Op: msg.Op, From: p.PID(), Seq: seq}))
}

// onGrantOrFree applies a sequenced lock-state change at every member.
// The manager itself applied (and counted) the change eagerly; everyone
// else applies it here.
func (o *object) onGrantOrFree(msg lockMsg) {
	o.mu.Lock()
	if msg.Seq > o.seq {
		o.seq = msg.Seq
		if msg.Type == "grant" {
			o.holder = msg.Holder
			o.stats.Grants++
		} else {
			o.holder = ids.PID{}
			o.stats.Releases++
		}
	}
	o.mu.Unlock()
	o.ops.Resolve(msg.Op, nil)
}
