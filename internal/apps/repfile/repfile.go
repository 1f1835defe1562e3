// Package repfile implements the paper's first group-object example
// (Section 3): a replicated file with external operations read and write.
//
// Correctness criteria, straight from the paper: with respect to writes
// the object behaves as if there were a single copy; reads may return
// stale data. Each replica holds votes; a write quorum is obtainable in
// at most one concurrent view, so divergent writes are impossible.
//
// The mode mapping of the example:
//
//	N — the view holds a write quorum and this replica is up to date:
//	    reads and writes are served;
//	R — no write quorum: reads only (possibly stale);
//	S — quorum view but the replica set is not reconciled (a member
//	    joined, recovered, or the quorum was reassembled): the replica
//	    runs the internal reconciliation protocol before returning to N.
//
// Reconciliation is the gobject host's: every member announces its
// version (the snapshot); behind members pull the content from an
// up-to-date donor with the transfer tool; under enriched views the
// subviews are then merged (§6.2 methodology) so the structure again
// shows one up-to-date quorum subview. What lives here is the file: its
// operations, its write protocol, its version rule and its persistence.
package repfile

import (
	"bytes"
	"encoding/binary"
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
	"repro/internal/transfer"
	"repro/internal/transport"
)

// Errors returned by the File API.
var (
	// ErrNotWritable is returned by Write outside N-mode.
	ErrNotWritable = errors.New("repfile: no write quorum / not reconciled")
	// ErrTimeout is returned when a write does not complete in time
	// (e.g. a view change interrupted it); the caller may retry.
	ErrTimeout = errors.New("repfile: operation timed out")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("repfile: closed")
)

// Config parametrizes a replica.
type Config struct {
	// RW is the quorum system shared by all replicas.
	RW quorum.RW
	// Enriched selects §6.2 local classification (requires the process
	// to run with enriched views); when false the replica runs the flat
	// classification protocol (one announcement round) instead.
	Enriched bool
	// Transfer configures the state transfer tool.
	Transfer transfer.Options
	// WriteTimeout bounds Write (default 2s).
	WriteTimeout time.Duration
}

// File is one replica of the group object.
type File struct {
	host   *gobject.Host
	cfg    Config
	st     *stable.Store
	writes *gobject.Pending // pending writes by op id

	mu      sync.Mutex
	version uint64
	content []byte
	// lastAssigned is the highest version this replica handed out while
	// acting as write sequencer, so back-to-back requests get distinct
	// versions before the first write round-trips.
	lastAssigned uint64
	// viewFloor is the highest write version delivered in the current
	// view. A write is multicast to (and, by Agreement, delivered by)
	// every view member, and it carries the complete content — so every
	// member that stays in the view is at least there, whatever it
	// announced before the write.
	viewFloor     uint64
	writesApplied uint64
}

// FileStats counts reconciliation activity for experiments.
type FileStats struct {
	Classifications map[sstate.Kind]int
	TransfersPulled int
	Reconciles      int
	WritesApplied   uint64
}

// wire envelopes (application-level payloads).
type fileMsg struct {
	Type    string  `json:"t"`              // "wreq", "write"
	Op      string  `json:"op,omitempty"`   // write op id
	Version uint64  `json:"ver,omitempty"`  // write version
	Data    []byte  `json:"data,omitempty"` // write payload
	From    ids.PID `json:"from"`
}

var fileMagic = []byte("\x01repfile1\x00")

func encodeMsg(m fileMsg) []byte {
	body, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("repfile: encode: %v", err)) // unreachable: static type
	}
	return append(append([]byte{}, fileMagic...), body...)
}

func decodeMsg(payload []byte) (fileMsg, bool) {
	if !bytes.HasPrefix(payload, fileMagic) {
		return fileMsg{}, false
	}
	var m fileMsg
	if err := json.Unmarshal(payload[len(fileMagic):], &m); err != nil {
		return fileMsg{}, false
	}
	return m, true
}

// Stable-storage keys.
const (
	keyVersion = "repfile/version"
	keyContent = "repfile/content"
)

// Open starts a replica at the given site. The core options' Enriched
// flag is forced to match cfg.Enriched.
func Open(fabric transport.Transport, reg *stable.Registry, site string, coreOpts core.Options, cfg Config) (*File, error) {
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 2 * time.Second
	}
	f := &File{
		cfg:    cfg,
		st:     reg.Open(site),
		writes: gobject.NewPending(ErrTimeout, ErrClosed),
	}
	// Recover permanent state (the paper's "part of the local state may
	// be permanent").
	if raw, ok := f.st.Get(keyVersion); ok && len(raw) == 8 {
		f.version = binary.BigEndian.Uint64(raw)
		if c, ok := f.st.Get(keyContent); ok {
			f.content = c
		}
	}
	hostCfg := gobject.Config{Enriched: cfg.Enriched, Transfer: cfg.Transfer}
	if _, err := gobject.Open(fabric, reg, site, coreOpts, hostCfg, (*object)(f)); err != nil {
		return nil, fmt.Errorf("repfile: %w", err)
	}
	return f, nil
}

// Process exposes the underlying process (tests and experiments).
func (f *File) Process() *core.Process { return f.host.Process() }

// Mode returns the current Figure-1 mode.
func (f *File) Mode() modes.Mode { return f.host.Mode() }

// ModeStats returns a copy of the mode machine's transition statistics.
func (f *File) ModeStats() gobject.ModeStats { return f.host.ModeStats() }

// Stats returns a snapshot of the reconciliation counters.
func (f *File) Stats() FileStats {
	hs := f.host.Stats()
	f.mu.Lock()
	defer f.mu.Unlock()
	return FileStats{
		Classifications: hs.Classifications,
		TransfersPulled: hs.Pulls,
		Reconciles:      hs.Reconciles,
		WritesApplied:   f.writesApplied,
	}
}

// Read returns the local replica content and its version. In R-mode the
// result may be stale, which the object's specification allows.
func (f *File) Read() (version uint64, content []byte, mode modes.Mode) {
	mode = f.host.Mode()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version, append([]byte{}, f.content...), mode
}

// Write replaces the file content. It succeeds only in N-mode (write
// quorum present and replica reconciled); the write is sequenced by the
// view's smallest member and applied by every member of the view, giving
// single-copy semantics for writes.
func (f *File) Write(data []byte) error {
	if f.host.Closed() {
		return ErrClosed
	}
	if f.host.Mode() != modes.Normal {
		return ErrNotWritable
	}
	p := f.host.Process()
	return f.writes.Do(p, f.cfg.WriteTimeout, func(op string, view core.EView) error {
		seqr, ok := view.Comp().Min()
		if !ok {
			return ErrNotWritable
		}
		payload := encodeMsg(fileMsg{Type: "wreq", Op: op, Data: data, From: p.PID()})
		if err := p.Unicast(seqr, payload); err != nil {
			return fmt.Errorf("repfile: write request: %w", err)
		}
		return nil
	})
}

// Close leaves the group.
func (f *File) Close() { f.host.Close() }

// object is File as the host sees it: gobject.Object, ViewChanger and
// Puller. Snapshot: the version. Critical piece: version header; bulk:
// content.
type object File

// Bind implements gobject.Object.
func (o *object) Bind(h *gobject.Host) modes.Func {
	o.host = h
	if o.cfg.Enriched {
		return modes.QuorumEnriched(h.Process().PID(), o.cfg.RW)
	}
	return modes.QuorumFlat(o.cfg.RW)
}

// WasNormal implements gobject.Object: a cluster was serving in N-mode
// iff it holds a write quorum.
func (o *object) WasNormal(cluster ids.PIDSet) bool { return o.cfg.RW.CanWrite(cluster) }

// ViewChange implements gobject.ViewChanger: a view change aborts the
// writes in flight (retryable) and starts a fresh floor.
func (o *object) ViewChange(v core.EView) {
	o.writes.FailOlder(v.ID)
	o.mu.Lock()
	o.viewFloor = 0
	o.mu.Unlock()
}

// Snapshot implements gobject.Object.
func (o *object) Snapshot() ([]byte, error) { return o.MarshalCritical() }

// MergeSnapshot implements gobject.Object: versions only inform Behind.
func (o *object) MergeSnapshot(ids.PID, []byte) error { return nil }

func snapVersion(snap []byte) uint64 {
	if len(snap) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(snap)
}

// Behind implements gobject.Puller: q is behind while some member
// announced a higher version than q is known to hold — what q announced
// or, if newer, the view's floor (for this replica, what it holds now).
// The donor is the smallest announcer of the highest version.
func (o *object) Behind(q ids.PID, snaps map[ids.PID][]byte) (ids.PID, bool) {
	o.mu.Lock()
	have := o.viewFloor
	if q == o.host.Process().PID() {
		have = o.version
	}
	o.mu.Unlock()
	if v := snapVersion(snaps[q]); v > have {
		have = v
	}
	max, donor := have, ids.PID{}
	for p, snap := range snaps {
		if v := snapVersion(snap); v > max || (v == max && v > have && p.Less(donor)) {
			max, donor = v, p
		}
	}
	return donor, max > have
}

// Apply implements gobject.Object.
func (o *object) Apply(m core.MsgEvent) {
	msg, ok := decodeMsg(m.Payload)
	if !ok {
		return
	}
	switch msg.Type {
	case "wreq":
		o.onWriteRequest(msg)
	case "write":
		o.onWrite(msg)
	}
}

// onWriteRequest runs at the view sequencer: assign the next version and
// multicast the write to the view.
func (o *object) onWriteRequest(msg fileMsg) {
	p := o.host.Process()
	min, _ := p.CurrentView().Comp().Min()
	if min != p.PID() || o.host.Mode() != modes.Normal {
		return // requester times out and retries
	}
	o.mu.Lock()
	if o.lastAssigned < o.version {
		o.lastAssigned = o.version
	}
	o.lastAssigned++
	next := o.lastAssigned
	o.mu.Unlock()
	_ = p.Multicast(encodeMsg(fileMsg{
		Type:    "write",
		Op:      msg.Op,
		Version: next,
		Data:    msg.Data,
		From:    msg.From,
	}))
}

// onWrite applies a sequenced write at every member, settling ones
// included: it carries the whole content, so a joiner it reaches needs
// no pull.
func (o *object) onWrite(msg fileMsg) {
	o.mu.Lock()
	if msg.Version > o.version {
		o.version = msg.Version
		o.content = append([]byte{}, msg.Data...)
		(*File)(o).persistLocked()
		o.writesApplied++
	}
	if msg.Version > o.viewFloor {
		o.viewFloor = msg.Version
	}
	o.mu.Unlock()
	o.writes.Resolve(msg.Op, nil)
}

// MarshalCritical implements transfer.App.
func (o *object) MarshalCritical() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return binary.BigEndian.AppendUint64(nil, o.version), nil
}

// MarshalBulk implements transfer.App.
func (o *object) MarshalBulk() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append(binary.BigEndian.AppendUint64(nil, o.version), o.content...), nil
}

// ApplyCritical implements transfer.App: learning the target version
// early lets the replica know how far behind it is.
func (o *object) ApplyCritical(b []byte) error {
	return nil // informational only for this object
}

// ApplyBulk implements transfer.App.
func (o *object) ApplyBulk(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("repfile: short bulk state (%d bytes)", len(b))
	}
	version := binary.BigEndian.Uint64(b[:8])
	content := append([]byte{}, b[8:]...)
	o.mu.Lock()
	defer o.mu.Unlock()
	if version > o.version {
		o.version = version
		o.content = content
		(*File)(o).persistLocked()
	}
	return nil
}

func (f *File) persistLocked() {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], f.version)
	f.st.Put(keyVersion, buf[:])
	f.st.Put(keyContent, f.content)
}
