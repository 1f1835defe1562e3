// Package lookupdb implements the paper's second group-object example
// (Section 3): a fully replicated database with a look-up query
// interface, where queries are performed in parallel by the group
// members, each responsible for a subset of the database.
//
// The mode mapping of the example, straight from the paper: the only
// external operation (look-up) can be performed in any view, so R-mode
// does not exist; any view change switches the process to S-mode to
// redefine the division of responsibility — an inconsistency in that
// assignment "could result in some portion of the database not being
// searched at all or being searched multiple times".
//
// The shared-state problems of this object:
//
//   - any view change → recompute the responsibility assignment
//     (deterministic from the membership, so purely local);
//   - partition merge → *state merging*: concurrent partitions kept
//     inserting independently; reconciliation is the add-only union.
//     Under enriched views only one representative per subview dumps its
//     cluster's data (members of a subview provably hold the same set);
//     under flat views every member must dump — another concrete cost of
//     the missing structure.
package lookupdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/core"
	"repro/internal/gobject"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/sstate"
	"repro/internal/stable"
	"repro/internal/transport"
)

// Errors returned by the DB API.
var (
	// ErrNotServing is returned by Insert outside N-mode.
	ErrNotServing = errors.New("lookupdb: settling, try again")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("lookupdb: closed")
)

// Config parametrizes a replica.
type Config struct {
	// Enriched selects §6.2 local classification and per-subview dumps.
	Enriched bool
}

// DB is one replica of the look-up database.
type DB struct {
	host *gobject.Host
	cfg  Config

	mu        sync.Mutex
	data      map[string]string
	dumpsSent int
	dumpBytes int
}

// DBStats counts reconciliation activity for experiments. A dump is an
// announced snapshot: the whole database.
type DBStats struct {
	Classifications map[sstate.Kind]int
	DumpsSent       int
	DumpBytes       int
	Reconciles      int
}

type dbMsg struct {
	Type string  `json:"t"` // "ins"
	Key  string  `json:"k,omitempty"`
	Val  string  `json:"v,omitempty"`
	From ids.PID `json:"from"`
}

var dbMagic = []byte("\x01lookupdb1\x00")

func encodeMsg(m dbMsg) []byte {
	body, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("lookupdb: encode: %v", err)) // unreachable
	}
	return append(append([]byte{}, dbMagic...), body...)
}

func decodeMsg(payload []byte) (dbMsg, bool) {
	if !bytes.HasPrefix(payload, dbMagic) {
		return dbMsg{}, false
	}
	var m dbMsg
	if err := json.Unmarshal(payload[len(dbMagic):], &m); err != nil {
		return dbMsg{}, false
	}
	return m, true
}

// Open starts a replica.
func Open(fabric transport.Transport, reg *stable.Registry, site string, coreOpts core.Options, cfg Config) (*DB, error) {
	db := &DB{cfg: cfg, data: make(map[string]string)}
	if _, err := gobject.Open(fabric, reg, site, coreOpts, gobject.Config{Enriched: cfg.Enriched}, (*object)(db)); err != nil {
		return nil, fmt.Errorf("lookupdb: %w", err)
	}
	return db, nil
}

// Process exposes the underlying process.
func (db *DB) Process() *core.Process { return db.host.Process() }

// Mode returns the current Figure-1 mode (only N and S exist for this
// object).
func (db *DB) Mode() modes.Mode { return db.host.Mode() }

// Stats returns a snapshot of the counters.
func (db *DB) Stats() DBStats {
	hs := db.host.Stats()
	db.mu.Lock()
	defer db.mu.Unlock()
	return DBStats{
		Classifications: hs.Classifications,
		DumpsSent:       db.dumpsSent,
		DumpBytes:       db.dumpBytes,
		Reconciles:      hs.Reconciles,
	}
}

// Insert upserts a key (add-only data model: keys are never deleted, so
// partition-merge reconciliation is the set union). Requires N-mode.
func (db *DB) Insert(key, value string) error {
	payload := encodeMsg(dbMsg{Type: "ins", Key: key, Val: value, From: db.host.Process().PID()})
	switch err := db.host.Multicast(payload); err {
	case gobject.ErrClosed:
		return ErrClosed
	case gobject.ErrNotServing:
		return ErrNotServing
	default:
		return err
	}
}

// Lookup performs the external operation: a local search of the replica.
// Per the paper it is available in any view.
func (db *DB) Lookup(key string) (string, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.data[key]
	return v, ok
}

// Len returns the number of stored keys.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.data)
}

// Keys returns all keys (unordered).
func (db *DB) Keys() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.data))
	for k := range db.data {
		out = append(out, k)
	}
	return out
}

// ResponsibleFor returns the view member responsible for searching key
// under the current division of responsibility: the assignment the
// S-mode transition exists to keep consistent. It is a pure function of
// the current view membership, so all members agree on it as soon as
// they agree on the view.
func (db *DB) ResponsibleFor(key string) (ids.PID, bool) {
	members := db.host.Process().CurrentView().Members
	if len(members) == 0 {
		return ids.PID{}, false
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return members[int(h.Sum32())%len(members)], true
}

// MyShare reports whether this replica is responsible for key.
func (db *DB) MyShare(key string) bool {
	p, ok := db.ResponsibleFor(key)
	return ok && p == db.host.Process().PID()
}

// ScanMine returns the keys this replica is responsible for — its slice
// of a parallel query.
func (db *DB) ScanMine() []string {
	db.mu.Lock()
	keys := make([]string, 0, len(db.data))
	for k := range db.data {
		keys = append(keys, k)
	}
	db.mu.Unlock()
	var out []string
	for _, k := range keys {
		if db.MyShare(k) {
			out = append(out, k)
		}
	}
	return out
}

// Close leaves the group.
func (db *DB) Close() { db.host.Close() }

// object is DB as the host sees it: gobject.Object and Announcers. The
// snapshot is the whole database, so there is nothing to pull.
type object DB

// Bind implements gobject.Object: every view change settles, to redefine
// the division of responsibility; R-mode does not exist.
func (o *object) Bind(h *gobject.Host) modes.Func {
	o.host = h
	return modes.AlwaysSettle()
}

// WasNormal implements gobject.Object: look-ups run in any view, so
// every cluster was serving.
func (o *object) WasNormal(ids.PIDSet) bool { return true }

// Announcers implements gobject.Announcers. Under enriched views one
// representative (the smallest member) per subview dumps — members of a
// subview provably hold the same set — and a single-subview view (a pure
// shrink) needs no dumps at all. Flat views cannot tell who diverged:
// everyone dumps.
func (o *object) Announcers(v core.EView) ids.PIDSet {
	if !o.cfg.Enriched {
		return v.Comp()
	}
	reps := make(ids.PIDSet)
	if v.Structure.NumSubviews() > 1 {
		for _, sv := range v.Structure.Subviews() {
			if rep, ok := v.Structure.SubviewMembers(sv).Min(); ok {
				reps.Add(rep)
			}
		}
	}
	return reps
}

// Snapshot implements gobject.Object: the dump.
func (o *object) Snapshot() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	dump, err := json.Marshal(o.data)
	if err == nil {
		o.dumpsSent++
		o.dumpBytes += len(dump)
	}
	return dump, err
}

// MergeSnapshot implements gobject.Object: the add-only union.
func (o *object) MergeSnapshot(_ ids.PID, snap []byte) error {
	var dump map[string]string
	if err := json.Unmarshal(snap, &dump); err != nil {
		return fmt.Errorf("lookupdb: dump: %w", err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, v := range dump {
		o.upsertLocked(k, v)
	}
	return nil
}

// Apply implements gobject.Object: fold one insert.
func (o *object) Apply(m core.MsgEvent) {
	if msg, ok := decodeMsg(m.Payload); ok && msg.Type == "ins" {
		o.mu.Lock()
		o.upsertLocked(msg.Key, msg.Val)
		o.mu.Unlock()
	}
}

// upsertLocked merges one entry. Causal multicast does not totally order
// concurrent inserts, and dumps from concurrent partitions arrive in
// arbitrary relative order, so the merge must be order-insensitive:
// conflicting values for one key resolve deterministically to the
// lexicographically largest, making the replicated map a join
// semilattice (convergence regardless of delivery interleaving).
func (o *object) upsertLocked(k, v string) {
	if old, ok := o.data[k]; ok && old >= v {
		return
	}
	o.data[k] = v
}
