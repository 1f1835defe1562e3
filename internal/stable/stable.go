// Package stable simulates crash-surviving storage. The paper's
// application model lets part of a process's local state be permanent so
// that applications can recover after failures. The append-only view log
// is not written by the run-time (an install stores only the epoch
// high-water mark); bench/vsperf's stable.append_view_ns loop measures it.
//
// Storage is keyed by *site* name, not process id: a recovered process has
// a fresh identifier (new incarnation) but reopens its site's store.
package stable

import (
	"sync"

	"repro/internal/ids"
)

// ViewRecord is one entry of the persisted view log: a view the process
// installed, with its composition.
type ViewRecord struct {
	View    ids.ViewID
	Members []ids.PID
	// Installer is the incarnation that installed the view.
	Installer ids.PID
}

// Store is one site's permanent storage: a small key/value area for
// application state plus the view log. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	site string
	kv   map[string][]byte
	log  []ViewRecord
}

// Site returns the site this store belongs to.
func (s *Store) Site() string { return s.site }

// Put stores value under key (value is copied).
func (s *Store) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	s.kv[key] = cp
}

// Get returns a copy of the value under key, or nil and false.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.kv[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

// Delete removes key.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.kv, key)
}

// Keys returns all stored keys (unordered).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.kv))
	for k := range s.kv {
		out = append(out, k)
	}
	return out
}

// AppendView persists an installed view to the view log.
func (s *Store) AppendView(rec ViewRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	members := make([]ids.PID, len(rec.Members))
	copy(members, rec.Members)
	rec.Members = members
	s.log = append(s.log, rec)
}

// ViewLog returns a copy of the persisted view log, oldest first.
func (s *Store) ViewLog() []ViewRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ViewRecord, len(s.log))
	copy(out, s.log)
	return out
}

// LastView returns the most recently persisted view record, if any.
func (s *Store) LastView() (ViewRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.log) == 0 {
		return ViewRecord{}, false
	}
	return s.log[len(s.log)-1], true
}

// Registry hands out per-site stores, simulating each site's disk. Safe
// for concurrent use.
type Registry struct {
	mu     sync.Mutex
	stores map[string]*Store
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stores: make(map[string]*Store)}
}

// Open returns site's store, creating an empty one on first open. A
// process that crashes and recovers reopens the same store.
func (r *Registry) Open(site string) *Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.stores[site]
	if !ok {
		st = &Store{site: site, kv: make(map[string][]byte)}
		r.stores[site] = st
	}
	return st
}

// Wipe destroys site's storage (models disk loss).
func (r *Registry) Wipe(site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.stores, site)
}

// Sites returns the sites with existing stores.
func (r *Registry) Sites() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.stores))
	for s := range r.stores {
		out = append(out, s)
	}
	return out
}
