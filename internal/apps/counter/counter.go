// Package counter implements a replicated grow-only counter as a group
// object on the gobject framework — the reference Object implementation.
//
// Semantics: Increment is an external operation served in N-mode; the
// counter's value is the sum of per-site contributions. Contribution
// vectors form a join semilattice (pointwise max), so the state merging
// problem after partitions (both sides incremented independently)
// resolves by snapshot exchange alone — the object is no gobject.Puller,
// which also exercises the host's no-transfer path.
//
// Like the paper's look-up database, reads work in any view and every
// view change passes through S-mode; like its state merging discussion,
// concurrent partitions make independent progress that the union
// reconciles.
package counter

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/gobject"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/stable"
	"repro/internal/transport"
)

// Counter is one replica.
type Counter struct {
	host *gobject.Host
	obj  *object
}

// object implements gobject.Object.
type object struct {
	self ids.PID
	mu   sync.Mutex
	// contrib maps each site to its cumulative increments.
	contrib map[string]uint64
}

var counterMagic = []byte("\x01counter1\x00")

type incMsg struct {
	Site  string `json:"site"`
	Delta uint64 `json:"delta"`
}

// Open starts a replica at the given site.
func Open(fabric transport.Transport, reg *stable.Registry, site string, coreOpts core.Options, enriched bool) (*Counter, error) {
	obj := &object{contrib: make(map[string]uint64)}
	host, err := gobject.Open(fabric, reg, site, coreOpts, gobject.Config{Enriched: enriched}, obj)
	if err != nil {
		return nil, fmt.Errorf("counter: %w", err)
	}
	return &Counter{host: host, obj: obj}, nil
}

// Process exposes the underlying process.
func (c *Counter) Process() *core.Process { return c.host.Process() }

// Mode returns the current Figure-1 mode.
func (c *Counter) Mode() modes.Mode { return c.host.Mode() }

// Stats exposes the host counters.
func (c *Counter) Stats() gobject.Stats { return c.host.Stats() }

// Increment adds delta to this site's contribution; N-mode only.
func (c *Counter) Increment(delta uint64) error {
	body, err := json.Marshal(incMsg{Site: c.obj.self.Site, Delta: delta})
	if err != nil {
		return fmt.Errorf("counter: encode: %w", err)
	}
	return c.host.Multicast(append(append([]byte{}, counterMagic...), body...))
}

// Value returns the current counter value (readable in any view, like
// the paper's look-up example).
func (c *Counter) Value() uint64 {
	c.obj.mu.Lock()
	defer c.obj.mu.Unlock()
	var sum uint64
	for _, n := range c.obj.contrib {
		sum += n
	}
	return sum
}

// Contribution returns one site's share.
func (c *Counter) Contribution(site string) uint64 {
	c.obj.mu.Lock()
	defer c.obj.mu.Unlock()
	return c.obj.contrib[site]
}

// Close leaves the group.
func (c *Counter) Close() { c.host.Close() }

// ---- gobject.Object ----

// Bind implements gobject.Object: every view change settles, R-mode
// does not exist (reads always work, increments gate on N).
func (o *object) Bind(h *gobject.Host) modes.Func {
	o.self = h.Process().PID()
	return modes.AlwaysSettle()
}

// WasNormal implements gobject.Object: every non-singleton cluster kept
// serving increments; fresh singletons did not.
func (o *object) WasNormal(cluster ids.PIDSet) bool { return len(cluster) >= 2 }

// Snapshot implements gobject.Object.
func (o *object) Snapshot() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return json.Marshal(o.contrib)
}

// MergeSnapshot implements gobject.Object: pointwise max — the lattice
// join, idempotent and order-insensitive.
func (o *object) MergeSnapshot(_ ids.PID, snap []byte) error {
	var contrib map[string]uint64
	if err := json.Unmarshal(snap, &contrib); err != nil {
		return fmt.Errorf("counter: snapshot: %w", err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for site, n := range contrib {
		if n > o.contrib[site] {
			o.contrib[site] = n
		}
	}
	return nil
}

// Apply implements gobject.Object: fold one increment.
func (o *object) Apply(m core.MsgEvent) {
	if !bytes.HasPrefix(m.Payload, counterMagic) {
		return
	}
	var inc incMsg
	if err := json.Unmarshal(m.Payload[len(counterMagic):], &inc); err != nil {
		return
	}
	o.mu.Lock()
	o.contrib[inc.Site] += inc.Delta
	o.mu.Unlock()
}
