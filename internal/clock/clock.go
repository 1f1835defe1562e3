// Package clock implements logical time: Lamport clocks and vector clocks,
// plus a causal-delivery buffer used by the causal multicast layer.
//
// Enriched view synchrony needs causality twice. Property 6.2 requires
// e-view change events to define consistent cuts of the computation, which
// the run-time achieves by delivering e-view changes through causal order;
// and the trace checker re-verifies the cut property offline from recorded
// vector timestamps.
package clock

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ids"
)

// Lamport is a Lamport scalar clock. The zero value is ready to use.
// Lamport is not safe for concurrent use; confine it to one goroutine.
type Lamport struct {
	t uint64
}

// Now returns the current clock value without advancing it.
func (l *Lamport) Now() uint64 { return l.t }

// Tick advances the clock for a local event and returns the new value.
func (l *Lamport) Tick() uint64 {
	l.t++
	return l.t
}

// Observe merges a remote timestamp and advances past it, returning the
// new value. Use on message receipt.
func (l *Lamport) Observe(remote uint64) uint64 {
	if remote > l.t {
		l.t = remote
	}
	l.t++
	return l.t
}

// Vector is a vector clock mapping process ids to event counts. Vectors
// are sparse: absent entries are zero. The nil map is a valid (all-zero)
// read-only vector; use NewVector or Clone before writing.
type Vector map[ids.PID]uint64

// NewVector returns an empty vector clock.
func NewVector() Vector { return make(Vector) }

// Get returns the component for p (zero if absent).
func (v Vector) Get(p ids.PID) uint64 { return v[p] }

// Tick increments p's component and returns the new vector (receiver
// mutated). Call on a local event at process p.
func (v Vector) Tick(p ids.PID) Vector {
	v[p]++
	return v
}

// Merge sets each component of v to the max of v and w, mutating v.
func (v Vector) Merge(w Vector) Vector {
	for p, t := range w {
		if t > v[p] {
			v[p] = t
		}
	}
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for p, t := range v {
		c[p] = t
	}
	return c
}

// LE reports whether v happens-before-or-equals w (every component of v is
// <= the corresponding component of w).
func (v Vector) LE(w Vector) bool {
	for p, t := range v {
		if t > w[p] {
			return false
		}
	}
	return true
}

// Less reports v < w: v happened strictly before w.
func (v Vector) Less(w Vector) bool { return v.LE(w) && !w.LE(v) }

// Concurrent reports whether v and w are causally unrelated.
func (v Vector) Concurrent(w Vector) bool { return !v.LE(w) && !w.LE(v) }

// Equal reports component-wise equality (treating absent as zero).
func (v Vector) Equal(w Vector) bool { return v.LE(w) && w.LE(v) }

// Restrict returns a copy of v with only the components for members,
// dropping everything else. The causal layer restricts vectors to the
// current view composition at view changes.
func (v Vector) Restrict(members ids.PIDSet) Vector {
	c := make(Vector, len(members))
	for p, t := range v {
		if members.Has(p) {
			c[p] = t
		}
	}
	return c
}

// String renders the vector deterministically as "[a#1:3 b#1:1]".
func (v Vector) String() string {
	pids := make([]ids.PID, 0, len(v))
	for p := range v {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i].Less(pids[j]) })
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range pids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.String())
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(v[p], 10))
	}
	b.WriteByte(']')
	return b.String()
}

// ParseVector is the inverse of Vector.String: it parses "[a#1:3 b#1:1]"
// back into a vector ("[]" is the empty vector). The trace checker uses
// it to recover message and e-change stamps from a trace file.
func ParseVector(s string) (Vector, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return nil, fmt.Errorf("clock: malformed vector %q", s)
	}
	v := NewVector()
	for _, f := range strings.Fields(s[1 : len(s)-1]) {
		i := strings.LastIndexByte(f, ':')
		if i < 0 {
			return nil, fmt.Errorf("clock: malformed vector component %q", f)
		}
		p, err := ids.ParsePID(f[:i])
		if err != nil {
			return nil, fmt.Errorf("clock: vector component %q: %w", f, err)
		}
		t, err := strconv.ParseUint(f[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("clock: vector component %q: %w", f, err)
		}
		if _, dup := v[p]; dup {
			return nil, fmt.Errorf("clock: vector names %v twice", p)
		}
		v[p] = t
	}
	return v, nil
}
