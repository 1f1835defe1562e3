// Package ids defines the identifier types shared by every layer of the
// stack: process identifiers with incarnation numbers, view identifiers,
// message identifiers, and the subview / sv-set identifiers introduced by
// enriched view synchrony.
//
// The paper models recovery by assigning a recovered process a new
// identifier drawn from an infinite name space. We realize that as a
// (site, incarnation) pair: the site name is stable across crashes (it is
// the key under which permanent state is stored), while every recovery
// bumps the incarnation, yielding a fresh process identifier.
package ids

import (
	"fmt"
	"strconv"
	"strings"
)

// PID identifies a single incarnation of a process. The zero value is not
// a valid PID; valid PIDs have a non-empty Site and Inc >= 1.
type PID struct {
	// Site is the stable name of the host/process slot. Permanent state
	// survives under this key across incarnations.
	Site string
	// Inc is the incarnation number, starting at 1. A recovered process
	// reappears with the same Site and a larger Inc.
	Inc uint32
}

// IsZero reports whether p is the zero (invalid) PID.
func (p PID) IsZero() bool { return p.Site == "" && p.Inc == 0 }

// Less orders PIDs lexicographically by (Site, Inc). The membership layer
// uses this order to pick coordinators deterministically.
func (p PID) Less(q PID) bool {
	if p.Site != q.Site {
		return p.Site < q.Site
	}
	return p.Inc < q.Inc
}

// String renders the PID as "site#inc".
func (p PID) String() string {
	if p.IsZero() {
		return "<nil-pid>"
	}
	return p.Site + "#" + strconv.FormatUint(uint64(p.Inc), 10)
}

// ParsePID parses the "site#inc" form produced by PID.String.
func ParsePID(s string) (PID, error) {
	i := strings.LastIndexByte(s, '#')
	if i <= 0 || i == len(s)-1 {
		return PID{}, fmt.Errorf("ids: malformed pid %q", s)
	}
	inc, err := strconv.ParseUint(s[i+1:], 10, 32)
	if err != nil {
		return PID{}, fmt.Errorf("ids: malformed pid incarnation in %q: %w", s, err)
	}
	if inc == 0 {
		return PID{}, fmt.Errorf("ids: pid %q has zero incarnation", s)
	}
	return PID{Site: s[:i], Inc: uint32(inc)}, nil
}

// ViewID identifies an installed view. View identifiers are totally
// ordered by (Epoch, Coord); the epoch is chosen by the proposing
// coordinator to exceed every epoch it has observed, so identifiers of
// successive views at any process strictly increase, while concurrent
// partitions may install views with incomparable memberships but still
// distinctly identified.
type ViewID struct {
	// Epoch is the proposal epoch, strictly increasing along every
	// process's history.
	Epoch uint64
	// Coord is the coordinator that proposed the view.
	Coord PID
}

// IsZero reports whether v is the zero ViewID (no view installed yet).
func (v ViewID) IsZero() bool { return v.Epoch == 0 && v.Coord.IsZero() }

// Less orders view identifiers by (Epoch, Coord).
func (v ViewID) Less(w ViewID) bool {
	if v.Epoch != w.Epoch {
		return v.Epoch < w.Epoch
	}
	return v.Coord.Less(w.Coord)
}

// String renders the ViewID as "v<epoch>@<coord>".
func (v ViewID) String() string {
	if v.IsZero() {
		return "<nil-view>"
	}
	return "v" + strconv.FormatUint(v.Epoch, 10) + "@" + v.Coord.String()
}

// MsgID identifies a multicast message: the sender plus a per-sender
// sequence number. Uniqueness of MsgIDs underpins the Integrity property
// (at-most-once delivery, only-if-sent).
type MsgID struct {
	Sender PID
	Seq    uint64
}

// IsZero reports whether m is the zero MsgID.
func (m MsgID) IsZero() bool { return m.Sender.IsZero() && m.Seq == 0 }

// String renders the MsgID as "m<seq>@<sender>".
func (m MsgID) String() string {
	return "m" + strconv.FormatUint(m.Seq, 10) + "@" + m.Sender.String()
}

// SubviewID identifies a subview. Subview identifiers are globally unique:
// they embed the view in which the subview was created plus a per-view
// sequence number. Identifiers are scoped to their view: when a view
// change installs a successor, surviving subviews keep their *grouping*
// (Property 6.3) but receive fresh identifiers — two concurrent views may
// each hold a piece of a split subview, and those pieces must stay
// distinguishable after a merge.
type SubviewID struct {
	Origin ViewID
	Seq    uint32
}

// IsZero reports whether s is the zero SubviewID.
func (s SubviewID) IsZero() bool { return s.Origin.IsZero() && s.Seq == 0 }

// Less orders subview identifiers by (Origin, Seq).
func (s SubviewID) Less(t SubviewID) bool {
	if s.Origin != t.Origin {
		return s.Origin.Less(t.Origin)
	}
	return s.Seq < t.Seq
}

// String renders the SubviewID as "sv<seq>/<origin>".
func (s SubviewID) String() string {
	return "sv" + strconv.FormatUint(uint64(s.Seq), 10) + "/" + s.Origin.String()
}

// SVSetID identifies a subview set (sv-set). Like subview identifiers,
// sv-set identifiers are globally unique and survive view changes.
type SVSetID struct {
	Origin ViewID
	Seq    uint32
}

// IsZero reports whether s is the zero SVSetID.
func (s SVSetID) IsZero() bool { return s.Origin.IsZero() && s.Seq == 0 }

// Less orders sv-set identifiers by (Origin, Seq).
func (s SVSetID) Less(t SVSetID) bool {
	if s.Origin != t.Origin {
		return s.Origin.Less(t.Origin)
	}
	return s.Seq < t.Seq
}

// String renders the SVSetID as "ss<seq>/<origin>".
func (s SVSetID) String() string {
	return "ss" + strconv.FormatUint(uint64(s.Seq), 10) + "/" + s.Origin.String()
}
