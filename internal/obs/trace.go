package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/evs"
)

// EventType discriminates trace events.
type EventType string

// The trace event types. One line of a JSONL trace carries exactly one.
const (
	// EvSend: the process multicast (or unicast) an application message.
	EvSend EventType = "send"
	// EvDeliver: the process delivered an application message.
	EvDeliver EventType = "deliver"
	// EvSuspect: the failure detector flipped its opinion of a peer
	// (Note is "suspected" or "cleared").
	EvSuspect EventType = "suspect"
	// EvPropose: the process started coordinating a membership round.
	EvPropose EventType = "propose"
	// EvRepropose: the process is about to start a membership round
	// solely because a co-member advertises a different view id with an
	// unchanged composition (install-propagation divergence) — churn
	// that no failure-detector tuning removes. Peer is the diverging
	// member, View our view, Note the peer's. The matching EvPropose
	// follows immediately.
	EvRepropose EventType = "repropose"
	// EvReconcile: the process re-sent its cached install to a co-member
	// advertising an older view id with an unchanged composition — the
	// reconciliation fast path healing an install-propagation divergence
	// without a membership round. Peer is the lagging member, View the
	// re-sent view, N the re-send attempt count for that peer (1-based).
	// No EvPropose or EvInstall follows at the reconciler.
	EvReconcile EventType = "reconcile"
	// EvAck: the process acked a proposal and blocked (flush discipline).
	EvAck EventType = "ack"
	// EvInstall: the process installed a view.
	EvInstall EventType = "install"
	// EvFlush: the flush phase of an install completed.
	EvFlush EventType = "flush"
	// EvEChange: the process applied an e-view change.
	EvEChange EventType = "echange"
	// EvMode: the Figure-1 mode machine took a transition.
	EvMode EventType = "mode"
	// EvRun: a run boundary. Harnesses that funnel several independent
	// simulations through one tracer (vsbench running an experiment's
	// sub-scenarios over fresh fabrics) append one of these between
	// them; process and view identifiers restart across the boundary,
	// so trace analysis must not correlate events across it. Emitted by
	// Tracer.MarkRun, never by the Collector.
	EvRun EventType = "run"
)

// Event is one structured trace event. Seq is a per-tracer monotonic
// sequence number assigned at append time; At is the wall-clock time of
// the event. The remaining fields are type-dependent and omitted when
// empty — the README "Observability" section documents which fields
// each type carries.
type Event struct {
	Seq  uint64    `json:"seq"`
	At   time.Time `json:"at"`
	PID  string    `json:"pid"`
	Type EventType `json:"type"`
	// View is the view id the event concerns (installed view, proposal,
	// message origin view).
	View string `json:"view,omitempty"`
	// Msg is the message id for send/deliver events.
	Msg string `json:"msg,omitempty"`
	// Stamp is the vector timestamp (clock.Vector.String) of a multicast
	// delivery or an e-change; with it the trace witnesses P6.2. Unicast
	// deliveries carry none.
	Stamp string `json:"stamp,omitempty"`
	// Peer is the other process for suspect events.
	Peer string `json:"peer,omitempty"`
	// Kind labels the event's flavor: e-change kind, mode transition
	// label, or delivery flavor ("flush", "unicast").
	Kind string `json:"kind,omitempty"`
	// N is a type-dependent count (view size, recovered messages,
	// e-change sequence number).
	N int `json:"n,omitempty"`
	// Round is the membership-round identifier — the epoch of the
	// proposal the event belongs to — carried by propose, ack, and
	// install events. Epochs strictly increase along a process history,
	// so Round pairs each Ack with the Install that resolves it even
	// when proposals overlap (the View string alone cannot order them
	// numerically).
	Round uint64 `json:"round,omitempty"`
	// Struct is the canonical subview/sv-set grouping summary for
	// install and echange events (see StructureSummary): sv-sets joined
	// by "|", subviews within an sv-set by "+", members within a
	// subview by ",", everything sorted. It carries the grouping only —
	// exactly what P6.3 preserves — not the view-scoped identifiers.
	Struct string `json:"struct,omitempty"`
	// DurMS is a type-dependent duration in milliseconds (flush
	// duration, mode dwell).
	DurMS float64 `json:"dur_ms,omitempty"`
	// Note carries anything else ("retry", "suspected", "N->S").
	Note string `json:"note,omitempty"`
}

// StructureSummary renders the subview/sv-set grouping of an enriched
// view structure canonically for Event.Struct: sv-sets joined by "|",
// subviews within an sv-set joined by "+", member PIDs within a subview
// joined by "," — all in sorted order, e.g. "a#1,b#1+c#1|d#1" for
// {{a,b},{c}} in one sv-set and {{d}} in another. The encoding is
// deliberately free of the view-scoped subview/sv-set identifiers:
// P6.3 preserves the grouping across views, never the identifiers, and
// the grouping is also what survives a seed change (trace diffing
// compares Struct directly). The rendering lives on evs.Structure
// (Summary) so the live status endpoint shares it; this wrapper remains
// the trace-facing name.
func StructureSummary(s evs.Structure) string { return s.Summary() }

// Sink receives every event appended to a Tracer, synchronously and in
// order (the tracer serializes emission under its lock). Sinks must not
// call back into the tracer.
type Sink interface {
	Emit(Event)
}

// Tracer is a bounded in-memory ring of events with optional sinks.
// Safe for concurrent use; events from all processes sharing the tracer
// are interleaved in one global sequence.
type Tracer struct {
	mu    sync.Mutex
	seq   uint64
	ring  []Event
	next  int
	full  bool
	sinks []Sink
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 4096

// NewTracer creates a tracer whose ring holds the last capacity events
// (DefaultTraceCapacity if capacity <= 0). Sinks additionally receive
// every event as it is appended, so a JSONL sink sees the complete
// stream even after the ring wraps.
func NewTracer(capacity int, sinks ...Sink) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Event, capacity), sinks: sinks}
}

// Append assigns the event its sequence number (and timestamp, when
// At is zero), stores it in the ring, and emits it to every sink.
func (t *Tracer) Append(ev Event) {
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	for _, s := range t.sinks {
		s.Emit(ev)
	}
	t.mu.Unlock()
}

// MarkRun appends an EvRun boundary marker with the given label. Call
// it between independent simulations sharing this tracer so that trace
// analysis (internal/tracecheck) treats the identifier spaces on either
// side as unrelated.
func (t *Tracer) MarkRun(label string) {
	t.Append(Event{Type: EvRun, Note: label})
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.ring)
	}
	return t.next
}

// Total returns the number of events ever appended (the ring holds the
// last min(Total, capacity) of them).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns the ring contents, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// JSONLSink writes each event as one JSON object per line. It does not
// buffer; wrap the writer in a bufio.Writer (and flush it) for files.
type JSONLSink struct {
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// TextSink writes each event as one human-readable line.
type TextSink struct{ w io.Writer }

// NewTextSink returns a sink writing aligned text lines to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit implements Sink.
func (s *TextSink) Emit(ev Event) {
	line := fmt.Sprintf("%8d %s %-8s %-14s", ev.Seq, ev.At.Format("15:04:05.000000"), ev.Type, ev.PID)
	if ev.View != "" {
		line += " view=" + ev.View
	}
	if ev.Msg != "" {
		line += " msg=" + ev.Msg
	}
	if ev.Stamp != "" {
		line += " stamp=" + ev.Stamp
	}
	if ev.Peer != "" {
		line += " peer=" + ev.Peer
	}
	if ev.Kind != "" {
		line += " kind=" + ev.Kind
	}
	if ev.N != 0 {
		line += fmt.Sprintf(" n=%d", ev.N)
	}
	if ev.Round != 0 {
		line += fmt.Sprintf(" round=%d", ev.Round)
	}
	if ev.Struct != "" {
		line += " struct=" + ev.Struct
	}
	if ev.DurMS != 0 {
		line += fmt.Sprintf(" dur=%.3fms", ev.DurMS)
	}
	if ev.Note != "" {
		line += " " + ev.Note
	}
	fmt.Fprintln(s.w, line)
}

// MemorySink collects every event in memory; tests use it to assert on
// the full stream independent of the ring capacity.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (s *MemorySink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of everything collected.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}
