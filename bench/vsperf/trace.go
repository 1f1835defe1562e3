package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// traceEvery is the sampling period of the traced run: one multicast in
// traceEvery is followed through every layer boundary. Tracing every
// message of a saturated run would hold some five million spans.
const traceEvery = 16

// maxMembers bounds the per-op stamp arrays.
const maxMembers = 8

// opTrace holds the raw stamps (ns since the generator's epoch) of one
// sampled multicast, indexed by member where a layer is crossed once per
// destination.
type opTrace struct {
	submitStart, submitEnd int64
	sendStart, sendEnd     [maxMembers]int64
	recv, read             [maxMembers]int64
}

type opKey struct {
	sender uint8
	id     uint64
}

// tracer collects stamps from the generator (Multicast call, event
// read) and from the transport decorator (Send, TryRecv). Everything
// stays in memory until the run ends.
type tracer struct {
	epoch time.Time
	n     int

	mu  sync.Mutex
	ops map[opKey]*opTrace
}

func newTracer(n int) *tracer {
	return &tracer{epoch: time.Now(), n: n, ops: make(map[opKey]*opTrace)}
}

func (t *tracer) sampled(id uint64) bool { return id%traceEvery == 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) op(sender uint8, id uint64) *opTrace {
	k := opKey{sender, id}
	o := t.ops[k]
	if o == nil {
		o = &opTrace{}
		t.ops[k] = o
	}
	return o
}

func (t *tracer) submit(sender uint8, id uint64, start, end int64) {
	t.mu.Lock()
	o := t.op(sender, id)
	o.submitStart, o.submitEnd = start, end
	t.mu.Unlock()
}

func (t *tracer) read(sender uint8, id uint64, member int, at int64) {
	t.mu.Lock()
	t.op(sender, id).read[member] = at
	t.mu.Unlock()
}

// tracedTransport decorates the transport handed to core.Start: its
// endpoints stamp Send entry and exit and TryRecv return for the sampled
// multicasts, which it recognises as wire.Data packets carrying the
// generator's payload header.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tt *tracedTransport) Attach(pid ids.PID) (transport.Endpoint, error) {
	ep, err := tt.Transport.Attach(pid)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, t: tt.t, member: int(pid.Site[0] - 'a')}, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	t      *tracer
	member int
}

// sampledData returns the generator's op of a sampled multicast packet.
func (t *tracer) sampledData(payload any) (sender uint8, id uint64, ok bool) {
	d, isData := payload.(wire.Data)
	if !isData || d.Unicast || len(d.Payload) != mcastPayload {
		return 0, 0, false
	}
	id = binary.LittleEndian.Uint64(d.Payload)
	return d.Payload[8], id, t.sampled(id)
}

func (e *tracedEndpoint) Send(to ids.PID, payload any) {
	sender, id, ok := e.t.sampledData(payload)
	if !ok {
		e.Endpoint.Send(to, payload)
		return
	}
	start := e.t.now()
	e.Endpoint.Send(to, payload)
	end := e.t.now()
	dst := int(to.Site[0] - 'a')
	e.t.mu.Lock()
	o := e.t.op(sender, id)
	o.sendStart[dst], o.sendEnd[dst] = start, end
	e.t.mu.Unlock()
}

func (e *tracedEndpoint) TryRecv() (transport.Message, bool) {
	m, ok := e.Endpoint.TryRecv()
	if ok {
		if sender, id, sampled := e.t.sampledData(m.Payload); sampled {
			at := e.t.now()
			e.t.mu.Lock()
			e.t.op(sender, id).recv[e.member] = at
			e.t.mu.Unlock()
		}
	}
	return m, ok
}

// span is one traced interval. Spans of one multicast share Op; Parent
// is the ID of the span that caused this one (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Member int    `json:"member"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names, one per layer boundary crossed by a multicast.
const (
	spanMcast   = "mcast"             // Multicast call -> read at the last member (root)
	spanSubmit  = "core.submit"       // the Multicast call
	spanTx      = "core.tx"           // Multicast entry -> first Send for the message
	spanTransit = "transport.transit" // Send entry -> TryRecv return at the receiver
	spanSend    = "transport.send"    // inside Send, per destination
	spanRx      = "core.rx"           // TryRecv return -> MsgEvent read
)

// spans turns the stamps of every completely observed multicast into a
// span tree: mcast > {core.submit > core.tx, transport.transit >
// transport.send, core.rx}.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]opKey, 0, len(t.ops))
	for k := range t.ops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].sender < keys[j].sender
	})
	var out []span
	add := func(parent int, op, name string, member int, start, end int64) int {
		out = append(out, span{ID: len(out) + 1, Parent: parent, Op: op, Name: name, Member: member, Start: start, End: end})
		return len(out)
	}
	for _, k := range keys {
		o := t.ops[k]
		src := int(k.sender)
		if !o.complete(src, t.n) {
			continue
		}
		var last, firstSend int64
		for m := 0; m < t.n; m++ {
			if o.read[m] > last {
				last = o.read[m]
			}
			if m != src && (firstSend == 0 || o.sendStart[m] < firstSend) {
				firstSend = o.sendStart[m]
			}
		}
		op := fmt.Sprintf("%d/%d", k.sender, k.id)
		root := add(0, op, spanMcast, src, o.submitStart, last)
		sub := add(root, op, spanSubmit, src, o.submitStart, o.submitEnd)
		add(sub, op, spanTx, src, o.submitStart, firstSend)
		for m := 0; m < t.n; m++ {
			if m == src {
				continue
			}
			transit := add(root, op, spanTransit, m, o.sendStart[m], o.recv[m])
			add(transit, op, spanSend, src, o.sendStart[m], o.sendEnd[m])
			add(root, op, spanRx, m, o.recv[m], o.read[m])
		}
	}
	return out
}

// complete reports whether every stamp of the op was taken (a message in
// flight when the run ended misses some).
func (o *opTrace) complete(src, n int) bool {
	if o.submitEnd == 0 {
		return false
	}
	for m := 0; m < n; m++ {
		if o.read[m] == 0 {
			return false
		}
		if m != src && (o.sendStart[m] == 0 || o.recv[m] == 0) {
			return false
		}
	}
	return true
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its child spans (children may overlap each other
// and stick out of the parent; the covered part is the union, clipped).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, edge), min(k.End, s.End)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary is one span kind's count, median duration and median self
// time (ns).
type spanSummary struct {
	Name           string
	Count          int
	Median, Self50 float64
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	dur := make(map[string]sample)
	own := make(map[string]sample)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start))
		own[s.Name] = append(own[s.Name], float64(self[s.ID]))
	}
	var out []spanSummary
	for _, name := range []string{spanMcast, spanSubmit, spanTx, spanTransit, spanSend, spanRx} {
		if len(dur[name]) == 0 {
			continue
		}
		out = append(out, spanSummary{Name: name, Count: len(dur[name]), Median: dur[name].pct(50), Self50: own[name].pct(50)})
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans to %s: %w", path, err)
	}
	return f.Close()
}

// tracedMcast repeats the saturated phase of an mcast workload on a
// fresh group whose transport is decorated, and adds the span medians
// and the tracing overhead to res. untraced is the throughput the
// untraced run measured.
func tracedMcast(name, kind string, c cfg, res *result, untraced float64) error {
	trc := newTracer(mcastMembers)
	env, err := setupMcast(kind, c, nil, trc)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	sat := env.gen.run(mcastSenders, satWindow, c.part(0.30), 0, false)
	res.Violations = append(res.Violations, env.g.stop()...)
	res.Attempted += int(sat.sent)
	res.Failed += int(sat.failed)

	spans := trc.spans()
	res.Spans = summarizeSpans(spans)
	med := make(map[string]float64)
	for _, s := range res.Spans {
		med[s.Name] = s.Median
	}
	res.layer("core.submit_ns", "ns", med[spanSubmit])
	res.layer("core.tx_us", "us", med[spanTx]/1e3)
	res.layer("transport.send_ns", "ns", med[spanSend])
	res.layer("transport.transit_us", "us", med[spanTransit]/1e3)
	res.layer("core.rx_us", "us", med[spanRx]/1e3)
	res.layer("trace.overhead_frac", "ratio", 1-ratio(float64(sat.completed)/sat.wall.Seconds(), untraced))
	if c.spansOut != "" {
		return writeSpans(fmt.Sprintf("%s.%s.json", c.spansOut, name), spans)
	}
	return nil
}
