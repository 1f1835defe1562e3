package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/udp"
)

const (
	mcastPayload = 128
	// mcastHeader is the op id (8 bytes) and the sender index (1 byte)
	// every generated payload starts with.
	mcastHeader = 9
	// opDeadline is how long a multicast may stay undelivered at some
	// member before it is counted failed and its window slot reclaimed;
	// without it one lost message would stall a closed loop for good.
	opDeadline = 2 * time.Second
	// ringSize bounds the in-flight ops per sender (power of two, well
	// above the largest window so a slot is long finished when reused).
	ringSize = 1024
)

// opSlot tracks one in-flight multicast. state packs the op id (high 56
// bits) and the number of members that have yet to read it (low 8 bits)
// so that readers and the expiring sender race on a single word: a slot
// whose low byte is zero is finished, and a reader holding a stale id
// cannot touch the op that reuses the slot.
type opSlot struct {
	state  atomic.Uint64
	sentNs int64
}

type sender struct {
	m      *member
	idx    uint8
	ring   [ringSize]opSlot
	tokens chan struct{} // one per free window slot
	next   uint64

	sent   atomic.Int64
	failed atomic.Int64
}

// mcastGen is the closed-loop multicast load generator: each sender
// keeps `window` multicasts in flight and issues the next only when one
// of its own has been read by every member.
type mcastGen struct {
	g       *group
	n       int
	senders []*sender
	// pattern is the seeded byte stream payload bodies are cut from;
	// readers recompute the cut to check what they were delivered.
	pattern []byte
	epoch   time.Time
	trace   *tracer

	completed atomic.Int64
	corrupt   atomic.Int64

	recording atomic.Bool
	latMu     sync.Mutex
	lat       sample // ms, light phase only
}

func newMcastGen(g *group, n, senders int, seed int64, tr *tracer) *mcastGen {
	gen := &mcastGen{g: g, n: n, pattern: make([]byte, 1<<16), epoch: time.Now(), trace: tr}
	if tr != nil {
		gen.epoch = tr.epoch // one time base for the generator's and the decorator's stamps
	}
	rand.New(rand.NewSource(seed)).Read(gen.pattern)
	for i := 0; i < senders; i++ {
		gen.senders = append(gen.senders, &sender{
			m:      g.member(i),
			idx:    uint8(i),
			tokens: make(chan struct{}, satWindow), // the largest window fits, so releases never block
		})
	}
	g.handle(gen.onDeliver)
	return gen
}

func (gen *mcastGen) now() int64 { return int64(time.Since(gen.epoch)) }

func (gen *mcastGen) body(id uint64) []byte {
	off := int(id * 31 % uint64(len(gen.pattern)-mcastPayload))
	return gen.pattern[off : off+mcastPayload-mcastHeader]
}

// onDeliver runs on a member's reader goroutine for every message it
// reads. It never blocks on the generator: completing an op is one
// compare-and-swap and a non-blocking token release.
func (gen *mcastGen) onDeliver(m *member, ev core.MsgEvent) {
	pl := ev.Payload
	if len(pl) != mcastPayload || int(pl[8]) >= len(gen.senders) {
		gen.corrupt.Add(1)
		return
	}
	id := binary.LittleEndian.Uint64(pl)
	if !bytes.Equal(pl[mcastHeader:], gen.body(id)) {
		gen.corrupt.Add(1)
		return
	}
	s := gen.senders[pl[8]]
	if gen.trace != nil && gen.trace.sampled(id) {
		gen.trace.read(s.idx, id, m.idx, gen.now())
	}
	slot := &s.ring[id%ringSize]
	for {
		v := slot.state.Load()
		if v>>8 != id || v&0xff == 0 {
			return // expired, and possibly reused: a late delivery of a failed op
		}
		if !slot.state.CompareAndSwap(v, v-1) {
			continue
		}
		if v&0xff == 1 {
			gen.complete(s, slot)
		}
		return
	}
}

func (gen *mcastGen) complete(s *sender, slot *opSlot) {
	gen.completed.Add(1)
	if gen.recording.Load() {
		ms := float64(gen.now()-slot.sentNs) / 1e6
		gen.latMu.Lock()
		gen.lat = append(gen.lat, ms)
		gen.latMu.Unlock()
	}
	select {
	case s.tokens <- struct{}{}:
	default:
	}
}

// expire fails every op of s older than opDeadline and returns how many
// window slots that freed.
func (gen *mcastGen) expire(s *sender) int {
	freed := 0
	now := gen.now()
	for i := range s.ring {
		slot := &s.ring[i]
		v := slot.state.Load()
		if v&0xff == 0 || now-slot.sentNs < int64(opDeadline) {
			continue
		}
		if slot.state.CompareAndSwap(v, v&^0xff) {
			s.failed.Add(1)
			freed++
		}
	}
	return freed
}

// send issues one multicast from s. The send timestamp is taken, and the
// op published, before the Multicast call: the sender's own delivery can
// be read before the call returns.
func (gen *mcastGen) send(s *sender, buf []byte) {
	s.next++
	id := s.next
	binary.LittleEndian.PutUint64(buf, id)
	buf[8] = s.idx
	copy(buf[mcastHeader:], gen.body(id))
	slot := &s.ring[id%ringSize]
	start := gen.now()
	slot.sentNs = start
	slot.state.Store(id<<8 | uint64(gen.n))
	s.sent.Add(1)
	err := s.m.p.Multicast(buf)
	if gen.trace != nil && gen.trace.sampled(id) {
		gen.trace.submit(s.idx, id, start, gen.now())
	}
	if err != nil {
		if v := slot.state.Load(); v>>8 == id && v&0xff != 0 && slot.state.CompareAndSwap(v, v&^0xff) {
			s.failed.Add(1)
			select {
			case s.tokens <- struct{}{}:
			default:
			}
		}
	}
}

// loop is one sender's closed loop. It returns when stop closes or when
// limit multicasts have been sent (limit 0 means no limit).
func (gen *mcastGen) loop(s *sender, limit int, stop <-chan struct{}) {
	buf := make([]byte, mcastPayload)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	free := 0
	for sent := 0; limit == 0 || sent < limit; {
		if free == 0 {
			select {
			case <-stop:
				return
			case <-s.tokens:
				free++
			case <-tick.C:
				free += gen.expire(s)
				continue
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		free--
		gen.send(s, buf)
		sent++
	}
}

// phaseResult is what one generator phase measured.
type phaseResult struct {
	sent, completed, failed int64
	wall                    time.Duration
}

// run drives the first n senders with the given window, for dur or until
// each has sent limit multicasts, then waits for the in-flight ones (failing those
// that miss their deadline). completed and wall cover the open window
// only, so throughput is not diluted by the drain.
func (gen *mcastGen) run(n, window int, dur time.Duration, limit int, record bool) phaseResult {
	var sent0, failed0 int64
	for _, s := range gen.senders[:n] {
		sent0 += s.sent.Load()
		failed0 += s.failed.Load()
		for i := 0; i < window; i++ {
			s.tokens <- struct{}{}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	gen.recording.Store(record)
	t0 := time.Now()
	c0 := gen.completed.Load()
	for _, s := range gen.senders[:n] {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			gen.loop(s, limit, stop)
		}(s)
	}
	if limit == 0 {
		time.Sleep(dur)
	} else {
		wg.Wait()
	}
	ph := phaseResult{completed: gen.completed.Load() - c0, wall: time.Since(t0)}
	gen.recording.Store(false)
	close(stop)
	wg.Wait()
	gen.drain()
	for _, s := range gen.senders[:n] {
		ph.sent += s.sent.Load()
		ph.failed += s.failed.Load()
	}
	ph.sent -= sent0
	ph.failed -= failed0
	return ph
}

// drain waits until no op is in flight, expiring those past their
// deadline, and empties the token channels for the next phase.
func (gen *mcastGen) drain() {
	for {
		busy := false
		for _, s := range gen.senders {
			gen.expire(s)
			for i := range s.ring {
				if s.ring[i].state.Load()&0xff != 0 {
					busy = true
					break
				}
			}
		}
		if !busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, s := range gen.senders {
		for len(s.tokens) > 0 {
			<-s.tokens
		}
	}
}

// mcastTiming is the protocol timing of the mcast-* and repfile
// workloads: defaults, except a suspicion timeout long enough that a
// saturating sender cannot starve heartbeats into false suspicions on a
// 2-core box (see README, known behaviours).
func mcastTiming() core.Options {
	return core.Options{
		Group:          "bench",
		SuspectAfter:   250 * time.Millisecond,
		ProposeTimeout: 500 * time.Millisecond,
		Enriched:       true,
	}
}

// simDelay is the one-way delay simnet injects in every workload.
const simDelay = 100 * time.Microsecond

func newSim(seed int64) *simnet.Fabric {
	return simnet.New(simnet.Config{Delay: simnet.NewUniformDelay(simDelay, simDelay, seed+1), Seed: seed})
}

// newTransport builds the workload's network: the simulator with the
// constant injected delay, or loopback UDP sockets with their drop and
// datagram counters wired to reg.
func newTransport(kind string, seed int64, reg *obs.Registry) transport.Transport {
	if kind == "udp" {
		return udp.New(udp.Config{Metrics: reg})
	}
	return newSim(seed)
}

const (
	mcastMembers = 4
	mcastSenders = 2
	satWindow    = 64
	// The light phase measures unloaded latency: one sender, one message
	// in flight. With more in flight a run's latencies fall into two
	// modes (a delivery timer fires on time only if some processor
	// happens to be busy, and about 1 ms late otherwise) in proportions
	// that differ from run to run; at 4 per sender the median sat on the
	// edge between them and jumped between 0.6 and 1.2 ms.
	lightSenders = 1
	lightWindow  = 1
)

// mcastEnv is one set-up mcast group, warmed and ready to measure.
type mcastEnv struct {
	g   *group
	gen *mcastGen
	reg *obs.Registry
}

// setupMcast starts the group, waits for the common view and warms the
// data path up. A non-nil trc decorates the transport for tracing.
func setupMcast(kind string, c cfg, observer core.Observer, trc *tracer) (*mcastEnv, error) {
	reg := obs.NewRegistry()
	tr := newTransport(kind, c.seed, reg)
	if trc != nil {
		tr = &tracedTransport{Transport: tr, t: trc}
	}
	opts := mcastTiming()
	opts.Observer = observer
	g := newGroup(tr, opts)
	if err := g.startN(mcastMembers, 10*time.Second); err != nil {
		g.stop()
		return nil, err
	}
	gen := newMcastGen(g, mcastMembers, mcastSenders, c.seed, trc)
	// A short warm-up: it is the processor-bound part of set-up, and on
	// a box whose speed drifts by a fifth over an hour it is what would
	// carry setup_s across its bound.
	warm := gen.run(mcastSenders, satWindow, 0, c.scaled(4000)/mcastSenders, false)
	if warm.failed > 0 {
		g.stop()
		return nil, fmt.Errorf("warm-up lost %d of %d multicasts", warm.failed, warm.sent)
	}
	return &mcastEnv{g: g, gen: gen, reg: reg}, nil
}

// runMcast is the mcast-sim-n4 / mcast-udp-n4 workload.
func runMcast(name, kind string, c cfg) (*result, error) {
	res := newResult(name)
	env, err := repeatSetup(c, res, func() (*mcastEnv, error) { return setupMcast(kind, c, nil, nil) }, func(e *mcastEnv) { e.g.stop() })
	if err != nil {
		return nil, err
	}
	g, gen := env.g, env.gen

	// Untraced phases: the end-to-end numbers. In a traced run they get
	// half the time and the traced repetition the rest.
	share := 1.0
	if c.trace {
		share = 0.5
	}
	light := gen.run(lightSenders, lightWindow, c.part(0.30*share), 0, true)
	before := takeCounters(g, env.reg)
	sat := gen.run(mcastSenders, satWindow, c.part(0.60*share), 0, false)
	after := takeCounters(g, env.reg)
	crash, join, vcFailed := faultPhase(g, mcastMembers-1, c.part(0.10*share))

	res.Attempted = int(light.sent+sat.sent) + len(crash) + len(join) + vcFailed
	res.Failed = int(light.failed+sat.failed) + vcFailed
	satTput := float64(sat.completed) / sat.wall.Seconds()
	res.e2e("mcast_tput_msgs_s", "1/s", satTput, int(sat.completed))
	res.timing("mcast_lat_p50_ms", gen.lat, 50)
	res.timing("mcast_lat_p99_ms", gen.lat, 99)
	res.timing("vc_crash_p50_ms", crash, 50)
	res.layer("mcast_lat_p10_ms", "ms", gen.lat.pct(10))
	res.layer("vc_join_p50_ms", "ms", join.pct(50))
	res.mcastLayers(kind, before, after, sat.sent)
	if n := gen.corrupt.Load(); n > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d deliveries carried a payload the generator never sent", n))
	}
	res.Violations = append(res.Violations, g.stop()...)

	if c.trace {
		// Start the repetition from a collected heap, as the phases above
		// did: behind a GiB of garbage the collector runs so rarely that
		// the traced group outruns the untraced one.
		debug.FreeOSMemory()
		if err := tracedMcast(name, kind, c, res, satTput); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// faultPhase repeatedly crashes member victim and starts its site again,
// for about dur (three cycles at least). It returns, in ms, the time
// from each Crash call until every survivor has read the reduced view,
// and from each core.Start until all members have read the full view,
// plus the number of waits that timed out.
func faultPhase(g *group, victim int, dur time.Duration) (crash, join sample, failed int) {
	// Let heartbeats mark the data phase's messages stable first, so
	// the acks of the first change carry no stale bodies.
	time.Sleep(settle)
	end := time.Now().Add(dur)
	for i := 0; i < 3 || time.Now().Before(end); i++ {
		m := g.remove(victim)
		t0 := time.Now()
		m.p.Crash()
		if at, ok := g.tracker.await(g.livePIDs(), vcTimeout); ok {
			crash = append(crash, ms(at.Sub(t0)))
		} else {
			failed++
		}
		time.Sleep(settle)
		t0 = time.Now()
		if _, err := g.start(victim); err != nil {
			failed++
			return
		}
		if at, ok := g.tracker.await(g.livePIDs(), vcTimeout); ok {
			join = append(join, ms(at.Sub(t0)))
		} else {
			failed++
		}
		time.Sleep(settle)
	}
	return
}

const (
	// settle is the quiet time between membership events: long enough
	// for heartbeats to advertise the new view and prune stable
	// messages, so consecutive changes do not overlap.
	settle = 30 * time.Millisecond
	// vcTimeout fails a view-change wait.
	vcTimeout = 3 * time.Second
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
