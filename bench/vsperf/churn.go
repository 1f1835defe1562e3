package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

const (
	churnMembers = 8
	// churnSender multicasts the background traffic and is never removed.
	churnSender  = 4
	churnPayload = 512
	// churnRate is the background multicast rate (msg/s), sent on a fixed
	// schedule whatever the group is doing, so that the flush sets of
	// every view change are non-empty.
	churnRate = 500
)

// churnTiming is the fast failure-detection profile of churn-sim-n8.
func churnTiming() core.Options {
	return core.Options{
		Group:          "bench",
		HeartbeatEvery: 3 * time.Millisecond,
		SuspectAfter:   60 * time.Millisecond,
		Tick:           2 * time.Millisecond,
		ProposeTimeout: 100 * time.Millisecond,
		Enriched:       true,
	}
}

// vcKind is what a churn step did to the group.
type vcKind int

const (
	vcLeave vcKind = iota
	vcCrash
	vcJoin
	vcKinds
)

// vcCost is the protocol traffic one view change caused: propose, ack
// and install packets between the step and the common view.
type vcCost struct {
	pkts, bytes, ackBytes, installBytes uint64
}

func protocolTraffic(s transport.Stats) vcCost {
	return vcCost{
		pkts:         s.PerKind["propose"] + s.PerKind["ack"] + s.PerKind["install"],
		bytes:        s.PerKindBytes["propose"] + s.PerKindBytes["ack"] + s.PerKindBytes["install"],
		ackBytes:     s.PerKindBytes["ack"],
		installBytes: s.PerKindBytes["install"],
	}
}

// churn drives the membership cycles of one group.
type churn struct {
	g       *group
	victims []int // removal order, repeated
	lat     [vcKinds]sample
	cost    [vcKinds]vcCost
	changes [vcKinds]int
	failed  int
	cycle   int
}

// step performs one view change: do acts on the group, and the clock
// runs from just before it until every live member has read the
// resulting common view.
func (c *churn) step(kind vcKind, do func() error) {
	before := protocolTraffic(c.g.tr.Stats())
	t0 := time.Now()
	if err := do(); err != nil {
		c.failed++
		return
	}
	at, ok := c.g.tracker.await(c.g.livePIDs(), vcTimeout)
	if !ok {
		c.failed++
		return
	}
	after := protocolTraffic(c.g.tr.Stats())
	c.lat[kind] = append(c.lat[kind], ms(at.Sub(t0)))
	c.changes[kind]++
	c.cost[kind].pkts += after.pkts - before.pkts
	c.cost[kind].bytes += after.bytes - before.bytes
	c.cost[kind].ackBytes += after.ackBytes - before.ackBytes
	c.cost[kind].installBytes += after.installBytes - before.installBytes
}

// once runs one cycle: settle, remove the next victim (Leave on even
// cycles, Crash on odd ones), settle, start its site again.
func (c *churn) once() {
	victim := c.victims[c.cycle%len(c.victims)]
	kind := vcLeave
	if c.cycle%2 == 1 {
		kind = vcCrash
	}
	c.cycle++
	time.Sleep(settle)
	c.step(kind, func() error {
		m := c.g.remove(victim)
		if m == nil {
			return fmt.Errorf("site %s is not running", siteName(victim))
		}
		if kind == vcLeave {
			m.p.Leave()
		} else {
			m.p.Crash()
		}
		return nil
	})
	time.Sleep(settle)
	c.step(vcJoin, func() error {
		_, err := c.g.start(victim)
		return err
	})
}

// background multicasts churnPayload-byte messages from member
// churnSender at churnRate until stop closes. Each is due at a fixed
// time from the start; a send delayed by a view change is followed by
// the ones that became due meanwhile.
type background struct {
	sent    atomic.Int64
	corrupt atomic.Int64
	pattern []byte
	wg      sync.WaitGroup
}

func startBackground(g *group, seed int64, stop <-chan struct{}) *background {
	b := &background{pattern: make([]byte, 1<<16)}
	rand.New(rand.NewSource(seed)).Read(b.pattern)
	g.handle(func(_ *member, ev core.MsgEvent) {
		if len(ev.Payload) != churnPayload || !bytes.Equal(ev.Payload[8:], b.body(binary.LittleEndian.Uint64(ev.Payload))) {
			b.corrupt.Add(1)
		}
	})
	p := g.member(churnSender).p
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		buf := make([]byte, churnPayload)
		start := time.Now()
		for i := uint64(0); ; i++ {
			due := start.Add(time.Duration(i) * time.Second / churnRate)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			binary.LittleEndian.PutUint64(buf, i)
			copy(buf[8:], b.body(i))
			if p.Multicast(buf) == nil {
				b.sent.Add(1)
			}
		}
	}()
	return b
}

func (b *background) body(id uint64) []byte {
	off := int(id * 31 % uint64(len(b.pattern)-churnPayload))
	return b.pattern[off : off+churnPayload-8]
}

// churnEnv is one set-up churn group with its background traffic.
type churnEnv struct {
	g    *group
	c    *churn
	bg   *background
	stop chan struct{}
}

func (e *churnEnv) close() []string {
	close(e.stop)
	e.bg.wg.Wait()
	return e.g.stop()
}

func setupChurn(c cfg) (*churnEnv, error) {
	g := newGroup(newSim(c.seed), churnTiming())
	if err := g.startN(churnMembers, 10*time.Second); err != nil {
		g.stop()
		return nil, err
	}
	env := &churnEnv{g: g, c: &churn{g: g}, stop: make(chan struct{})}
	for i := 0; i < churnMembers; i++ {
		if i != churnSender {
			env.c.victims = append(env.c.victims, i)
		}
	}
	rand.New(rand.NewSource(c.seed)).Shuffle(len(env.c.victims), func(i, j int) {
		env.c.victims[i], env.c.victims[j] = env.c.victims[j], env.c.victims[i]
	})
	env.bg = startBackground(g, c.seed, env.stop)
	for i := 0; i < c.scaled(3); i++ {
		env.c.once()
	}
	if env.c.failed > 0 {
		env.close()
		return nil, fmt.Errorf("warm-up: %d view changes timed out", env.c.failed)
	}
	// The warm-up cycles are not measured.
	*env.c = churn{g: g, victims: env.c.victims, cycle: env.c.cycle}
	return env, nil
}

// runChurn is the churn-sim-n8 workload.
func runChurn(name string, c cfg) (*result, error) {
	res := newResult(name)
	env, err := repeatSetup(c, res, func() (*churnEnv, error) { return setupChurn(c) }, func(e *churnEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	ch := env.c
	core0 := env.g.coreStats()
	t0 := time.Now()
	for end := t0.Add(c.part(1)); time.Now().Before(end); {
		ch.once()
	}
	wall := time.Since(t0)
	core1 := env.g.coreStats()

	total := ch.changes[vcLeave] + ch.changes[vcCrash] + ch.changes[vcJoin]
	res.Attempted = total + ch.failed
	res.Failed = ch.failed
	graceful := append(append(sample(nil), ch.lat[vcLeave]...), ch.lat[vcJoin]...)
	res.e2e("vc_rate_changes_s", "1/s", float64(total)/wall.Seconds(), total)
	res.timing("vc_graceful_p50_ms", graceful, 50)
	res.timing("vc_graceful_p90_ms", graceful, 90)
	res.timing("vc_leave_p50_ms", ch.lat[vcLeave], 50)
	res.timing("vc_leave_p95_ms", ch.lat[vcLeave], 95)
	res.timing("vc_crash_p50_ms", ch.lat[vcCrash], 50)
	res.timing("vc_join_p50_ms", ch.lat[vcJoin], 50)
	res.timing("vc_join_p95_ms", ch.lat[vcJoin], 95)

	var all vcCost
	for k := vcKind(0); k < vcKinds; k++ {
		all.pkts += ch.cost[k].pkts
		all.bytes += ch.cost[k].bytes
		all.ackBytes += ch.cost[k].ackBytes
		all.installBytes += ch.cost[k].installBytes
	}
	n := float64(total)
	res.layer("vc.pkts_per_change", "count", ratio(float64(all.pkts), n))
	res.layer("vc.bytes_per_change", "B", ratio(float64(all.bytes), n))
	res.layer("vc.ack_bytes_per_change", "B", ratio(float64(all.ackBytes), n))
	res.layer("vc.install_bytes_per_change", "B", ratio(float64(all.installBytes), n))
	for k, label := range [vcKinds]string{vcLeave: "leave", vcCrash: "crash", vcJoin: "join"} {
		res.layer("vc.pkts_per_"+label, "count", ratio(float64(ch.cost[k].pkts), float64(ch.changes[k])))
		res.layer("vc.bytes_per_"+label, "B", ratio(float64(ch.cost[k].bytes), float64(ch.changes[k])))
	}
	res.layer("vc.proposals_per_change", "count", ratio(float64(core1.ProposalsSent-core0.ProposalsSent), n))
	res.layer("vc.retries", "count", float64(core1.ProposalRetries-core0.ProposalRetries))
	res.layer("vc.reconciles", "count", float64(core1.Reconciles-core0.Reconciles))
	res.layer("vc.reproposals", "count", float64(core1.Reproposals-core0.Reproposals))
	res.layer("core.flush_deliveries", "count", float64(core1.FlushDeliveries-core0.FlushDeliveries))

	if n := env.bg.corrupt.Load(); n > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d deliveries carried a payload the generator never sent", n))
	}
	res.Violations = append(res.Violations, env.close()...)
	return res, nil
}
