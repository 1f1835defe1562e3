package main

import (
	"bytes"
	"flag"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/evs"
	"repro/internal/fd"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/transfer"
	"repro/internal/transport"
	"repro/internal/transport/udp"
	"repro/internal/transport/wire"
)

// The micro-harness times one public function of one layer in a tight
// loop (testing.Benchmark), on inputs sized as the workloads size them:
// 4- and 8-entry vectors, 128 B and 4 KiB payloads, a 30-message
// delivered set.

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

func pid(i int) ids.PID { return ids.PID{Site: siteName(i), Inc: 1} }

func pids(n int) []ids.PID {
	out := make([]ids.PID, n)
	for i := range out {
		out[i] = pid(i)
	}
	return out
}

func vector(n int) clock.Vector {
	v := clock.NewVector()
	for i := 0; i < n; i++ {
		v[pid(i)] = uint64(1000 + i)
	}
	return v
}

func dataPacket(n, size int, seq uint64) wire.Data {
	return wire.Data{
		Group:   "bench",
		ID:      ids.MsgID{Sender: pid(0), Seq: seq},
		View:    ids.ViewID{Epoch: 7, Coord: pid(0)},
		Stamp:   vector(n),
		Payload: bytes.Repeat([]byte{0xa5}, size),
	}
}

// samplePackets returns one packet of each of the seven wire kinds,
// sized as churn-sim-n8 sizes them: 8 members, 30 delivered 512 B
// messages in the ack and in the install's flush set.
func samplePackets() map[string]any {
	const n, delivered = 8, 30
	view := ids.ViewID{Epoch: 7, Coord: pid(0)}
	next := ids.ViewID{Epoch: 8, Coord: pid(0)}
	comp := ids.NewPIDSet(pids(n)...)
	structure := evs.Compose(view, comp, nil)
	ack := wire.Ack{Group: "bench", Proposal: next, From: pid(1), PredView: view, Delivered: map[ids.MsgID]wire.Data{}, EChangeSeq: 2, Structure: structure}
	var flush []wire.Data
	for i := uint64(1); i <= delivered; i++ {
		d := dataPacket(n, churnPayload, i)
		ack.Delivered[d.ID] = d
		flush = append(flush, d)
	}
	sv, ss := structure.Subviews(), structure.SVSets()
	return map[string]any{
		"hb":       wire.Heartbeat{Group: "bench", From: pid(1), View: view, MaxEpoch: 9, VC: vector(4)},
		"data":     dataPacket(4, mcastPayload, 42),
		"echange":  wire.EChange{Group: "bench", ID: ids.MsgID{Sender: pid(0), Seq: 5}, View: view, Stamp: vector(n), Seq: 1, Kind: wire.EChangeSubviewMerge, Subviews: sv[:2]},
		"mergereq": wire.MergeReq{Group: "bench", From: pid(2), View: view, Kind: wire.EChangeSVSetMerge, SVSets: ss[:2]},
		"propose":  wire.Propose{Group: "bench", Proposal: next, Comp: pids(n)},
		"ack":      ack,
		"install":  wire.Install{Group: "bench", Proposal: next, Comp: pids(n), Flush: map[ids.ViewID][]wire.Data{view: flush}, Structure: evs.Compose(next, comp, []evs.Predecessor{{Structure: structure, Survivors: comp}})},
	}
}

// roundTrip checks that every wire kind survives encode, decode and
// re-encode unchanged; the codec is timed only if it is correct.
func roundTrip(pkts map[string]any) error {
	for kind, p := range pkts {
		enc, err := wire.Encode(p)
		if err != nil {
			return fmt.Errorf("wire: encode %s: %w", kind, err)
		}
		dec, err := wire.Decode(enc)
		if err != nil {
			return fmt.Errorf("wire: decode %s: %w", kind, err)
		}
		if k, _ := transport.Describe(dec); k != kind {
			return fmt.Errorf("wire: %s decoded as %s", kind, k)
		}
		again, err := wire.Encode(dec)
		if err != nil || !bytes.Equal(enc, again) {
			return fmt.Errorf("wire: %s does not round-trip (%d bytes re-encode to %d, err %v)", kind, len(enc), len(again), err)
		}
	}
	return nil
}

// bench runs f under testing.Benchmark and reports ns/op as name, and
// allocs/op as allocs when that is not empty.
func (r *result) bench(name, allocs string, f func(b *testing.B)) {
	br := testing.Benchmark(f)
	r.layer(name, "ns", float64(br.T.Nanoseconds())/float64(br.N))
	if allocs != "" {
		r.layer(allocs, "count", float64(br.MemAllocs)/float64(br.N))
	}
}

// runLayers runs every micro-measurement into res, each timed loop for
// about benchtime. withObs adds the observer-cost comparison, which needs
// two saturated runs of its own.
func runLayers(res *result, c cfg, benchtime time.Duration, withObs bool) error {
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}
	pkts := samplePackets()
	if err := roundTrip(pkts); err != nil {
		return err
	}
	wireLayers(res, pkts)
	if err := udpLayers(res, benchtime); err != nil {
		return err
	}
	if err := simnetLayers(res); err != nil {
		return err
	}
	clockLayers(res)
	smallLayers(res)
	if err := transferLayers(res, c); err != nil {
		return err
	}
	if err := gobjectLayers(res, c); err != nil {
		return err
	}
	if withObs {
		return obsLayers(res, c)
	}
	return nil
}

func wireLayers(res *result, pkts map[string]any) {
	pkts["data4k"] = dataPacket(4, 4<<10, 43)
	for _, k := range []struct{ kind, name string }{
		{"data", "data"}, {"data4k", "data_4k"}, {"hb", "hb"}, {"ack", "ack"}, {"install", "install"},
	} {
		p := pkts[k.kind]
		enc, _ := wire.Encode(p)
		encAllocs, decAllocs := "", ""
		if k.kind == "data" {
			encAllocs, decAllocs = "wire.enc_data_allocs", "wire.dec_data_allocs"
		}
		res.bench("wire.enc_"+k.name+"_ns", encAllocs, func(b *testing.B) {
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				buf, _ = wire.Append(buf[:0], p)
			}
			sink = buf
		})
		res.bench("wire.dec_"+k.name+"_ns", decAllocs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink, _ = wire.Decode(enc)
			}
		})
	}
	for _, k := range []string{"data", "ack"} {
		frame, _ := wire.AppendFrame(nil, pid(0), pid(1), pkts[k])
		res.layer("wire.frame_"+k+"_bytes", "B", float64(len(frame)))
	}
}

// drainEndpoint discards everything ep receives until it is detached.
func drainEndpoint(ep transport.Endpoint, got *atomic.Int64) {
	for {
		if _, ok := ep.Recv(); !ok {
			return
		}
		if got != nil {
			got.Add(1)
		}
	}
}

func udpLayers(res *result, benchtime time.Duration) error {
	tr := udp.New(udp.Config{})
	defer tr.Close()
	var eps []transport.Endpoint
	for i := 0; i < mcastMembers; i++ {
		ep, err := tr.Attach(pid(i))
		if err != nil {
			return fmt.Errorf("udp layer: %w", err)
		}
		eps = append(eps, ep)
	}
	var got atomic.Int64
	for _, ep := range eps[2:] {
		go drainEndpoint(ep, nil)
	}
	pkt := dataPacket(4, mcastPayload, 1)

	// Round trip first, while eps[1] is still read by hand: a sends, b
	// echoes, a receives. Each hop waits out the coalescing window.
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			m, ok := eps[1].Recv()
			if !ok {
				return
			}
			if d, isData := m.Payload.(wire.Data); isData && d.ID.Seq == 0 {
				return // end of the echo phase
			}
			eps[1].Send(pid(0), m.Payload)
		}
	}()
	var rtt sample
	for end := time.Now().Add(benchtime); time.Now().Before(end) || len(rtt) < 20; {
		start := time.Now()
		eps[0].Send(pid(1), pkt)
		if _, ok := eps[0].Recv(); !ok {
			return fmt.Errorf("udp layer: endpoint closed during round trips")
		}
		rtt = append(rtt, float64(time.Since(start))/1e3)
	}
	stopEcho := pkt
	stopEcho.ID.Seq = 0
	eps[0].Send(pid(1), stopEcho)
	<-echoDone
	res.layer("udp.rtt_us", "us", rtt.pct(50))

	go drainEndpoint(eps[1], &got)
	go drainEndpoint(eps[0], nil)
	res.bench("udp.send_ns", "udp.send_allocs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eps[0].Send(pid(1), pkt)
		}
	})
	res.bench("udp.bcast_ns", "", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eps[0].Broadcast(pkt)
		}
	})

	// One-way flood: how many 128 B multicast packets per second one
	// sender gets through one socket pair, counting what arrived.
	quiet(&got)
	const flood = 20000
	before := got.Load()
	start := time.Now()
	for i := 0; i < flood; i++ {
		eps[0].Send(pid(1), pkt)
	}
	arrived := quiet(&got) - before
	took := time.Since(start) - quietFor
	res.layer("udp.burst_msgs_s", "1/s", float64(arrived)/took.Seconds())
	res.layer("udp.burst_delivered_frac", "ratio", float64(arrived)/flood)
	return nil
}

// quietFor is how long a counter must stand still to count as settled.
const quietFor = 20 * time.Millisecond

// quiet waits until n has not moved for quietFor and returns it.
func quiet(n *atomic.Int64) int64 {
	last, since := n.Load(), time.Now()
	for time.Since(since) < quietFor {
		time.Sleep(time.Millisecond)
		if v := n.Load(); v != last {
			last, since = v, time.Now()
		}
	}
	return last
}

func simnetLayers(res *result) error {
	f := newSim(1)
	defer f.Close()
	var eps []transport.Endpoint
	for i := 0; i < mcastMembers; i++ {
		ep, err := f.Attach(pid(i))
		if err != nil {
			return fmt.Errorf("simnet layer: %w", err)
		}
		eps = append(eps, ep)
	}
	pkt := dataPacket(4, mcastPayload, 1)

	// Delivery lag on an idle fabric: arrival minus send minus the
	// configured delay, i.e. how late the delivery timer fires.
	var lag sample
	for i := 0; i < 200; i++ {
		start := time.Now()
		eps[0].Send(pid(1), pkt)
		if _, ok := eps[1].Recv(); !ok {
			return fmt.Errorf("simnet layer: endpoint closed")
		}
		lag = append(lag, float64(time.Since(start)-simDelay)/1e3)
		time.Sleep(time.Millisecond)
	}
	res.layer("simnet.deliver_lag_us", "us", lag.pct(50))

	for _, ep := range eps[1:] {
		go drainEndpoint(ep, nil)
	}
	res.bench("simnet.send_ns", "simnet.send_allocs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eps[0].Send(pid(1), pkt)
		}
	})
	res.bench("simnet.bcast_ns", "", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eps[0].Broadcast(pkt)
		}
	})
	return nil
}

// causalMsg is the smallest clock.CausalMsg.
type causalMsg struct {
	from  ids.PID
	stamp clock.Vector
}

func (m causalMsg) CausalSender() ids.PID     { return m.from }
func (m causalMsg) CausalStamp() clock.Vector { return m.stamp }

func clockLayers(res *result) {
	for _, n := range []int{4, 8} {
		suffix := "_ns"
		allocs := "clock.offer_allocs"
		if n == 8 {
			suffix, allocs = "_n8_ns", ""
		}
		members := ids.NewPIDSet(pids(n)...)
		// In-order arrival from one sender in an n-member view: the
		// case every multicast of the mcast workloads takes.
		res.bench("clock.offer"+suffix, allocs, func(b *testing.B) {
			buf := clock.NewCausalBuffer[causalMsg]()
			stamp := vector(n)
			for p := range stamp {
				stamp[p] = 0
			}
			for i := 0; i < b.N; i++ {
				stamp[pid(0)]++
				sink = buf.Offer(causalMsg{from: pid(0), stamp: stamp})
			}
		})
		res.bench("clock.merge"+suffix, "", func(b *testing.B) {
			v, w := vector(n), vector(n)
			for i := 0; i < b.N; i++ {
				w[pid(i%n)]++
				v.Merge(w)
			}
			sink = v
		})
		res.bench("clock.restrict"+suffix, "", func(b *testing.B) {
			v := vector(n)
			for i := 0; i < b.N; i++ {
				sink = v.Restrict(members)
			}
		})
	}
}

// smallLayers times eventq, fd, evs and stable.
func smallLayers(res *result) {
	res.bench("eventq.pushpop_ns", "", func(b *testing.B) {
		q := eventq.New[int]()
		for i := 0; i < b.N; i++ {
			q.Push(i)
			sink, _ = q.TryPop()
		}
	})

	const n = churnMembers
	peers := pids(n)
	res.bench("fd.heard_ns", "", func(b *testing.B) {
		d := fd.New(60 * time.Millisecond)
		now := time.Now()
		for i := 0; i < b.N; i++ {
			now = now.Add(time.Microsecond)
			d.Heard(peers[i%n], now)
		}
	})
	res.bench("fd.alive_ns", "", func(b *testing.B) {
		d := fd.New(60 * time.Millisecond)
		now := time.Now()
		for _, p := range peers {
			d.Heard(p, now)
		}
		for i := 0; i < b.N; i++ {
			sink = d.Alive(now)
		}
	})

	// Two predecessor views of four members each merging into one view
	// of eight, then the application merging two of its subviews.
	left, right := ids.NewPIDSet(peers[:4]...), ids.NewPIDSet(peers[4:]...)
	all := ids.NewPIDSet(peers...)
	preds := []evs.Predecessor{
		{Structure: evs.Compose(ids.ViewID{Epoch: 5, Coord: peers[0]}, left, nil), Survivors: left},
		{Structure: evs.Compose(ids.ViewID{Epoch: 6, Coord: peers[4]}, right, nil), Survivors: right},
	}
	merged := ids.ViewID{Epoch: 7, Coord: peers[0]}
	res.bench("evs.compose_ns", "", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = evs.Compose(merged, all, preds)
		}
	})
	structure := evs.Compose(merged, all, preds)
	one := []ids.SVSetID{structure.SVSets()[0], structure.SVSets()[1]}
	res.bench("evs.merge_ns", "", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _, _ = structure.MergeSVSets(one)
		}
	})

	res.bench("stable.append_view_ns", "", func(b *testing.B) {
		store := stable.NewRegistry().Open("a")
		rec := stable.ViewRecord{View: merged, Members: peers, Installer: peers[0]}
		for i := 0; i < b.N; i++ {
			store.AppendView(rec)
		}
	})
}

// bulkApp is a transfer.App whose shared state is a small critical piece
// and a large bulk piece.
type bulkApp struct {
	mu             sync.Mutex
	critical, bulk []byte
}

func (a *bulkApp) MarshalCritical() ([]byte, error) { return a.critical, nil }
func (a *bulkApp) MarshalBulk() ([]byte, error)     { return a.bulk, nil }
func (a *bulkApp) ApplyCritical(b []byte) error {
	a.mu.Lock()
	a.critical = b
	a.mu.Unlock()
	return nil
}
func (a *bulkApp) ApplyBulk(b []byte) error {
	a.mu.Lock()
	a.bulk = b
	a.mu.Unlock()
	return nil
}

// transferLayers moves 1 MiB with the Split strategy between two members
// on simnet: resume_ms is request -> critical piece applied (the receiver
// may resume), bulk_mb_s the rate of the whole transfer.
func transferLayers(res *result, c cfg) error {
	const size = 1 << 20
	g := newGroup(newSim(c.seed), mcastTiming())
	apps := []*bulkApp{{critical: []byte("v1"), bulk: bytes.Repeat([]byte{7}, size)}, {}}
	tools := make([]*transfer.Tool, 2)
	type mark struct {
		critical, done time.Time
	}
	marks := make(chan mark, 1)
	var cur mark
	if err := g.startN(2, 10*time.Second); err != nil {
		g.stop()
		return fmt.Errorf("transfer layer: %w", err)
	}
	for i := range tools {
		tools[i] = transfer.New(g.member(i).p, apps[i], transfer.Options{Strategy: transfer.Split})
	}
	g.handle(func(m *member, ev core.MsgEvent) {
		pr, handled, _ := tools[m.idx].HandleMessage(ev)
		if !handled || m.idx != 1 {
			return
		}
		if pr.CriticalDone && cur.critical.IsZero() {
			cur.critical = time.Now()
		}
		if pr.Done {
			cur.done = time.Now()
			marks <- cur
			cur = mark{}
		}
	})
	var resume, rate sample
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := tools[1].Request(g.member(0).p.PID()); err != nil {
			g.stop()
			return fmt.Errorf("transfer layer: %w", err)
		}
		select {
		case m := <-marks:
			resume = append(resume, ms(m.critical.Sub(start)))
			rate = append(rate, size/1e6/m.done.Sub(start).Seconds())
		case <-time.After(10 * time.Second):
			g.stop()
			return fmt.Errorf("transfer layer: 1 MiB did not arrive in 10 s")
		}
	}
	apps[1].mu.Lock()
	intact := bytes.Equal(apps[1].bulk, apps[0].bulk)
	apps[1].mu.Unlock()
	if v := g.stop(); len(v) > 0 || !intact {
		return fmt.Errorf("transfer layer: state arrived intact=%v, violations %v", intact, v)
	}
	res.layer("transfer.resume_ms", "ms", resume.pct(50))
	res.layer("transfer.bulk_mb_s", "MB/s", rate.pct(50))
	return nil
}

// gobjectLayers times how long a replica of the reference group object
// (apps/counter) takes from Open to N-mode when it joins a running group.
func gobjectLayers(res *result, c cfg) error {
	tr := newSim(c.seed)
	defer tr.Close()
	reg := stable.NewRegistry()
	var open []*counter.Counter
	defer func() {
		for _, r := range open {
			r.Close()
		}
	}()
	var settleMs sample
	for i := 0; i < 5; i++ {
		start := time.Now()
		r, err := counter.Open(tr, reg, siteName(i), churnTiming(), true)
		if err != nil {
			return fmt.Errorf("gobject layer: %w", err)
		}
		open = append(open, r)
		serving := func(o *counter.Counter) bool {
			return o.Mode() == modes.Normal && o.Process().CurrentView().Size() == len(open)
		}
		if !poll(10*time.Second, func() bool { return serving(r) }) {
			return fmt.Errorf("gobject layer: replica %d did not reach N-mode", i)
		}
		if i >= 2 { // the first two form the group the others join
			settleMs = append(settleMs, ms(time.Since(start)))
		}
		// The older replicas settle too before the next one joins.
		for _, o := range open {
			if !poll(10*time.Second, func() bool { return serving(o) }) {
				return fmt.Errorf("gobject layer: group of %d did not settle", len(open))
			}
		}
	}
	res.layer("gobject.settle_ms", "ms", settleMs.pct(50))
	return nil
}

// obsLayers measures what attaching obs.NewCollector as Options.Observer
// costs the saturated mcast-sim-n4 data path: two fresh groups run the
// same load for the same time, one with the collector and one without
// (throughput sinks as a view ages, so an aged end-to-end window is no
// fair reference). The collector is never attached in an end-to-end run.
func obsLayers(res *result, c cfg) error {
	run := func(observer core.Observer) (tput, allocs float64, err error) {
		debug.FreeOSMemory() // both sides start from a collected heap
		env, err := setupMcast("sim", c, observer, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("obs layer: %w", err)
		}
		a := takeCounters(env.g, nil)
		sat := env.gen.run(mcastSenders, satWindow, c.part(0.15), 0, false)
		b := takeCounters(env.g, nil)
		if v := env.g.stop(); len(v) > 0 {
			return 0, 0, fmt.Errorf("obs layer: %v", v)
		}
		return float64(sat.completed) / sat.wall.Seconds(), ratio(float64(b.mem.Mallocs-a.mem.Mallocs), float64(sat.sent)), nil
	}
	baseTput, baseAllocs, err := run(nil)
	if err != nil {
		return err
	}
	tput, allocs, err := run(obs.NewCollector(nil, nil))
	if err != nil {
		return err
	}
	res.layer("obs.collector_tput_frac", "ratio", ratio(tput, baseTput))
	res.layer("obs.collector_allocs_per_mcast", "count", allocs-baseAllocs)
	return nil
}
