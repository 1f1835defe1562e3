package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/apps/repfile"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/transport/udp"
)

const (
	fileReplicas = 3
	writeSize    = 1 << 10
	// rejoinSize is the file the rejoining replica must pull. It stays
	// below the ~44 KiB at which a write, base64-encoded in its JSON
	// envelope, no longer fits one wire frame (see README).
	rejoinSize    = 32 << 10
	rejoinTimeout = 10 * time.Second
	// pollEvery is how often replica state is sampled while waiting on
	// it; rejoins take tens of milliseconds.
	pollEvery = 250 * time.Microsecond
)

// fileEnv is one set-up replicated file: replicas a, b, c on loopback
// UDP, all in N-mode, warmed with writes.
type fileEnv struct {
	tr      transport.Transport
	metrics *obs.Registry
	reg     *stable.Registry
	cfg     repfile.Config
	files   [fileReplicas]*repfile.File
	rng     *rand.Rand

	// writes counts successful Write calls, unsure those that returned an
	// error (and may have been applied all the same); last is the content
	// of the latest write issued while no other writer ran.
	writes, unsure int
	last           []byte
}

func (e *fileEnv) open(i int) error {
	f, err := repfile.Open(e.tr, e.reg, siteName(i), mcastTiming(), e.cfg)
	if err != nil {
		return err
	}
	e.files[i] = f
	return nil
}

func (e *fileEnv) close() {
	for _, f := range e.files {
		if f != nil {
			f.Close()
		}
	}
	e.tr.Close()
}

// poll samples cond every pollEvery until it holds; false on timeout.
func poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}

// allNormal reports whether the given replicas share one view of exactly
// themselves and all serve in N-mode.
func (e *fileEnv) allNormal(idx ...int) bool {
	v0 := e.files[idx[0]].Process().CurrentView()
	if v0.Size() != len(idx) {
		return false
	}
	for _, i := range idx {
		f := e.files[i]
		if f.Mode() != modes.Normal || f.Process().CurrentView().ID != v0.ID {
			return false
		}
	}
	return true
}

// payload is size seeded bytes headed by the writer index and its op
// number, so every write is distinguishable.
func (e *fileEnv) payload(rng *rand.Rand, writer, op, size int) []byte {
	buf := make([]byte, size)
	rng.Read(buf)
	binary.LittleEndian.PutUint32(buf, uint32(writer))
	binary.LittleEndian.PutUint32(buf[4:], uint32(op))
	return buf
}

// writers runs one closed-loop client on each non-sequencer replica
// (b and c) for dur, or until each has issued limit writes, and returns
// the latencies (ms) of the successful ones and the number failed. The
// sequencer a is never a client: its own writes complete at local
// self-delivery and would hide the protocol.
func (e *fileEnv) writers(dur time.Duration, limit int) (lat sample, failed int, wall time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(dur)
	for w := 1; w < fileReplicas; w++ {
		rng := rand.New(rand.NewSource(e.rng.Int63()))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine sample
			bad := 0
			for op := 0; (limit == 0 && time.Now().Before(end)) || op < limit; op++ {
				data := e.payload(rng, w, op, writeSize)
				start := time.Now()
				if err := e.files[w].Write(data); err != nil {
					bad++
					continue
				}
				mine = append(mine, ms(time.Since(start)))
			}
			mu.Lock()
			lat = append(lat, mine...)
			failed += bad
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	e.writes += len(lat)
	e.unsure += failed
	return lat, failed, time.Since(t0)
}

func setupFile(c cfg) (*fileEnv, error) {
	metrics := obs.NewRegistry()
	e := &fileEnv{
		tr:      newTransport("udp", c.seed, metrics),
		metrics: metrics,
		reg:     stable.NewRegistry(),
		cfg:     repfile.Config{RW: quorum.MajorityRW(quorum.Uniform("a", "b", "c")), Enriched: true},
		rng:     rand.New(rand.NewSource(c.seed)),
	}
	for i := range e.files {
		if err := e.open(i); err != nil {
			e.close()
			return nil, err
		}
	}
	if !poll(10*time.Second, func() bool { return e.allNormal(0, 1, 2) }) {
		e.close()
		return nil, fmt.Errorf("replicas did not reach N-mode in one view")
	}
	if _, failed, _ := e.writers(0, c.scaled(500)/2); failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d writes failed", failed)
	}
	return e, nil
}

// rejoin runs one cycle of the rejoin phase and returns the time (ms)
// from repfile.Open on c until c serves in N-mode with a's version and
// byte-identical content.
func (e *fileEnv) rejoin(cycle int) (float64, error) {
	e.files[2].Close()
	e.files[2] = nil
	// Over UDP the farewell heartbeat of Close is lost (README), so the
	// survivors only learn by suspicion; re-opening before they have
	// installed the 2-member view would race that detection.
	if !poll(rejoinTimeout, func() bool { return e.allNormal(0, 1) }) {
		return 0, fmt.Errorf("a and b did not install the 2-member view")
	}
	// b's File aborts the writes in flight when it reads the view event,
	// which can be after b's process installed the view; let it.
	time.Sleep(settle)
	data := e.payload(e.rng, 1, cycle, rejoinSize)
	if err := e.files[1].Write(data); err != nil {
		e.unsure++
		return 0, fmt.Errorf("write while c is away: %w", err)
	}
	e.writes++
	e.last = data
	// Write returned, so b (not necessarily a yet) has applied it.
	want, _, _ := e.files[1].Read()
	// Until heartbeats have marked the write stable its 44 KiB body rides
	// in every ack and install; c joining right now would still fit the
	// frame budget, a second unstable write would not (README).
	time.Sleep(settle)
	start := time.Now()
	if err := e.open(2); err != nil {
		return 0, err
	}
	caughtUp := func() bool {
		if e.files[2].Mode() != modes.Normal {
			return false
		}
		version, content, _ := e.files[2].Read()
		return version == want && bytes.Equal(content, data)
	}
	if !poll(rejoinTimeout, caughtUp) {
		version, content, mode := e.files[2].Read()
		return 0, fmt.Errorf("c did not catch up to version %d: it is in mode %v at version %d with %d bytes, view %v; a has view %v; c stats %+v",
			want, mode, version, len(content), e.files[2].Process().CurrentView().Members, e.files[0].Process().CurrentView().Members, e.files[2].Stats())
	}
	took := ms(time.Since(start))
	if !poll(rejoinTimeout, func() bool { return e.allNormal(0, 1, 2) }) {
		return 0, fmt.Errorf("replicas did not return to N-mode after the rejoin")
	}
	return took, nil
}

// fileCounters is a snapshot of the counters bracketing a repfile window.
type fileCounters struct {
	c              counters
	applied        [2]uint64 // WritesApplied at a and b
	version        [2]uint64
	writes, unsure int // the client side's tallies
}

// counters snapshots the window's counters once the replicas agree on the
// version: Write returns when the writer's replica has applied the write,
// the others may still be about to.
func (e *fileEnv) counters() fileCounters {
	poll(time.Second, func() bool {
		v0, _, _ := e.files[0].Read()
		v1, _, _ := e.files[1].Read()
		v2, _, _ := e.files[2].Read()
		return v0 == v1 && v1 == v2
	})
	fc := fileCounters{c: counters{tr: e.tr.Stats(), cpu: cpuTime()}, writes: e.writes, unsure: e.unsure}
	fc.c.datagrams = e.metrics.Counter(udp.MetricDatagramsSent).Value()
	for i := 0; i < 2; i++ {
		fc.applied[i] = e.files[i].Stats().WritesApplied
		fc.version[i], _, _ = e.files[i].Read()
		cs := e.files[i].Process().Stats()
		fc.c.core.ViewsInstalled += cs.ViewsInstalled
		fc.c.core.FlushDeliveries += cs.FlushDeliveries
	}
	return fc
}

// runFile is the repfile-udp-n3 workload.
func runFile(name string, c cfg) (*result, error) {
	res := newResult(name)
	e, err := repeatSetup(c, res, func() (*fileEnv, error) { return setupFile(c) }, func(e *fileEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	start := e.counters()

	lat, failed, wall := e.writers(c.part(0.55), 0)
	afterWrites := e.counters()
	res.Attempted = len(lat) + failed
	res.Failed = failed
	res.e2e("write_tput_ops_s", "1/s", float64(len(lat))/wall.Seconds(), len(lat))
	res.timing("write_lat_p50_ms", lat, 50)
	res.timing("write_lat_p99_ms", lat, 99)
	res.transportLayers("udp", start.c, afterWrites.c, int64(len(lat)), "write")

	pulled := 0
	var rejoins sample
	reconciles := 0
	for cycle, end := 0, time.Now().Add(c.part(0.45)); cycle < 3 || time.Now().Before(end); cycle++ {
		res.Attempted++
		took, err := e.rejoin(cycle)
		if err != nil {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("rejoin cycle %d: %v", cycle, err))
			if e.files[2] == nil {
				return nil, fmt.Errorf("rejoin cycle %d left no replica c: %w", cycle, err)
			}
			continue
		}
		rejoins = append(rejoins, took)
		st := e.files[2].Stats()
		pulled += st.TransfersPulled
		reconciles += st.Reconciles
	}
	res.timing("rejoin_p50_ms", rejoins, 50)
	res.layer("repfile.transfers_pulled", "count", float64(pulled))
	res.layer("repfile.reconciles_per_rejoin", "count", ratio(float64(reconciles), float64(len(rejoins))))

	res.Violations = append(res.Violations, e.verify(start)...)
	return res, nil
}

// verify checks the replicated file's own invariants over the measured
// window: at the replicas that never restarted every applied write
// raised the version by exactly one (no gap, no double application),
// the version advanced by the number of successful writes, and all
// three replicas end with one version and the bytes of the last write.
func (e *fileEnv) verify(start fileCounters) []string {
	var out []string
	end := e.counters()
	for i := 0; i < 2; i++ {
		applied := end.applied[i] - start.applied[i]
		advanced := end.version[i] - start.version[i]
		if applied != advanced {
			out = append(out, fmt.Sprintf("repfile: replica %s applied %d writes but its version advanced by %d", siteName(i), applied, advanced))
		}
		// A write that returned an error at its client may still have
		// been applied, so those widen the allowed range.
		ok, unsure := uint64(end.writes-start.writes), uint64(end.unsure-start.unsure)
		if advanced < ok || advanced > ok+unsure {
			out = append(out, fmt.Sprintf("repfile: replica %s version advanced by %d over %d successful writes (%d returned an error)", siteName(i), advanced, ok, unsure))
		}
	}
	v0, c0, _ := e.files[0].Read()
	for i := 1; i < fileReplicas; i++ {
		v, content, _ := e.files[i].Read()
		if v != v0 || !bytes.Equal(content, c0) {
			out = append(out, fmt.Sprintf("repfile: replica %s ends at version %d (%d bytes), a at version %d (%d bytes)", siteName(i), v, len(content), v0, len(c0)))
		}
	}
	if e.last != nil && end.unsure == start.unsure && !bytes.Equal(c0, e.last) {
		out = append(out, "repfile: final content is not the last write")
	}
	return out
}
