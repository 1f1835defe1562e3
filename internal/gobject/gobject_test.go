package gobject_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gobject"
	"repro/internal/ids"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/sstate"
	"repro/internal/vstest"
)

// blobObject is a versioned-blob group object exercising the framework's
// bulk-transfer path: snapshots carry only the version, behind replicas
// pull the content from the freshest member.
type blobObject struct {
	self ids.PID
	rw   quorum.RW

	mu      sync.Mutex
	version uint64
	content []byte

	// pulled, when set, is closed once a pulled bulk state has arrived,
	// and ApplyBulk then waits for release before installing it: a test
	// holds the replica behind for as long as it likes.
	pulled, release chan struct{}
}

type blobSnap struct {
	Version uint64 `json:"v"`
}

var blobMagic = []byte("\x01blob\x00")

func (o *blobObject) Bind(h *gobject.Host) modes.Func {
	o.self = h.Process().PID()
	return modes.QuorumEnriched(o.self, o.rw)
}

func (o *blobObject) WasNormal(cluster ids.PIDSet) bool { return o.rw.CanWrite(cluster) }

func (o *blobObject) Snapshot() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return json.Marshal(blobSnap{Version: o.version})
}

func (o *blobObject) MergeSnapshot(ids.PID, []byte) error { return nil } // versions only inform NeedPull

// Behind judges q from the announced versions alone, so every member
// reaches the same verdict.
func (o *blobObject) Behind(q ids.PID, snaps map[ids.PID][]byte) (ids.PID, bool) {
	var qs blobSnap
	_ = json.Unmarshal(snaps[q], &qs)
	mine := qs.Version
	var maxVer uint64
	var donor ids.PID
	for p, raw := range snaps {
		var s blobSnap
		if err := json.Unmarshal(raw, &s); err != nil {
			continue
		}
		if s.Version > maxVer || (s.Version == maxVer && (donor.IsZero() || p.Less(donor))) {
			maxVer, donor = s.Version, p
		}
	}
	if mine < maxVer {
		return donor, true
	}
	return ids.PID{}, false
}

func (o *blobObject) Apply(m core.MsgEvent) {
	if !bytes.HasPrefix(m.Payload, blobMagic) {
		return
	}
	body := m.Payload[len(blobMagic):]
	if len(body) < 8 {
		return
	}
	version := binary.BigEndian.Uint64(body[:8])
	o.mu.Lock()
	if version > o.version {
		o.version = version
		o.content = append([]byte{}, body[8:]...)
	}
	o.mu.Unlock()
}

func (o *blobObject) MarshalCritical() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], o.version)
	return buf[:], nil
}

func (o *blobObject) MarshalBulk() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], o.version)
	return append(buf[:], o.content...), nil
}

func (o *blobObject) ApplyCritical([]byte) error { return nil }

func (o *blobObject) ApplyBulk(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("short bulk")
	}
	if o.pulled != nil {
		close(o.pulled)
		<-o.release
	}
	version := binary.BigEndian.Uint64(b[:8])
	o.mu.Lock()
	defer o.mu.Unlock()
	if version > o.version {
		o.version = version
		o.content = append([]byte{}, b[8:]...)
	}
	return nil
}

func (o *blobObject) snapshotState() (uint64, []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.version, append([]byte{}, o.content...)
}

// write multicasts a new blob revision through the host.
func write(t *testing.T, h *gobject.Host, o *blobObject, version uint64, content string, timeout time.Duration) {
	t.Helper()
	payload := make([]byte, 0, len(blobMagic)+8+len(content))
	payload = append(payload, blobMagic...)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], version)
	payload = append(payload, buf[:]...)
	payload = append(payload, content...)
	deadline := time.Now().Add(timeout)
	for {
		if err := h.Multicast(payload); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write v%d never accepted", version)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func blobCluster(t *testing.T, seed int64, n int, enriched bool) (*vstest.Net, []*gobject.Host, []*blobObject) {
	t.Helper()
	net := vstest.NewNet(t, seed)
	sites := make([]string, n)
	for i := range sites {
		sites[i] = vstest.SiteName(i)
	}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))
	hosts := make([]*gobject.Host, 0, n)
	objs := make([]*blobObject, 0, n)
	for _, s := range sites {
		obj := &blobObject{rw: rw}
		h, err := gobject.Open(net.Fabric, net.Reg, s, vstest.FastOptions(), gobject.Config{Enriched: enriched}, obj)
		if err != nil {
			t.Fatalf("Open(%s): %v", s, err)
		}
		t.Cleanup(h.Close)
		hosts = append(hosts, h)
		objs = append(objs, obj)
	}
	for _, h := range hosts {
		h := h
		vstest.Eventually(t, 15*time.Second, "N-mode", func() bool {
			return h.Mode() == modes.Normal
		})
	}
	return net, hosts, objs
}

func TestBlobReplication(t *testing.T) {
	_, hosts, objs := blobCluster(t, 600, 3, true)
	write(t, hosts[0], objs[0], 1, "rev one", 5*time.Second)
	vstest.Eventually(t, 5*time.Second, "replication", func() bool {
		for _, o := range objs {
			v, c := o.snapshotState()
			if v != 1 || string(c) != "rev one" {
				return false
			}
		}
		return true
	})
}

func TestBlobTransferAfterPartition(t *testing.T) {
	// The framework's pull path: the minority misses a write during the
	// partition and must transfer the bulk state from the majority on
	// repair.
	net, hosts, objs := blobCluster(t, 601, 5, true)
	write(t, hosts[0], objs[0], 1, "base", 5*time.Second)
	vstest.Eventually(t, 5*time.Second, "base replication", func() bool {
		for _, o := range objs {
			v, _ := o.snapshotState()
			if v != 1 {
				return false
			}
		}
		return true
	})

	net.Fabric.SetPartitions([]string{"a", "b", "c"}, []string{"d", "e"})
	for _, h := range hosts[3:] {
		h := h
		vstest.Eventually(t, 15*time.Second, "minority in R", func() bool {
			return h.Mode() == modes.Reduced
		})
	}
	for _, h := range hosts[:3] {
		h := h
		vstest.Eventually(t, 15*time.Second, "majority in N", func() bool {
			return h.Mode() == modes.Normal
		})
	}
	write(t, hosts[0], objs[0], 2, "written during partition", 10*time.Second)

	net.Fabric.Heal()
	for _, h := range hosts {
		h := h
		vstest.Eventually(t, 25*time.Second, "post-heal N", func() bool {
			return h.Mode() == modes.Normal
		})
	}
	vstest.Eventually(t, 10*time.Second, "minority caught up", func() bool {
		for _, o := range objs[3:] {
			v, c := o.snapshotState()
			if v != 2 || string(c) != "written during partition" {
				return false
			}
		}
		return true
	})
	pulls := 0
	transfersClassified := 0
	for _, h := range hosts {
		st := h.Stats()
		pulls += st.Pulls
		transfersClassified += st.Classifications[sstate.Transfer] + st.Classifications[sstate.TransferMerging]
	}
	if pulls == 0 {
		t.Error("no bulk pulls recorded; the framework transfer path never ran")
	}
	if transfersClassified == 0 {
		t.Error("no transfer classification recorded")
	}
}

func TestBlobFlatMode(t *testing.T) {
	_, hosts, objs := blobCluster(t, 602, 3, false)
	write(t, hosts[2], objs[2], 1, "flat", 5*time.Second)
	vstest.Eventually(t, 5*time.Second, "replication", func() bool {
		for _, o := range objs {
			v, _ := o.snapshotState()
			if v != 1 {
				return false
			}
		}
		return true
	})
	// Flat mode classified via the announcement protocol at formation.
	classified := 0
	for _, h := range hosts {
		for _, n := range h.Stats().Classifications {
			classified += n
		}
	}
	if classified == 0 {
		t.Error("flat mode never classified")
	}
}

func TestHostAPIErrors(t *testing.T) {
	net := vstest.NewNet(t, 603)
	rw := quorum.MajorityRW(quorum.Uniform("a", "b", "c"))
	obj := &blobObject{rw: rw}
	h, err := gobject.Open(net.Fabric, net.Reg, "a", vstest.FastOptions(), gobject.Config{Enriched: true}, obj)
	if err != nil {
		t.Fatal(err)
	}
	// Singleton of a 3-site quorum system: R-mode, not serving.
	vstest.Eventually(t, 5*time.Second, "R-mode", func() bool {
		return h.Mode() == modes.Reduced
	})
	if err := h.Multicast([]byte("x")); err != gobject.ErrNotServing {
		t.Fatalf("Multicast in R: %v", err)
	}
	h.Close()
	if err := h.Multicast([]byte("x")); err != gobject.ErrClosed {
		t.Fatalf("Multicast after close: %v", err)
	}
	h.Close() // idempotent
}

// TestModeObserver attaches the observability collector as the
// processes' observer — behind an obs.Tee, the way experiments compose
// it — and checks that the host found it: reaching N-mode (the
// S -Reconcile-> N arc every member takes at formation) lands in the
// dwell histograms, the transition counters and the trace.
func TestModeObserver(t *testing.T) {
	net := vstest.NewNet(t, 604)
	const n = 3
	sites := make([]string, n)
	for i := range sites {
		sites[i] = vstest.SiteName(i)
	}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))

	mem := obs.NewMemorySink()
	coll := obs.NewCollector(obs.NewRegistry(), obs.NewTracer(1, mem))
	opts := vstest.FastOptions()
	opts.Observer = obs.Tee(coll, obs.NewCollector(nil, nil))
	cfg := gobject.Config{Enriched: true}
	hosts := make([]*gobject.Host, 0, n)
	for _, s := range sites {
		obj := &blobObject{rw: rw}
		h, err := gobject.Open(net.Fabric, net.Reg, s, opts, cfg, obj)
		if err != nil {
			t.Fatalf("Open(%s): %v", s, err)
		}
		t.Cleanup(h.Close)
		hosts = append(hosts, h)
	}
	for _, h := range hosts {
		h := h
		vstest.Eventually(t, 15*time.Second, "N-mode", func() bool {
			return h.Mode() == modes.Normal
		})
	}

	snap := coll.Registry().Snapshot()
	if got := snap.Counters[obs.MetricModeTransitionPrefix+"Reconcile"]; got < n {
		t.Fatalf("mode.transitions.Reconcile = %d, want >= %d", got, n)
	}
	dwellS := snap.Histograms[obs.MetricModeDwellPrefix+"S"]
	if dwellS.Count < n {
		t.Fatalf("mode.dwell_s.S count = %d, want >= %d", dwellS.Count, n)
	}
	reconciled := 0
	for _, ev := range mem.Events() {
		if ev.Type == obs.EvMode && ev.Kind == "Reconcile" && ev.Note == "S->N" {
			reconciled++
		}
	}
	if reconciled < n {
		t.Fatalf("trace holds %d S->N mode events, want >= %d", reconciled, n)
	}
}

// TestHostMetrics: the host registers its activity counters in the
// Config.Metrics registry (shared here, so values aggregate across the
// cluster) and Stats reads back from the same counters.
func TestHostMetrics(t *testing.T) {
	net := vstest.NewNet(t, 605)
	const n = 3
	sites := make([]string, n)
	for i := range sites {
		sites[i] = vstest.SiteName(i)
	}
	rw := quorum.MajorityRW(quorum.Uniform(sites...))

	reg := obs.NewRegistry()
	cfg := gobject.Config{Enriched: true, Metrics: reg}
	hosts := make([]*gobject.Host, 0, n)
	objs := make([]*blobObject, 0, n)
	for _, s := range sites {
		obj := &blobObject{rw: rw}
		h, err := gobject.Open(net.Fabric, net.Reg, s, vstest.FastOptions(), cfg, obj)
		if err != nil {
			t.Fatalf("Open(%s): %v", s, err)
		}
		t.Cleanup(h.Close)
		hosts = append(hosts, h)
		objs = append(objs, obj)
	}
	for _, h := range hosts {
		h := h
		vstest.Eventually(t, 15*time.Second, "N-mode", func() bool {
			return h.Mode() == modes.Normal
		})
	}
	write(t, hosts[0], objs[0], 1, "metered", 5*time.Second)

	snap := reg.Snapshot()
	if got := snap.Counters[gobject.MetricSnapAnnounces]; got < n {
		t.Fatalf("%s = %d, want >= %d", gobject.MetricSnapAnnounces, got, n)
	}
	// Each member merges the n-1 peers' announcements at formation.
	if got := snap.Counters[gobject.MetricSnapMerges]; got < n*(n-1) {
		t.Fatalf("%s = %d, want >= %d", gobject.MetricSnapMerges, got, n*(n-1))
	}
	if got := snap.Counters[gobject.MetricReconciles]; got < n {
		t.Fatalf("%s = %d, want >= %d", gobject.MetricReconciles, got, n)
	}
	if got := snap.Counters[gobject.MetricClassifyPrefix+sstate.Creation.String()]; got == 0 {
		t.Fatalf("no %s%s classifications recorded", gobject.MetricClassifyPrefix, sstate.Creation)
	}
	// Stats is a view over the same counters; with a shared registry it
	// reports the group totals at every member.
	st := hosts[0].Stats()
	if uint64(st.Reconciles) != snap.Counters[gobject.MetricReconciles] {
		t.Fatalf("Stats.Reconciles = %d, registry says %d", st.Reconciles, snap.Counters[gobject.MetricReconciles])
	}
	if hosts[0].Metrics() != reg {
		t.Fatal("Metrics() does not return the shared registry")
	}
}

// TestNoMergeWhileAMemberIsBehind: §6.2 reads a subview as "these
// members hold the same state", so the sequencer must not fold a joiner
// into the up-to-date subview before it has pulled. The joiner's pull is
// held open here; the structure must stay split until it completes.
func TestNoMergeWhileAMemberIsBehind(t *testing.T) {
	net, hosts, objs := blobCluster(t, 606, 3, true)
	write(t, hosts[0], objs[0], 1, "state the joiner lacks", 5*time.Second)
	vstest.Eventually(t, 5*time.Second, "replication", func() bool {
		v, _ := objs[2].snapshotState()
		return v == 1
	})

	joiner := &blobObject{rw: objs[0].rw, pulled: make(chan struct{}), release: make(chan struct{})}
	jh, err := gobject.Open(net.Fabric, net.Reg, "d", vstest.FastOptions(), gobject.Config{Enriched: true}, joiner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jh.Close)
	// Registered last, so it runs first: a failed assertion must not
	// leave the joiner's loop parked in ApplyBulk under Close.
	release := sync.OnceFunc(func() { close(joiner.release) })
	t.Cleanup(release)
	select {
	case <-joiner.pulled:
	case <-time.After(15 * time.Second):
		t.Fatal("the joiner never pulled")
	}

	// Everyone has announced (the joiner decided to pull from the
	// announcements) and the joiner's says version 0. The sequencer a
	// holds the merge for as long as that stands.
	seq := hosts[0].Process()
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		v := seq.CurrentView()
		if v.Size() == 4 && v.Structure.NumSubviews() < 2 {
			t.Fatalf("structure folded to %v while the joiner was still behind", v.Structure)
		}
		time.Sleep(time.Millisecond)
	}
	if got := seq.CurrentView().Size(); got != 4 {
		t.Fatalf("view has %d members, want the 4-member view to be stable", got)
	}

	release()
	vstest.Eventually(t, 15*time.Second, "joiner serves", func() bool {
		return jh.Mode() == modes.Normal
	})
	vstest.Eventually(t, 15*time.Second, "one subview", func() bool {
		return seq.CurrentView().Structure.NumSubviews() == 1
	})
	if v, c := joiner.snapshotState(); v != 1 || string(c) != "state the joiner lacks" {
		t.Fatalf("joiner holds v%d %q", v, c)
	}
}

// TestModeStatsIsSafeToPoll reads the mode statistics from another
// goroutine while a partition and its repair step the machine; under
// -race this is the test of the copy-under-lock accessor.
func TestModeStatsIsSafeToPoll(t *testing.T) {
	net, hosts, _ := blobCluster(t, 607, 3, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, h := range hosts {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := h.ModeStats()
				if len(st.History) > 0 && st.Counts[st.History[0].Label] == 0 {
					t.Errorf("history and counts disagree: %+v", st)
					return
				}
				_ = st.Residency[modes.Normal]
			}
		}()
	}
	net.Fabric.SetPartitions([]string{"a", "b"}, []string{"c"})
	vstest.Eventually(t, 15*time.Second, "c in R", func() bool { return hosts[2].Mode() == modes.Reduced })
	net.Fabric.Heal()
	for _, h := range hosts {
		h := h
		vstest.Eventually(t, 25*time.Second, "post-heal N", func() bool { return h.Mode() == modes.Normal })
	}
	close(stop)
	wg.Wait()
	if st := hosts[2].ModeStats(); st.Counts[modes.Failure] == 0 || st.Counts[modes.Repair] == 0 {
		t.Fatalf("c's statistics miss the partition: %v", st.Counts)
	}
}
