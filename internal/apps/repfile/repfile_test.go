package repfile

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modes"
	"repro/internal/quorum"
	"repro/internal/sstate"
	"repro/internal/vstest"
)

func fiveSiteRW() quorum.RW {
	return quorum.MajorityRW(quorum.Uniform("a", "b", "c", "d", "e"))
}

func threeSiteRW() quorum.RW {
	return quorum.MajorityRW(quorum.Uniform("a", "b", "c"))
}

// cluster opens n replicas and waits until all are in N-mode.
func cluster(t *testing.T, seed int64, n int, rw quorum.RW, enriched bool) (*vstest.Net, []*File) {
	t.Helper()
	net := vstest.NewNet(t, seed)
	cfg := Config{RW: rw, Enriched: enriched}
	files := make([]*File, 0, n)
	for i := 0; i < n; i++ {
		f, err := Open(net.Fabric, net.Reg, vstest.SiteName(i), vstest.FastOptions(), cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(f.Close)
		files = append(files, f)
	}
	waitAllNormal(t, files, 10*time.Second)
	return net, files
}

func waitAllNormal(t *testing.T, files []*File, timeout time.Duration) {
	t.Helper()
	for _, f := range files {
		f := f
		vstest.Eventually(t, timeout, fmt.Sprintf("%v in N-mode", f.Process().PID()), func() bool {
			return f.Mode() == modes.Normal
		})
	}
}

// writeRetry retries a write through transient view changes.
func writeRetry(t *testing.T, f *File, data []byte, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := f.Write(data)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write %q never succeeded: %v", data, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterReachesNormalMode(t *testing.T) {
	for _, enriched := range []bool{true, false} {
		t.Run(fmt.Sprintf("enriched=%v", enriched), func(t *testing.T) {
			_, files := cluster(t, 100, 3, threeSiteRW(), enriched)
			for _, f := range files {
				if got := f.Mode(); got != modes.Normal {
					t.Errorf("%v mode = %v", f.Process().PID(), got)
				}
			}
		})
	}
}

func TestWriteVisibleEverywhere(t *testing.T) {
	_, files := cluster(t, 101, 3, threeSiteRW(), true)
	writeRetry(t, files[1], []byte("v1 content"), 5*time.Second)
	for _, f := range files {
		f := f
		vstest.Eventually(t, 3*time.Second, "write propagation", func() bool {
			_, content, _ := f.Read()
			return bytes.Equal(content, []byte("v1 content"))
		})
	}
	// Versions agree too.
	v0, _, _ := files[0].Read()
	for _, f := range files[1:] {
		v, _, _ := f.Read()
		if v != v0 {
			t.Fatalf("version mismatch: %d vs %d", v, v0)
		}
	}
}

func TestSequentialWritesMonotone(t *testing.T) {
	_, files := cluster(t, 102, 3, threeSiteRW(), true)
	var lastVer uint64
	for i := 0; i < 5; i++ {
		writeRetry(t, files[i%3], []byte(fmt.Sprintf("rev-%d", i)), 5*time.Second)
		v, content, _ := files[i%3].Read()
		if v <= lastVer {
			t.Fatalf("version did not advance: %d after %d", v, lastVer)
		}
		lastVer = v
		if string(content) != fmt.Sprintf("rev-%d", i) {
			t.Fatalf("content = %q at rev %d", content, i)
		}
	}
}

func TestMinorityPartitionIsReadOnly(t *testing.T) {
	net, files := cluster(t, 103, 5, fiveSiteRW(), true)
	writeRetry(t, files[0], []byte("before partition"), 5*time.Second)
	for _, f := range files {
		f := f
		vstest.Eventually(t, 3*time.Second, "propagation", func() bool {
			_, c, _ := f.Read()
			return bytes.Equal(c, []byte("before partition"))
		})
	}

	// Partition: majority {a,b,c}, minority {d,e}.
	net.Fabric.SetPartitions([]string{"a", "b", "c"}, []string{"d", "e"})

	// Minority replicas drop to R (Failure transition) and refuse writes.
	for _, f := range files[3:] {
		f := f
		vstest.Eventually(t, 5*time.Second, "minority in R-mode", func() bool {
			return f.Mode() == modes.Reduced
		})
		if err := f.Write([]byte("should fail")); err != ErrNotWritable {
			t.Fatalf("minority write: %v, want ErrNotWritable", err)
		}
		// Reads still work (stale allowed).
		_, content, mode := f.Read()
		if mode != modes.Reduced || !bytes.Equal(content, []byte("before partition")) {
			t.Fatalf("minority read = %q in %v", content, mode)
		}
	}

	// Majority keeps writing.
	waitAllNormal(t, files[:3], 10*time.Second)
	writeRetry(t, files[0], []byte("during partition"), 5*time.Second)

	// Heal: minority repairs, transfers state, and rejoins N.
	net.Fabric.Heal()
	waitAllNormal(t, files, 15*time.Second)
	for _, f := range files {
		f := f
		vstest.Eventually(t, 5*time.Second, "post-heal content", func() bool {
			_, c, _ := f.Read()
			return bytes.Equal(c, []byte("during partition"))
		})
	}

	// The stale minority members pulled state: transfer stats moved.
	pulled := 0
	for _, f := range files {
		pulled += f.Stats().TransfersPulled
	}
	if pulled == 0 {
		t.Error("no state transfers recorded after heal")
	}
}

func TestAcknowledgedWritesSurviveCoordinatorCrash(t *testing.T) {
	_, files := cluster(t, 104, 5, fiveSiteRW(), true)
	writeRetry(t, files[1], []byte("durable"), 5*time.Second)

	// Crash the current sequencer (smallest member, site a).
	files[0].Process().Crash()
	waitAllNormal(t, files[1:], 15*time.Second)

	for _, f := range files[1:] {
		f := f
		vstest.Eventually(t, 5*time.Second, "durable content", func() bool {
			_, c, _ := f.Read()
			return bytes.Equal(c, []byte("durable"))
		})
	}
	// And the survivors can still write.
	writeRetry(t, files[1], []byte("after crash"), 10*time.Second)
}

func TestStateCreationAfterTotalFailure(t *testing.T) {
	net, files := cluster(t, 105, 3, threeSiteRW(), true)
	writeRetry(t, files[0], []byte("persisted"), 5*time.Second)
	for _, f := range files {
		f := f
		vstest.Eventually(t, 3*time.Second, "propagation", func() bool {
			_, c, _ := f.Read()
			return bytes.Equal(c, []byte("persisted"))
		})
	}

	// Total failure.
	for _, f := range files {
		f.Process().Crash()
	}
	time.Sleep(50 * time.Millisecond)

	// All three sites recover; permanent state brings the content back.
	cfg := Config{RW: threeSiteRW(), Enriched: true}
	var recovered []*File
	for i := 0; i < 3; i++ {
		f, err := Open(net.Fabric, net.Reg, vstest.SiteName(i), vstest.FastOptions(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		recovered = append(recovered, f)
	}
	waitAllNormal(t, recovered, 15*time.Second)
	for _, f := range recovered {
		_, content, _ := f.Read()
		if !bytes.Equal(content, []byte("persisted")) {
			t.Fatalf("recovered content = %q", content)
		}
	}
	// The classifier saw a creation problem somewhere.
	creations := 0
	for _, f := range recovered {
		creations += f.Stats().Classifications[sstate.Creation]
	}
	if creations == 0 {
		t.Error("no creation classification recorded after total failure")
	}
}

func TestJoinerTriggersTransferClassification(t *testing.T) {
	net, files := cluster(t, 106, 3, fiveSiteRW(), true)
	_ = files
	writeRetry(t, files[0], []byte("big state"), 5*time.Second)

	// A fourth replica joins fresh.
	f4, err := Open(net.Fabric, net.Reg, "d", vstest.FastOptions(), Config{RW: fiveSiteRW(), Enriched: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f4.Close)
	vstest.Eventually(t, 15*time.Second, "joiner reaches N", func() bool {
		return f4.Mode() == modes.Normal
	})
	_, content, _ := f4.Read()
	if !bytes.Equal(content, []byte("big state")) {
		t.Fatalf("joiner content = %q", content)
	}
	transfers := 0
	for _, f := range append(files, f4) {
		st := f.Stats()
		transfers += st.TransfersPulled
		if st.Classifications[sstate.Transfer] > 0 {
			transfers++ // classification seen
		}
	}
	if f4.Stats().TransfersPulled == 0 {
		t.Error("joiner did not pull state")
	}
}

func TestFlatModeAlsoReconciles(t *testing.T) {
	net, files := cluster(t, 107, 3, threeSiteRW(), false)
	writeRetry(t, files[0], []byte("flat world"), 5*time.Second)

	net.Fabric.SetPartitions([]string{"a", "b"}, []string{"c"})
	vstest.Eventually(t, 5*time.Second, "c in R-mode", func() bool {
		return files[2].Mode() == modes.Reduced
	})
	waitAllNormal(t, files[:2], 10*time.Second)
	writeRetry(t, files[0], []byte("flat update"), 5*time.Second)

	net.Fabric.Heal()
	waitAllNormal(t, files, 15*time.Second)
	for _, f := range files {
		f := f
		vstest.Eventually(t, 5*time.Second, "flat reconciliation", func() bool {
			_, c, _ := f.Read()
			return bytes.Equal(c, []byte("flat update"))
		})
	}
	// Flat mode must have used the announcement protocol (messages!) to
	// classify — the cost enriched views avoid.
	classified := 0
	for _, f := range files {
		for _, n := range f.Stats().Classifications {
			classified += n
		}
	}
	if classified == 0 {
		t.Error("flat mode recorded no classifications")
	}
}

func TestModeHistoryFollowsFigure1(t *testing.T) {
	net, files := cluster(t, 108, 3, threeSiteRW(), true)
	net.Fabric.SetPartitions([]string{"a", "b"}, []string{"c"})
	vstest.Eventually(t, 5*time.Second, "c fails to R", func() bool {
		return files[2].Mode() == modes.Reduced
	})
	net.Fabric.Heal()
	vstest.Eventually(t, 15*time.Second, "c repairs to N", func() bool {
		return files[2].Mode() == modes.Normal
	})
	h := files[2].ModeStats().History
	// Every step must be a legal Figure-1 edge.
	legal := map[[2]modes.Mode]map[modes.Transition]bool{
		{modes.Normal, modes.Reduced}:    {modes.Failure: true},
		{modes.Normal, modes.Settling}:   {modes.Reconfigure: true},
		{modes.Reduced, modes.Settling}:  {modes.Repair: true},
		{modes.Settling, modes.Reduced}:  {modes.Failure: true},
		{modes.Settling, modes.Settling}: {modes.Reconfigure: true},
		{modes.Settling, modes.Normal}:   {modes.Reconcile: true},
	}
	for _, st := range h {
		if !legal[[2]modes.Mode{st.From, st.To}][st.Label] {
			t.Fatalf("illegal Figure-1 step: %v -%v-> %v", st.From, st.Label, st.To)
		}
	}
	// The schedule exercised Failure, Repair, and Reconcile.
	counts := files[2].ModeStats().Counts
	for _, tr := range []modes.Transition{modes.Failure, modes.Repair, modes.Reconcile} {
		if counts[tr] == 0 {
			t.Errorf("transition %v never taken: %v", tr, counts)
		}
	}
}

func TestWriteErrorsWhenClosed(t *testing.T) {
	net := vstest.NewNet(t, 109)
	f, err := Open(net.Fabric, net.Reg, "a", vstest.FastOptions(), Config{RW: threeSiteRW(), Enriched: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := f.Write([]byte("x")); err != ErrClosed && err != ErrNotWritable {
		t.Fatalf("Write after close: %v", err)
	}
	f.Close() // idempotent
}

func TestReadOnSingletonIsReduced(t *testing.T) {
	net := vstest.NewNet(t, 110)
	f, err := Open(net.Fabric, net.Reg, "a", vstest.FastOptions(), Config{RW: threeSiteRW(), Enriched: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	vstest.Eventually(t, 3*time.Second, "singleton settles", func() bool {
		_, _, mode := f.Read()
		return mode == modes.Reduced
	})
	if err := f.Write([]byte("x")); err != ErrNotWritable {
		t.Fatalf("singleton write: %v", err)
	}
}

// TestNoAcknowledgedWriteLost is the object's headline invariant: once
// Write returns nil, the content survives any single-partition schedule.
func TestNoAcknowledgedWriteLost(t *testing.T) {
	net, files := cluster(t, 111, 5, fiveSiteRW(), true)
	acked := make(map[string]bool)
	for round := 0; round < 3; round++ {
		data := []byte(fmt.Sprintf("round-%d", round))
		writeRetry(t, files[round%5], data, 10*time.Second)
		acked[string(data)] = true

		// Partition and heal between rounds, waiting for membership to
		// actually react (a partition shorter than the suspicion timeout
		// is legitimately invisible to the protocol).
		if round == 1 {
			net.Fabric.SetPartitions([]string{"a", "b", "c"}, []string{"d", "e"})
			for _, f := range files[3:] {
				f := f
				vstest.Eventually(t, 10*time.Second, "minority drops to R", func() bool {
					return f.Mode() == modes.Reduced
				})
			}
			waitAllNormal(t, files[:3], 15*time.Second)
		}
		if round == 2 {
			net.Fabric.Heal()
			waitAllNormal(t, files, 20*time.Second)
		}
	}
	// Final content is the last acknowledged write, everywhere.
	for _, f := range files {
		f := f
		vstest.Eventually(t, 10*time.Second, "final convergence", func() bool {
			_, c, _ := f.Read()
			return bytes.Equal(c, []byte("round-2"))
		})
	}
}

func TestVersionsNeverDivergeAtSameVersion(t *testing.T) {
	// Two replicas reporting the same version must hold the same bytes
	// (single-copy semantics for writes).
	_, files := cluster(t, 112, 3, threeSiteRW(), true)
	writeRetry(t, files[0], []byte("unique"), 5*time.Second)
	time.Sleep(200 * time.Millisecond)
	type snap struct {
		v uint64
		c string
	}
	byVersion := make(map[uint64]string)
	for _, f := range files {
		v, c, _ := f.Read()
		if prev, ok := byVersion[v]; ok && prev != string(c) {
			t.Fatalf("version %d maps to %q and %q", v, prev, c)
		}
		byVersion[v] = string(c)
	}
	_ = snap{}
}

func TestConcurrentWritersSerializeThroughSequencer(t *testing.T) {
	// All three replicas write concurrently; the sequencer must produce
	// one total version order, so any two replicas reporting the same
	// version hold identical bytes, and the final state is one of the
	// acknowledged writes.
	_, files := cluster(t, 114, 3, threeSiteRW(), true)
	var wg sync.WaitGroup
	var acked sync.Map
	for i, f := range files {
		i, f := i, f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				data := []byte(fmt.Sprintf("writer%d-round%d", i, round))
				deadline := time.Now().Add(10 * time.Second)
				for {
					if err := f.Write(data); err == nil {
						acked.Store(string(data), true)
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("write %q starved", data)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond)

	versions := make(map[uint64]string)
	var final string
	for _, f := range files {
		v, c, _ := f.Read()
		if prev, ok := versions[v]; ok && prev != string(c) {
			t.Fatalf("version %d holds %q and %q", v, prev, c)
		}
		versions[v] = string(c)
		final = string(c)
	}
	if _, ok := acked.Load(final); !ok {
		t.Fatalf("final content %q was never acknowledged", final)
	}
	// All replicas converge to the same version.
	vstest.Eventually(t, 5*time.Second, "version convergence", func() bool {
		v0, _, _ := files[0].Read()
		for _, f := range files[1:] {
			v, _, _ := f.Read()
			if v != v0 {
				return false
			}
		}
		return true
	})
}

func TestProcessAccessor(t *testing.T) {
	net := vstest.NewNet(t, 113)
	f, err := Open(net.Fabric, net.Reg, "a", vstest.FastOptions(), Config{RW: threeSiteRW(), Enriched: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if f.Process() == nil || f.Process().Site() != "a" {
		t.Fatal("Process accessor broken")
	}
	var _ *core.Process = f.Process()
}
