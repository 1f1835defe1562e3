package gobject_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/apps/counter"
	"repro/internal/apps/lockmgr"
	"repro/internal/apps/lookupdb"
	"repro/internal/apps/repfile"
	"repro/internal/core"
	"repro/internal/modes"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/tracecheck"
	"repro/internal/vstest"
)

// replica is what the conformance schedule needs of any hosted object.
type replica interface {
	Process() *core.Process
	Mode() modes.Mode
	Close()
}

// conformanceCase puts one group object under the schedule every object
// must survive. check runs whenever the schedule has brought the serving
// replicas into one view, all in N-mode: it performs external operations
// through them and asserts the object's own invariant.
type conformanceCase struct {
	name  string
	open  func(net *vstest.Net, site string, opts core.Options, enriched bool) (replica, error)
	check func(t *testing.T, stage string, serving []replica)
}

const conformanceSites = 5

func conformanceRW() quorum.RW {
	sites := make([]string, conformanceSites)
	for i := range sites {
		sites[i] = vstest.SiteName(i)
	}
	return quorum.MajorityRW(quorum.Uniform(sites...))
}

// retry repeats op until it succeeds: operations interrupted by a view
// change are retryable by contract.
func retry(t *testing.T, what string, op func() error) {
	t.Helper()
	var err error
	vstest.Eventually(t, 15*time.Second, what, func() bool {
		err = op()
		return err == nil
	})
}

func conformanceCases() []conformanceCase {
	// Invariant: an acknowledged write is readable at every serving replica.
	file := conformanceCase{
		name: "repfile",
		open: func(net *vstest.Net, site string, opts core.Options, enriched bool) (replica, error) {
			return repfile.Open(net.Fabric, net.Reg, site, opts, repfile.Config{RW: conformanceRW(), Enriched: enriched})
		},
		check: func(t *testing.T, stage string, serving []replica) {
			data := []byte("written at " + stage)
			w := serving[len(serving)-1].(*repfile.File)
			retry(t, stage+": write", func() error { return w.Write(data) })
			for _, r := range serving {
				f := r.(*repfile.File)
				vstest.Eventually(t, 5*time.Second, fmt.Sprintf("%s: acknowledged write readable at %v", stage, f.Process().PID()), func() bool {
					_, content, _ := f.Read()
					return bytes.Equal(content, data)
				})
			}
		},
	}

	// Invariant: at most one member holds the lock, and a held lock is busy.
	lock := conformanceCase{
		name: "lockmgr",
		open: func(net *vstest.Net, site string, opts core.Options, enriched bool) (replica, error) {
			return lockmgr.Open(net.Fabric, net.Reg, site, opts, lockmgr.Config{RW: conformanceRW(), Enriched: enriched})
		},
		check: func(t *testing.T, stage string, serving []replica) {
			holders := func() (n int) {
				for _, r := range serving {
					if r.(*lockmgr.Manager).HeldByMe() {
						n++
					}
				}
				return n
			}
			if n := holders(); n > 1 {
				t.Fatalf("%s: %d members hold the lock", stage, n)
			}
			owner := serving[len(serving)-1].(*lockmgr.Manager)
			other := serving[0].(*lockmgr.Manager)
			retry(t, stage+": acquire", owner.TryAcquire)
			if n := holders(); n != 1 || !owner.HeldByMe() {
				t.Fatalf("%s: after a grant %d members hold the lock (owner: %v)", stage, n, owner.HeldByMe())
			}
			vstest.Eventually(t, 5*time.Second, stage+": second acquire is refused", func() bool {
				return other.TryAcquire() == lockmgr.ErrBusy
			})
			retry(t, stage+": release", owner.Release)
			if n := holders(); n != 0 {
				t.Fatalf("%s: %d members hold a released lock", stage, n)
			}
		},
	}

	// Invariant: the division of responsibility covers the key set exactly once.
	var keys []string
	db := conformanceCase{
		name: "lookupdb",
		open: func(net *vstest.Net, site string, opts core.Options, enriched bool) (replica, error) {
			return lookupdb.Open(net.Fabric, net.Reg, site, opts, lookupdb.Config{Enriched: enriched})
		},
		check: func(t *testing.T, stage string, serving []replica) {
			for i, r := range serving {
				k := fmt.Sprintf("%s/%d", stage, i)
				keys = append(keys, k)
				retry(t, stage+": insert", func() error { return r.(*lookupdb.DB).Insert(k, "v") })
			}
			sort.Strings(keys)
			vstest.Eventually(t, 5*time.Second, stage+": every key is searched exactly once", func() bool {
				var scanned []string
				for _, r := range serving {
					scanned = append(scanned, r.(*lookupdb.DB).ScanMine()...)
				}
				sort.Strings(scanned)
				return fmt.Sprint(scanned) == fmt.Sprint(keys)
			})
		},
	}

	// Invariant: every serving replica reports the same total, and it is
	// the number of increments performed.
	var total uint64
	ctr := conformanceCase{
		name: "counter",
		open: func(net *vstest.Net, site string, opts core.Options, enriched bool) (replica, error) {
			return counter.Open(net.Fabric, net.Reg, site, opts, enriched)
		},
		check: func(t *testing.T, stage string, serving []replica) {
			for _, r := range serving {
				retry(t, stage+": increment", func() error { return r.(*counter.Counter).Increment(1) })
				total++
			}
			vstest.Eventually(t, 5*time.Second, fmt.Sprintf("%s: total %d everywhere", stage, total), func() bool {
				for _, r := range serving {
					if r.(*counter.Counter).Value() != total {
						return false
					}
				}
				return true
			})
		},
	}
	return []conformanceCase{file, lock, db, ctr}
}

// TestObjectConformance runs one schedule — form, partition 3|2, heal,
// crash a member, restart it — over every hosted object, enriched and
// flat, under the trace checkers.
func TestObjectConformance(t *testing.T) {
	for _, enriched := range []bool{true, false} {
		for _, c := range conformanceCases() {
			t.Run(fmt.Sprintf("%s/enriched=%v", c.name, enriched), func(t *testing.T) {
				runConformance(t, c, enriched)
			})
		}
	}
}

func runConformance(t *testing.T, c conformanceCase, enriched bool) {
	net := vstest.NewNet(t, 700)
	rec := tracecheck.NewRecorder()
	opts := vstest.FastOptions()
	opts.Observer = rec

	open := func(site string) replica {
		r, err := c.open(net, site, opts, enriched)
		if err != nil {
			t.Fatalf("open %s: %v", site, err)
		}
		t.Cleanup(r.Close)
		return r
	}
	// together waits until rs share one view of exactly themselves, every
	// one of them in N-mode and, under enriched views, folded back into a
	// single subview; then it lets the object check itself.
	together := func(stage string, rs []replica) {
		t.Helper()
		vstest.Eventually(t, 25*time.Second, stage+": one view, all in N-mode", func() bool {
			v0 := rs[0].Process().CurrentView()
			if v0.Size() != len(rs) || (enriched && v0.Structure.NumSubviews() != 1) {
				return false
			}
			for _, r := range rs {
				if r.Mode() != modes.Normal || r.Process().CurrentView().ID != v0.ID {
					return false
				}
			}
			return true
		})
		c.check(t, stage, rs)
	}

	all := make([]replica, conformanceSites)
	for i := range all {
		all[i] = open(vstest.SiteName(i))
	}
	together("formed", all)

	net.Fabric.SetPartitions([]string{"a", "b", "c"}, []string{"d", "e"})
	together("partitioned", all[:3])
	vstest.Eventually(t, 25*time.Second, "minority view", func() bool {
		return all[3].Process().CurrentView().Size() == 2 && all[4].Process().CurrentView().Size() == 2
	})

	net.Fabric.Heal()
	together("healed", all)

	all[2].Process().Crash()
	together("after crash", []replica{all[0], all[1], all[3], all[4]})

	all[2] = open("c")
	together("after restart", all)

	rep := rec.Report()
	for _, v := range rep.Violations {
		t.Errorf("trace violation: %v", v)
	}
	if rep.Summary.Counts[obs.EvMode] == 0 {
		t.Error("the trace holds no mode events: Figure-1 legality was checked over nothing")
	}
}
