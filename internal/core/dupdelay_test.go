package core_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vstest"
)

// reader drains one process's events, keeping only what the test
// asserts on.
type reader struct {
	mu       sync.Mutex
	mcasts   int
	unicasts map[ids.MsgID]int
	echanges int
}

func (r *reader) run(ch <-chan core.Event) {
	for ev := range ch {
		r.mu.Lock()
		switch e := ev.(type) {
		case core.MsgEvent:
			if e.Unicast {
				r.unicasts[e.ID]++
			} else {
				r.mcasts++
			}
		case core.EChangeEvent:
			r.echanges++
		}
		r.mu.Unlock()
	}
}

func (r *reader) snapshot() (mcasts, echanges int, unicasts map[ids.MsgID]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	unicasts = make(map[ids.MsgID]int, len(r.unicasts))
	for id, n := range r.unicasts {
		unicasts[id] = n
	}
	return r.mcasts, r.echanges, unicasts
}

// TestDuplicatedDelayedTrafficDeliversOnce puts the group behind a
// network that sends every data and e-view-change packet twice and holds
// each copy for its own random time, so copies arrive apart and a
// sender's packets overtake one another. Duplicate suppression has no
// per-message memory to lean on: multicasts are recognised by the
// sender's stamp component, unicasts by the per-sender window. Every
// paper property must still hold, through e-view changes and a crash.
func TestDuplicatedDelayedTrafficDeliversOnce(t *testing.T) {
	const (
		seed      = 36
		perSender = 667 // three senders: 2001 multicasts
		uniEvery  = 10
	)
	fabric := simnet.New(simnet.Config{
		Delay: simnet.NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, seed+1),
		Seed:  seed,
	})
	t.Cleanup(fabric.Close)
	isData := func(payload any) bool {
		switch payload.(type) {
		case wire.Data, wire.EChange:
			return true
		}
		return false
	}
	// A verdict is one action, so two filters are stacked: the outer one
	// duplicates, the inner one delays each copy it is handed.
	delayer := transport.NewFaultFilter(fabric)
	rng := rand.New(rand.NewSource(seed)) // predicates run under the filter's lock
	delayer.Arm(func(_, _ ids.PID, payload any) transport.Verdict {
		if isData(payload) {
			return transport.Delay(time.Duration(rng.Intn(1500)) * time.Microsecond)
		}
		return transport.Pass()
	})
	duplicator := transport.NewFaultFilter(delayer)
	duplicator.Arm(func(_, _ ids.PID, payload any) transport.Verdict {
		if isData(payload) {
			return transport.Duplicate()
		}
		return transport.Pass()
	})

	rec := tracecheck.NewRecorder()
	opts := vstest.FastOptions()
	opts.Observer = rec
	reg := stable.NewRegistry()
	var procs []*core.Process
	var readers []*reader
	for i := 0; i < 4; i++ {
		p, err := core.Start(duplicator, reg, vstest.SiteName(i), opts)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		r := &reader{unicasts: make(map[ids.MsgID]int)}
		go r.run(p.Events())
		procs, readers = append(procs, p), append(readers, r)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Crash()
		}
	})
	vstest.WaitConverged(t, procs, 5*time.Second)
	survivors, victim := procs[:3], procs[3]

	// mergeTwo asks for the first two sv-sets of the current view to be
	// merged until every member has applied `want` e-view changes.
	mergeTwo := func(want int) {
		t.Helper()
		vstest.Eventually(t, 5*time.Second, "sv-set merge applied", func() bool {
			done := true
			for _, r := range readers {
				if _, ech, _ := r.snapshot(); ech < want {
					done = false
				}
			}
			if !done {
				if sss := procs[0].CurrentView().Structure.SVSets(); len(sss) >= 2 {
					_ = procs[0].SVSetMerge(sss[0], sss[1]) // refused mid view change: asked again
				}
				time.Sleep(20 * time.Millisecond)
			}
			return done
		})
	}

	var wg sync.WaitGroup
	progress := make(chan struct{}, 3*perSender) // one token per multicast, never blocks a sender
	for si, p := range survivors {
		wg.Add(1)
		go func(si int, p *core.Process) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := p.Multicast([]byte{byte(si), byte(i), byte(i >> 8)}); err != nil {
					t.Errorf("Multicast: %v", err)
					return
				}
				if i%uniEvery == 0 {
					// Refused while a view change is in progress or once the
					// target has left the view: Unicast's contract.
					_ = p.Unicast(procs[(si+1+i/uniEvery)%4].PID(), []byte{byte(si), byte(i)})
				}
				progress <- struct{}{}
				if i%50 == 49 {
					time.Sleep(time.Millisecond) // let the delayed copies interleave
				}
			}
		}(si, p)
	}
	waitSent := func(n int) {
		for ; n > 0; n-- {
			<-progress
		}
	}
	waitSent(500)
	mergeTwo(1)
	waitSent(300)
	mergeTwo(2)
	waitSent(400)
	victim.Crash()
	wg.Wait()
	vstest.WaitConverged(t, survivors, 10*time.Second)

	vstest.Eventually(t, 10*time.Second, "every multicast read by every survivor", func() bool {
		for _, r := range readers[:3] {
			if n, _, _ := r.snapshot(); n < 3*perSender {
				return false
			}
		}
		return true
	})
	time.Sleep(50 * time.Millisecond) // room for a straggling duplicate to show
	for _, p := range survivors {
		if st := p.StatusSnapshot(); st.CausalPending != 0 {
			t.Errorf("%v holds %d packets in its causal buffer with every message delivered", p.PID(), st.CausalPending)
		}
	}

	if duplicator.Duplicated() == 0 || delayer.Delayed() == 0 {
		t.Fatalf("filters idle: %d duplicated, %d delayed", duplicator.Duplicated(), delayer.Delayed())
	}
	for _, err := range rec.Verify() {
		t.Error(err)
	}
	unicasts := 0
	for i, r := range readers {
		n, _, uni := r.snapshot()
		if i < 3 && n != 3*perSender {
			t.Errorf("%v read %d multicasts, want %d", procs[i].PID(), n, 3*perSender)
		}
		for id, times := range uni {
			unicasts++
			if times != 1 {
				t.Errorf("%v read unicast %v %d times", procs[i].PID(), id, times)
			}
		}
	}
	if unicasts == 0 {
		t.Error("no unicast was read at all")
	}
}
