package chaos

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/vstest"
)

// GenConfig bounds the plan generator. The zero value is completed with
// defaults sized for the repo's simulation-speed timing profile
// (core.Sim*): fault windows comfortably exceed the 18 ms suspicion
// timeout so cuts actually provoke view changes, and the horizon leaves
// room for several overlapping faults.
type GenConfig struct {
	// N is the group size (default 5).
	N int
	// MinFaults and MaxFaults bound how many faults a plan schedules
	// (defaults 3 and 6).
	MinFaults, MaxFaults int
	// Horizon is the fault-phase length (default 1.2 s).
	Horizon time.Duration
	// MaxCrashes bounds KindCrash faults per plan (default 1): every
	// crash forces a detection + re-formation + rejoin cycle, and one
	// per plan keeps short soak runs from spending their whole horizon
	// rejoining.
	MaxCrashes int
}

func (g GenConfig) withDefaults() GenConfig {
	if g.N <= 0 {
		g.N = 5
	}
	if g.MinFaults <= 0 {
		g.MinFaults = 3
	}
	if g.MaxFaults < g.MinFaults {
		g.MaxFaults = g.MinFaults + 3
	}
	if g.Horizon <= 0 {
		g.Horizon = 1200 * time.Millisecond
	}
	if g.MaxCrashes < 0 {
		g.MaxCrashes = 0
	} else if g.MaxCrashes == 0 {
		g.MaxCrashes = 1
	}
	return g
}

// genKinds is the generator's draw table. Packet-level faults dominate;
// structural faults (partition, crash) appear often enough that most
// plans reshape the membership at least once.
var genKinds = []FaultKind{
	KindPartition, KindPartition,
	KindOneWay, KindOneWay,
	KindLoss, KindLoss,
	KindDrop, KindDrop,
	KindHBStarve,
	KindCrash,
	KindDelay, KindDelay,
	KindDup,
}

// genPkts are the kinds packet-targeted faults draw from. The empty
// kind (match everything) is weighted in; install and ack drops are the
// reconcile-path faults the ISSUE singles out.
var genPkts = []string{"", "", "data", "install", "ack", "propose"}

// Generate draws a fault plan from the seed. The same (seed, config)
// always yields the same plan; Validate always passes on the result.
func Generate(seed int64, gc GenConfig) Plan {
	gc = gc.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	horizonMS := int(gc.Horizon / time.Millisecond)

	// Window bounds, derived from the suspicion timeout: long enough to
	// provoke suspicion (≥ 2×), short enough that several faults fit.
	suspectMS := int(core.SimSuspectAfter / time.Millisecond)
	minWin, maxWin := 2*suspectMS, horizonMS/3
	if maxWin <= minWin {
		maxWin = minWin + 1
	}

	n := gc.MinFaults + rng.Intn(gc.MaxFaults-gc.MinFaults+1)
	plan := Plan{Seed: seed, N: gc.N, HorizonMS: horizonMS}
	crashes := 0
	crashed := make(map[string]bool)
	for len(plan.Faults) < n {
		kind := genKinds[rng.Intn(len(genKinds))]
		win := minWin + rng.Intn(maxWin-minWin)
		// Leave the window inside the horizon: every fault has ceased by
		// the time the liveness oracle starts.
		at := rng.Intn(horizonMS - win)
		f := Fault{Kind: kind, At: at, For: win}
		switch kind {
		case KindPartition:
			k := 1 + rng.Intn(gc.N-1)
			f.Sites = pickSites(rng, gc.N, k)
		case KindOneWay:
			pair := pickSites(rng, gc.N, 2)
			f.A, f.B = pair[0], pair[1]
		case KindLoss:
			f.Pkt = genPkts[rng.Intn(len(genPkts))]
			f.Prob = 0.2 + 0.6*rng.Float64()
			if rng.Intn(2) == 0 {
				f.A = vstest.SiteName(rng.Intn(gc.N))
			}
		case KindDrop:
			pair := pickSites(rng, gc.N, 2)
			f.A, f.B = pair[0], pair[1]
			f.Pkt = []string{"install", "ack"}[rng.Intn(2)]
			f.Count = 1 + rng.Intn(3)
		case KindHBStarve:
			f.A = vstest.SiteName(rng.Intn(gc.N))
		case KindCrash:
			site := vstest.SiteName(rng.Intn(gc.N))
			if crashes >= gc.MaxCrashes || crashed[site] {
				continue
			}
			crashes++
			crashed[site] = true
			f.A = site
		case KindDelay:
			f.Pkt = genPkts[rng.Intn(len(genPkts))]
			f.Prob = 0.3 + 0.6*rng.Float64()
			f.DelayMS = 5 + rng.Intn(35)
		case KindDup:
			f.Pkt = genPkts[rng.Intn(len(genPkts))]
			f.Prob = 0.3 + 0.6*rng.Float64()
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan.normalized()
}

// pickSites draws k distinct site names from an n-site group.
func pickSites(rng *rand.Rand, n, k int) []string {
	perm := rng.Perm(n)[:k]
	out := make([]string, k)
	for i, idx := range perm {
		out[i] = vstest.SiteName(idx)
	}
	return out
}
