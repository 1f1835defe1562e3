package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/udp"
)

// counters is a snapshot of every public counter the layers keep, taken
// at the two edges of a measured window; per-layer ratios are differences
// of two snapshots divided by the operations the window completed.
type counters struct {
	tr        transport.Stats
	core      core.Stats
	datagrams uint64 // udp datagrams written (0 on simnet)
	mem       runtime.MemStats
	cpu       time.Duration // user+system time of this process
}

func takeCounters(g *group, reg *obs.Registry) counters {
	c := counters{tr: g.tr.Stats(), core: g.coreStats(), cpu: cpuTime()}
	if reg != nil {
		c.datagrams = reg.Counter(udp.MetricDatagramsSent).Value()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// transportLayers reports the packet-level cost of ops operations between
// two snapshots under the given suffix ("mcast" or "write").
func (r *result) transportLayers(kind string, a, b counters, ops int64, suffix string) {
	n := float64(ops)
	sent := float64(b.tr.Sent - a.tr.Sent)
	r.layer("transport.pkts_per_"+suffix, "count", ratio(sent, n))
	r.layer("transport.bytes_per_"+suffix, "B", ratio(float64(b.tr.BytesSent-a.tr.BytesSent), n))
	dgrams := float64(b.datagrams - a.datagrams)
	r.layer("udp.datagrams_per_"+suffix, "count", ratio(dgrams, n))
	if kind == "udp" {
		r.layer("udp.frames_per_datagram", "count", ratio(sent, dgrams))
		r.layer("udp.drop_overflow", "count", float64(b.tr.DroppedOverflow-a.tr.DroppedOverflow))
		r.layer("udp.drop_oversize", "count", float64(b.tr.DroppedOversize-a.tr.DroppedOversize))
		r.layer("udp.drop_decode", "count", float64(b.tr.DroppedDecode-a.tr.DroppedDecode))
	}
	r.layer("core.extra_views", "count", float64(b.core.ViewsInstalled-a.core.ViewsInstalled))
	r.layer("core.flush_deliveries", "count", float64(b.core.FlushDeliveries-a.core.FlushDeliveries))
	r.layer("proc.cpu_us_per_"+suffix, "us", ratio(float64(b.cpu-a.cpu)/1e3, n))
}

// mcastLayers reports the per-layer counters of a saturated multicast
// window of ops multicasts.
func (r *result) mcastLayers(kind string, a, b counters, ops int64) {
	r.transportLayers(kind, a, b, ops, "mcast")
	n := float64(ops)
	if kind == "sim" {
		hb := float64(b.tr.PerKind["hb"] - a.tr.PerKind["hb"])
		rode := float64(b.tr.PerKindPiggyback["hb"] - a.tr.PerKindPiggyback["hb"])
		r.layer("simnet.hb_piggyback_frac", "ratio", ratio(rode, hb+rode))
	}
	r.layer("core.stable_pruned_frac", "ratio",
		ratio(float64(b.core.StableMsgsPruned-a.core.StableMsgsPruned), float64(b.core.MsgsDelivered-a.core.MsgsDelivered)))
	r.layer("proc.allocs_per_mcast", "count", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n))
	r.layer("proc.alloc_bytes_per_mcast", "B", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n))
	r.layer("proc.gc_pause_ms", "ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	// The run-time keeps no high-water mark of live heap; the heap
	// memory obtained from the OS only grows, so it is one.
	r.layer("proc.heap_peak_mb", "MB", float64(b.mem.HeapSys)/(1<<20))
}
