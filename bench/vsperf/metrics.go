package main

// metricDef declares one metric of the contract in BENCHMARK.json; the
// file is generated from these lists (go test ./bench/vsperf -run
// TestBenchmarkJSON -update) and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected (0 for per-layer
	// metrics, which carry none).
	bound float64
}

// runSeconds is the measured time per run the contract fixes. The gate
// makes 92 runs in 3420 s, so a run may take 37 s all told; 28 s measured
// leaves room for three set-ups, the drains and the build check.
const runSeconds = 28

// endToEndDefs are the workload-independent end-to-end slots; which of a
// workload's own metrics fills each is in workloads[].slots. The bounds
// were fixed from -repeat runs on the 2-core builder box (README,
// "Calibration").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tput_ops_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.15},
	{"lat_tail_ms", "ms", "lower", 0.25},
	{"recover_p50_ms", "ms", "lower", 0.20},
	{"ok_frac", "ratio", "higher", 0.001},
}

// perLayerDefs are the per-layer metrics a traced run reports. A
// workload reports 0 for those it does not measure.
var perLayerDefs = []metricDef{
	// Public counters bracketing the measured window.
	{name: "transport.pkts_per_mcast", unit: "count", better: "lower"},
	{name: "transport.bytes_per_mcast", unit: "B", better: "lower"},
	{name: "transport.pkts_per_write", unit: "count", better: "lower"},
	{name: "transport.bytes_per_write", unit: "B", better: "lower"},
	{name: "simnet.hb_piggyback_frac", unit: "ratio", better: "higher"},
	{name: "udp.datagrams_per_mcast", unit: "count", better: "lower"},
	{name: "udp.datagrams_per_write", unit: "count", better: "lower"},
	{name: "udp.frames_per_datagram", unit: "count", better: "higher"},
	{name: "udp.drop_overflow", unit: "count", better: "lower"},
	{name: "udp.drop_oversize", unit: "count", better: "lower"},
	{name: "udp.drop_decode", unit: "count", better: "lower"},
	{name: "core.extra_views", unit: "count", better: "lower"},
	{name: "core.flush_deliveries", unit: "count", better: "lower"},
	{name: "core.stable_pruned_frac", unit: "ratio", better: "higher"},
	{name: "proc.cpu_us_per_mcast", unit: "us", better: "lower"},
	{name: "proc.cpu_us_per_write", unit: "us", better: "lower"},
	{name: "proc.allocs_per_mcast", unit: "count", better: "lower"},
	{name: "proc.alloc_bytes_per_mcast", unit: "B", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "mcast_lat_p10_ms", unit: "ms", better: "lower"},
	// View changes, by kind (the slots carry only the graceful median
	// and tail and the crash median).
	{name: "vc_leave_p50_ms", unit: "ms", better: "lower"},
	{name: "vc_leave_p95_ms", unit: "ms", better: "lower"},
	{name: "vc_join_p50_ms", unit: "ms", better: "lower"},
	{name: "vc_join_p95_ms", unit: "ms", better: "lower"},
	{name: "vc.pkts_per_change", unit: "count", better: "lower"},
	{name: "vc.bytes_per_change", unit: "B", better: "lower"},
	{name: "vc.ack_bytes_per_change", unit: "B", better: "lower"},
	{name: "vc.install_bytes_per_change", unit: "B", better: "lower"},
	{name: "vc.pkts_per_leave", unit: "count", better: "lower"},
	{name: "vc.bytes_per_leave", unit: "B", better: "lower"},
	{name: "vc.pkts_per_crash", unit: "count", better: "lower"},
	{name: "vc.bytes_per_crash", unit: "B", better: "lower"},
	{name: "vc.pkts_per_join", unit: "count", better: "lower"},
	{name: "vc.bytes_per_join", unit: "B", better: "lower"},
	{name: "vc.proposals_per_change", unit: "count", better: "lower"},
	{name: "vc.retries", unit: "count", better: "lower"},
	{name: "vc.reconciles", unit: "count", better: "lower"},
	{name: "vc.reproposals", unit: "count", better: "lower"},
	{name: "repfile.transfers_pulled", unit: "count", better: "lower"},
	{name: "repfile.reconciles_per_rejoin", unit: "count", better: "lower"},
	// The traced repetition of mcast-*.
	{name: "core.submit_ns", unit: "ns", better: "lower"},
	{name: "core.tx_us", unit: "us", better: "lower"},
	{name: "transport.send_ns", unit: "ns", better: "lower"},
	{name: "transport.transit_us", unit: "us", better: "lower"},
	{name: "core.rx_us", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	// The micro-harness.
	{name: "wire.enc_data_ns", unit: "ns", better: "lower"},
	{name: "wire.dec_data_ns", unit: "ns", better: "lower"},
	{name: "wire.enc_data_allocs", unit: "count", better: "lower"},
	{name: "wire.dec_data_allocs", unit: "count", better: "lower"},
	{name: "wire.enc_data_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.dec_data_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.enc_hb_ns", unit: "ns", better: "lower"},
	{name: "wire.dec_hb_ns", unit: "ns", better: "lower"},
	{name: "wire.enc_ack_ns", unit: "ns", better: "lower"},
	{name: "wire.dec_ack_ns", unit: "ns", better: "lower"},
	{name: "wire.enc_install_ns", unit: "ns", better: "lower"},
	{name: "wire.dec_install_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_data_bytes", unit: "B", better: "lower"},
	{name: "wire.frame_ack_bytes", unit: "B", better: "lower"},
	{name: "udp.send_ns", unit: "ns", better: "lower"},
	{name: "udp.send_allocs", unit: "count", better: "lower"},
	{name: "udp.bcast_ns", unit: "ns", better: "lower"},
	{name: "udp.rtt_us", unit: "us", better: "lower"},
	{name: "udp.burst_msgs_s", unit: "1/s", better: "higher"},
	{name: "udp.burst_delivered_frac", unit: "ratio", better: "higher"},
	{name: "simnet.send_ns", unit: "ns", better: "lower"},
	{name: "simnet.send_allocs", unit: "count", better: "lower"},
	{name: "simnet.bcast_ns", unit: "ns", better: "lower"},
	{name: "simnet.deliver_lag_us", unit: "us", better: "lower"},
	{name: "clock.offer_ns", unit: "ns", better: "lower"},
	{name: "clock.offer_allocs", unit: "count", better: "lower"},
	{name: "clock.merge_ns", unit: "ns", better: "lower"},
	{name: "clock.restrict_ns", unit: "ns", better: "lower"},
	{name: "clock.offer_n8_ns", unit: "ns", better: "lower"},
	{name: "clock.merge_n8_ns", unit: "ns", better: "lower"},
	{name: "clock.restrict_n8_ns", unit: "ns", better: "lower"},
	{name: "eventq.pushpop_ns", unit: "ns", better: "lower"},
	{name: "fd.heard_ns", unit: "ns", better: "lower"},
	{name: "fd.alive_ns", unit: "ns", better: "lower"},
	{name: "evs.compose_ns", unit: "ns", better: "lower"},
	{name: "evs.merge_ns", unit: "ns", better: "lower"},
	{name: "stable.append_view_ns", unit: "ns", better: "lower"},
	{name: "transfer.bulk_mb_s", unit: "MB/s", better: "higher"},
	{name: "transfer.resume_ms", unit: "ms", better: "lower"},
	{name: "gobject.settle_ms", unit: "ms", better: "lower"},
	{name: "obs.collector_tput_frac", unit: "ratio", better: "higher"},
	{name: "obs.collector_allocs_per_mcast", unit: "count", better: "lower"},
}
