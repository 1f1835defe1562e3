// Command vsperf is this repository's benchmark: four workloads that
// drive the stack from outside, through the public functions of its
// internal packages only, verify what they were delivered, and report
// end-to-end and per-layer metrics by name. bench/README.md defines
// every workload and metric; BENCHMARK.json at the repository root is
// the contract the regression gate runs it under.
//
//	go run ./bench/vsperf -workload all -seed 1 -json out.json
//	go run ./bench/vsperf -workload mcast-udp-n4 -trace 1 -spans /tmp/spans
//	go run ./bench/vsperf -layers
//	go run ./bench/vsperf -workload all -repeat 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"
)

// cfg is what one run of one workload is told.
type cfg struct {
	seed    int64
	seconds float64 // measured seconds per workload
	trace   bool    // also collect the per-layer metrics
	quick   bool    // smoke run: short phases, small warm-ups, one set-up
	setups  int     // set-ups per run; setup_s is their median
	// spansOut, when set, is the path prefix span files are written to.
	spansOut string
}

// part is the given share of the run's measured time.
func (c cfg) part(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// scaled shrinks a warm-up count for smoke runs.
func (c cfg) scaled(n int) int {
	if c.quick {
		return max(n/10, 1)
	}
	return n
}

// metric is one reported number. N is the sample count behind it (0 for
// counts and ratios) and P the percentile of the sample it is (0 if none).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	P     float64 `json:"percentile,omitempty"`
}

// result is what one workload run produced. Attempted counts multicasts
// sent, view-change waits, Write calls and rejoin cycles; Failed those
// that missed their deadline or returned an error, plus (once finished)
// every verification violation.
type result struct {
	Workload   string        `json:"workload"`
	EndToEnd   []metric      `json:"end_to_end"`
	PerLayer   []metric      `json:"per_layer"`
	Spans      []spanSummary `json:"spans,omitempty"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	Violations []string      `json:"violations"`
	Notes      []string      `json:"notes,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Violations: []string{}}
}

func (r *result) e2e(name, unit string, value float64, n int) {
	r.EndToEnd = append(r.EndToEnd, metric{Name: name, Unit: unit, Value: value, N: n})
}

// timing reports the p-th percentile of a sample of milliseconds as an
// end-to-end metric.
func (r *result) timing(name string, s sample, p float64) {
	r.EndToEnd = append(r.EndToEnd, metric{Name: name, Unit: "ms", Value: s.pct(p), N: len(s), P: p})
}

func (r *result) layer(name, unit string, value float64) {
	r.PerLayer = append(r.PerLayer, metric{Name: name, Unit: unit, Value: value})
}

// finish counts the violations as failures and derives failed_frac.
func (r *result) finish() {
	r.Attempted = max(r.Attempted, 1)
	r.Failed += len(r.Violations)
	r.e2e("failed_frac", "ratio", float64(r.Failed)/float64(r.Attempted), r.Attempted)
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range append(r.EndToEnd, r.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// repeatSetup sets the workload up c.setups times, tearing all but the
// last down again, and reports the median as setup_s: set-up is short
// next to the measured window, so one sample of it would be mostly noise.
func repeatSetup[E any](c cfg, res *result, setup func() (E, error), teardown func(E)) (E, error) {
	var times sample
	for {
		start := time.Now()
		env, err := setup()
		if err != nil {
			return env, fmt.Errorf("%s set-up: %w", res.Workload, err)
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) >= c.setups {
			res.e2e("setup_s", "s", times.pct(50), len(times))
			return env, nil
		}
		teardown(env)
	}
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	run  func(name string, c cfg) (*result, error)
	// slots maps the contract's workload-independent end-to-end names to
	// this workload's own metric (see README, "The contract").
	slots map[string]string
}

var workloads = []workload{
	{"mcast-sim-n4", func(n string, c cfg) (*result, error) { return runMcast(n, "sim", c) }, mcastSlots},
	{"mcast-udp-n4", func(n string, c cfg) (*result, error) { return runMcast(n, "udp", c) }, mcastSlots},
	{"churn-sim-n8", runChurn, map[string]string{
		"tput_ops_s": "vc_rate_changes_s", "lat_p50_ms": "vc_graceful_p50_ms", "lat_tail_ms": "vc_graceful_p90_ms", "recover_p50_ms": "vc_crash_p50_ms",
	}},
	{"repfile-udp-n3", runFile, map[string]string{
		"tput_ops_s": "write_tput_ops_s", "lat_p50_ms": "write_lat_p50_ms", "lat_tail_ms": "write_lat_p99_ms", "recover_p50_ms": "rejoin_p50_ms",
	}},
}

var mcastSlots = map[string]string{
	"tput_ops_s": "mcast_tput_msgs_s", "lat_p50_ms": "mcast_lat_p50_ms", "lat_tail_ms": "mcast_lat_p99_ms", "recover_p50_ms": "vc_crash_p50_ms",
}

// contract is the object the regression gate reads from the last line of
// standard output.
type contract struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders res as the gate wants it: the workload-independent
// end-to-end slots of an untraced run, or every per-layer metric of the
// benchmark (0 where this workload does not measure it) of a traced one.
func contractLine(w workload, res *result, traced bool) contract {
	out := contract{Correct: len(res.Violations) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	if traced {
		for _, def := range perLayerDefs {
			m, _ := res.get(def.name)
			out.Metrics[def.name] = contractValue{Value: m.Value, Unit: def.unit}
		}
		return out
	}
	for _, def := range endToEndDefs {
		name := def.name // setup_s fills its own slot
		if own := w.slots[name]; own != "" {
			name = own
		}
		m, _ := res.get(name)
		out.Metrics[def.name] = contractValue{m.Value, def.unit}
	}
	// failed_frac is 0 on a clean run and the gate cannot take a share of
	// 0, so the contract carries its complement.
	failed, _ := res.get("failed_frac")
	out.Metrics["ok_frac"] = contractValue{1 - failed.Value, "ratio"}
	return out
}

func (r *result) print(w workload) {
	fmt.Printf("\n== %s ==\n", r.Workload)
	alias := make(map[string]string)
	for slot, name := range w.slots {
		alias[name] = slot
	}
	if len(r.EndToEnd) > 0 {
		fmt.Println("end-to-end:")
	}
	for _, m := range r.EndToEnd {
		line := fmt.Sprintf("  %-22s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.P > 50 {
			// A tail is supported by the samples beyond it, ten at least.
			line += fmt.Sprintf(" (%d beyond)", beyond(m.N, m.P))
		}
		if slot := alias[m.Name]; slot != "" {
			line += "  [" + slot + "]"
		}
		fmt.Println(line)
	}
	if len(r.PerLayer) > 0 {
		fmt.Println("per-layer:")
		layers := append([]metric(nil), r.PerLayer...)
		sort.SliceStable(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
		for _, m := range layers {
			fmt.Printf("  %-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if len(r.Spans) > 0 {
		fmt.Printf("spans (1 multicast in %d traced; ns):\n  %-20s %8s %12s %12s\n", traceEvery, "kind", "count", "median", "self-median")
		for _, s := range r.Spans {
			fmt.Printf("  %-20s %8d %12.0f %12.0f\n", s.Name, s.Count, s.Median, s.Self50)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	for _, v := range r.Violations {
		fmt.Println("VIOLATION:", v)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, len(r.Violations) == 0)
}

// runOne runs workload w once under c.
func runOne(w workload, c cfg) (*result, error) {
	res, err := w.run(w.name, c)
	if err != nil {
		return nil, err
	}
	if c.trace {
		// The micro-measurements ride along with the traced run, short;
		// only mcast-sim-n4 pays for the observer comparison, which
		// repeats its load.
		if err := runLayers(res, c, 100*time.Millisecond, w.name == "mcast-sim-n4"); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

func main() {
	testing.Init() // registers test.benchtime for the micro-harness
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seeds simnet, payload bytes, victim order and write contents")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1: also run the traced repetition, the counters and the micro-harness, and print the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1: write the spans of mcast-* to <prefix>.<workload>.json")
		layers  = flag.Bool("layers", false, "run only the per-layer micro-harness (1 s per loop)")
		repeat  = flag.Int("repeat", 1, "run the set N times (seed, seed+1, ...) and print each end-to-end metric's spread")
		quick   = flag.Bool("quick", false, "smoke run: 2 s per workload, one set-up, small warm-ups")
		jsonOut = flag.String("json", "", "write every result as JSON to this file")
	)
	flag.Parse()
	if err := run(*name, cfg{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, setups: 7, spansOut: *spans}, *layers, *repeat, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "vsperf:", err)
		os.Exit(1)
	}
}

// errViolations makes the process exit non-zero after a complete report.
var errViolations = errors.New("verification found violations")

func run(name string, c cfg, layersOnly bool, repeat int, jsonOut string) error {
	if c.quick {
		c.seconds, c.setups = 2, 1
	}
	fmt.Println("vsperf: simnet injects a constant 100 µs one-way delay, no loss, infinite bandwidth;")
	fmt.Println("        udp is host loopback: no real link is crossed. Closed-loop load from one process.")
	if layersOnly {
		res := newResult("layers")
		if err := runLayers(res, c, time.Second, true); err != nil {
			return err
		}
		res.print(workload{})
		return writeJSON(jsonOut, []*result{res})
	}
	selected, err := selectWorkloads(name)
	if err != nil {
		return err
	}
	var all []*result
	var last contract
	bad := false
	for i := 0; i < repeat; i++ {
		rc := c
		rc.seed += int64(i)
		for _, w := range selected {
			res, err := runOne(w, rc)
			if err != nil {
				return err
			}
			res.print(w)
			all = append(all, res)
			bad = bad || len(res.Violations) > 0
			last = contractLine(w, res, c.trace)
			// A saturated run leaves a GiB of garbage; return it before
			// the next run so that runs in one process stay comparable.
			debug.FreeOSMemory()
		}
	}
	if repeat > 1 {
		printSpreads(selected, all)
	}
	if err := writeJSON(jsonOut, all); err != nil {
		return err
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", line)
	if bad {
		return errViolations
	}
	return nil
}

func writeJSON(path string, results []*result) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSpreads prints, per workload and end-to-end metric, the median,
// quartiles and spreads over the repeated runs: the numbers the bounds in
// BENCHMARK.json are fixed from.
func printSpreads(selected []workload, all []*result) {
	fmt.Printf("\n== spread over %d runs ==\n", len(all)/len(selected))
	fmt.Printf("%-16s %-22s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, w := range selected {
		values := make(map[string][]float64)
		var order []string
		for _, r := range all {
			if r.Workload != w.name {
				continue
			}
			line := contractLine(w, r, false)
			for _, def := range endToEndDefs {
				if _, seen := values[def.name]; !seen {
					order = append(order, def.name)
				}
				values[def.name] = append(values[def.name], line.Metrics[def.name].Value)
			}
			for _, m := range r.EndToEnd {
				if _, isSlot := line.Metrics[m.Name]; isSlot {
					continue
				}
				if _, seen := values[m.Name]; !seen {
					order = append(order, m.Name)
				}
				values[m.Name] = append(values[m.Name], m.Value)
			}
		}
		for _, name := range order {
			s := spreadOf(values[name])
			fmt.Printf("%-16s %-22s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%\n", w.name, name, s.Median, s.Q1, s.Q3, 100*s.IQR, 100*s.Range)
		}
	}
}
