// Command vsbench regenerates every figure/claim reproduction of the
// paper as formatted tables (the experiment index lives in DESIGN.md §3,
// the paper-vs-measured record in EXPERIMENTS.md).
//
// Usage:
//
//	go run ./cmd/vsbench                        # run everything
//	go run ./cmd/vsbench -exp e1                # one experiment
//	go run ./cmd/vsbench -seed 7                # different seed
//	go run ./cmd/vsbench -quick                 # smaller sweeps
//	go run ./cmd/vsbench -exp e1 -metrics m.json  # dump a metrics snapshot
//	go run ./cmd/vsbench -exp e1 -quick -trace-out e1.jsonl  # JSONL event trace
//
// With -metrics, every protocol stack the experiments start is
// instrumented with an obs.Collector sharing one registry, and a JSON
// snapshot (counters, gauges, histograms — see the README
// "Observability" section for the schema) is written to the given file
// when the run completes.
//
// With -trace-out, the same collector streams every protocol event to
// a JSONL file, with a run-boundary marker before every experiment cell
// (each builds a fresh fabric) so the trace can be analyzed offline with
// vstrace -analyze.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/transfer"
)

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", "experiment to run: all|f1|f2|f3|e1|e2|e3|e4|e6|e7|e8|e8m|e9")
	seed := flag.Int64("seed", 42, "random seed")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	metrics := flag.String("metrics", "", "write a JSON metrics snapshot to this file")
	traceOut := flag.String("trace-out", "", "write a JSONL trace of protocol events to this file")
	transportName := flag.String("transport", "sim", "network backend: sim (deterministic simulator) or udp (real loopback sockets); e3/e7 always use sim")
	adminAddr := flag.String("admin", "", "serve live admin endpoints (/metrics, /status, /trace, /debug/pprof) on this address while the run is in progress, e.g. :9090 (use :0 for an ephemeral port)")
	adminCheck := flag.Bool("admin-check", false, "with -admin: after the run, self-scrape /metrics and /status and fail unless both are well-formed and non-empty (make check uses this)")
	flag.Parse()

	timing := experiments.FastTiming()
	switch *transportName {
	case "sim", "udp":
		timing.Transport = *transportName
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q (want sim|udp)\n", *transportName)
		os.Exit(2)
	}
	var reg *obs.Registry
	var metricsFile *os.File
	if *metrics != "" {
		// Open the output up front so a bad path fails before the run,
		// not after it.
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatalf("vsbench: %v", err)
		}
		metricsFile = f
		reg = obs.NewRegistry()
	}
	if *adminAddr != "" && reg == nil {
		// The admin endpoint serves the metrics registry live, so one is
		// needed even without a -metrics snapshot file.
		reg = obs.NewRegistry()
	}
	var traceBuf *bufio.Writer
	var traceFile *os.File
	var jsonl *obs.JSONLSink
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("vsbench: %v", err)
		}
		traceFile = f
		traceBuf = bufio.NewWriter(f)
		jsonl = obs.NewJSONLSink(traceBuf)
		tracer = obs.NewTracer(0, jsonl)
	}
	if reg != nil || tracer != nil {
		timing.Observer = obs.NewCollector(reg, tracer)
	}
	var adminSrv *admin.Server
	if *adminAddr != "" {
		srv, err := admin.New(*adminAddr, reg, tracer)
		if err != nil {
			log.Fatalf("vsbench: %v", err)
		}
		adminSrv = srv
		defer adminSrv.Close()
		fmt.Printf("admin endpoints on http://%s (/metrics /metrics.json /status /trace /debug/pprof)\n", adminSrv.Addr())
		// Every process any experiment starts registers itself, so
		// /status covers whatever group is currently running. Experiment
		// processes are raw core stacks (no gobject mode automaton), so
		// their Figure-1 mode renders as "".
		timing.OnStart = func(p *core.Process) {
			adminSrv.Register(p.PID().String(), admin.Member{Status: p.StatusSnapshot})
		}
	} else if *adminCheck {
		log.Fatal("vsbench: -admin-check needs -admin")
	}

	runners := map[string]func(experiments.Timing, int64, bool) error{
		"f1": runF1, "f2": runF2, "f3": runF3,
		"e1": runE1, "e2": runE2, "e3": runE3, "e4": runE4, "e6": runE6,
		"e7": runE7, "e8": runE8, "e8m": runE8M, "e9": runE9,
	}
	order := []string{"f1", "f2", "f3", "e1", "e2", "e3", "e4", "e6", "e7", "e8", "e8m", "e9"}

	which := strings.ToLower(*exp)
	if which == "all" {
		for _, name := range order {
			if err := runners[name](timing, *seed, *quick); err != nil {
				log.Fatalf("vsbench: %s: %v", name, err)
			}
		}
	} else {
		r, ok := runners[which]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want all|%s)\n", which, strings.Join(order, "|"))
			os.Exit(2)
		}
		if err := r(timing, *seed, *quick); err != nil {
			log.Fatalf("vsbench: %s: %v", which, err)
		}
	}

	if metricsFile != nil {
		if err := reg.WriteJSON(metricsFile); err != nil {
			log.Fatalf("vsbench: %v", err)
		}
		if err := metricsFile.Close(); err != nil {
			log.Fatalf("vsbench: %v", err)
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metrics)
	}
	if traceBuf != nil {
		// Experiments stop every process they start before returning, so
		// no observer callback can race the flush here.
		if err := traceBuf.Flush(); err != nil {
			log.Fatalf("vsbench: flush trace: %v", err)
		}
		if err := jsonl.Err(); err != nil {
			log.Fatalf("vsbench: write trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatalf("vsbench: %v", err)
		}
		fmt.Printf("\nstructured trace written to %s\n", *traceOut)
	}
	if *adminCheck {
		if err := adminSelfCheck(adminSrv.Addr()); err != nil {
			log.Fatalf("vsbench: admin self-check: %v", err)
		}
		fmt.Println("\nadmin self-check passed: /metrics and /status well-formed and non-empty")
	}
}

// adminSelfCheck scrapes this process's own admin endpoints and
// validates the two machine-readable surfaces CI depends on: /metrics
// must be non-empty, parseable Prometheus text exposition (every line
// a comment or "name value"), and /status must decode as a non-empty
// member array whose entries carry a view id. make check runs a quick
// experiment with -admin :0 -admin-check to keep both honest.
func adminSelfCheck(addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %s", resp.Status)
	}
	lines, samples := strings.Split(strings.TrimRight(string(body), "\n"), "\n"), 0
	if len(body) == 0 {
		return fmt.Errorf("/metrics: empty body")
	}
	for i, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			return fmt.Errorf("/metrics line %d: want 'name value', got %q", i+1, ln)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("/metrics line %d: bad value %q: %v", i+1, fields[1], err)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("/metrics: no samples")
	}

	reports := admin.PollStatus(client, addr)
	for _, r := range reports {
		if r.Err != nil {
			return fmt.Errorf("/status: %w", r.Err)
		}
		if r.Status.ViewID == "" {
			return fmt.Errorf("/status: member %s has no view id", r.Status.PID)
		}
	}
	fmt.Printf("admin self-check: %d metric samples, %d member status documents\n", samples, len(reports))
	return nil
}

func header(title, source string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("    paper: %s\n\n", source)
}

func runF1(timing experiments.Timing, seed int64, _ bool) error {
	header("F1 — execution modes of a group object process",
		"Figure 1: N/R/S modes with Failure, Repair, Reconfigure, Reconcile transitions")
	rows, err := experiments.RunF1(timing, seed)
	if err != nil {
		return err
	}
	fmt.Println(experiments.F1Header)
	for _, r := range rows {
		fmt.Println(r)
	}
	return nil
}

func runF2(timing experiments.Timing, seed int64, _ bool) error {
	header("F2 — views, subviews and sv-sets across a partition and a merge",
		"Figure 2: structure shrinks on failures, survives merges as distinct clusters (P6.3)")
	rows, violations, err := experiments.RunF2(timing, seed)
	if err != nil {
		return err
	}
	fmt.Println(experiments.F2Header)
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Printf("property checker violations (P2.1-P2.3, P6.1-P6.3): %d\n", violations)
	return nil
}

func runF3(timing experiments.Timing, seed int64, quick bool) error {
	header("F3 — e-view changes within a view",
		"Figure 3: SV-SetMerge then SubviewMerge, totally ordered at all members (P6.1, P6.2)")
	sizes := []int{3, 5, 8}
	if quick {
		sizes = []int{3, 5}
	}
	fmt.Println(experiments.F3Header)
	for _, n := range sizes {
		row, err := experiments.RunF3(n, timing, seed)
		if err != nil {
			return err
		}
		fmt.Println(row)
	}
	return nil
}

func runE1(timing experiments.Timing, seed int64, quick bool) error {
	header("E1 — view changes to absorb m members",
		"§5: two m-member partitions merging cost m view changes per side under Isis's grow-by-one rule, when one suffices")
	ms := []int{2, 4, 8, 16}
	if quick {
		ms = []int{2, 4}
	}
	fmt.Println(experiments.E1Header)
	for _, m := range ms {
		row, err := experiments.RunE1(m, timing, seed)
		if err != nil {
			return err
		}
		fmt.Println(row)
	}
	return nil
}

func runE2(timing experiments.Timing, seed int64, quick bool) error {
	header("E2 — classifying the shared state problem after a repair",
		"§4: flat views classify 'only through complex and costly protocols'; §6.2: enriched views classify locally")
	ns := []int{3, 5, 7, 9}
	if quick {
		ns = []int{3, 5}
	}
	fmt.Println(experiments.E2Header)
	for _, n := range ns {
		row, err := experiments.RunE2(n, timing, seed)
		if err != nil {
			return err
		}
		fmt.Println(row)
	}
	return nil
}

func runE3(timing experiments.Timing, seed int64, quick bool) error {
	header("E3 — state transfer strategies vs state size",
		"§5: blocking view installation during transfer 'might be infeasible'; split the state into a small synchronous piece and a concurrent bulk")
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	if quick {
		sizes = []int{64 << 10, 1 << 20}
	}
	fmt.Println(experiments.E3Header)
	for _, size := range sizes {
		for _, strat := range []transfer.Strategy{transfer.Blocking, transfer.Split} {
			row, err := experiments.RunE3(size, strat, timing, seed)
			if err != nil {
				return err
			}
			fmt.Println(row)
		}
	}
	return nil
}

func runE4(timing experiments.Timing, seed int64, _ bool) error {
	header("E4 — incidence of the shared state problems",
		"§4: necessary conditions for transfer / creation / merging; primary partitions never merge")
	rows, err := experiments.RunE4(timing, seed)
	if err != nil {
		return err
	}
	fmt.Println(experiments.E4Header)
	ok := true
	for _, r := range rows {
		fmt.Println(r)
		if r.Detected != r.Expected {
			ok = false
		}
	}
	fmt.Printf("all scenarios classified as expected: %v\n", ok)
	return nil
}

func runE6(timing experiments.Timing, seed int64, quick bool) error {
	header("E6 — write availability under false-suspicion churn (ablation)",
		"§2: false suspicions are indistinguishable from failures; each one costs a view change and a reconciliation")
	gaps := []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, time.Second}
	window := 3 * time.Second
	if quick {
		gaps = []time.Duration{200 * time.Millisecond}
		window = 2 * time.Second
	}
	fmt.Println(experiments.E6Header)
	for _, gap := range gaps {
		for _, enriched := range []bool{false, true} {
			row, err := experiments.RunE6(gap, window, enriched, timing, seed)
			if err != nil {
				return err
			}
			fmt.Println(row)
		}
	}
	return nil
}

func runE7(timing experiments.Timing, seed int64, quick bool) error {
	header("E7 — static vs adaptive suspicion timeouts under delay jitter (ablation)",
		"§2: failure detectors need only be eventually accurate; false suspicions are failures, so the timeout must track the network instead of being provisioned for it")
	jitters := []time.Duration{time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond}
	window := 1500 * time.Millisecond
	if quick {
		jitters = []time.Duration{25 * time.Millisecond}
		window = time.Second
	}
	fmt.Println(experiments.E7Header)
	for _, jitter := range jitters {
		for _, adaptive := range []bool{false, true} {
			row, err := experiments.RunE7(jitter, window, adaptive, timing, seed)
			if err != nil {
				return err
			}
			fmt.Println(row)
		}
	}
	return nil
}

func runE8(timing experiments.Timing, seed int64, quick bool) error {
	header("E8 — view-agreement latency under churn (span profile)",
		"§4: each change costs a coordinator round with the group blocked between ack and install; overlapping changes force retries that stretch the agree phase")
	gaps := []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, time.Second}
	window := 3 * time.Second
	if quick {
		gaps = []time.Duration{200 * time.Millisecond}
		window = 2 * time.Second
	}
	fmt.Println(experiments.E8Header)
	for _, gap := range gaps {
		row, err := experiments.RunE8(gap, window, timing, seed)
		if err != nil {
			return err
		}
		fmt.Println(row)
	}
	return nil
}

func runE8M(timing experiments.Timing, seed int64, quick bool) error {
	header("E8M — install-propagation mismatch: reconcile fast path vs re-proposal (ablation)",
		"§4: the install is already agreed; re-delivering it to a lagging member needs no new round — re-proposing there is pure protocol overhead")
	cycles := 8
	if quick {
		cycles = 4
	}
	fmt.Println(experiments.E8MismatchHeader)
	for _, reconcile := range []bool{true, false} {
		row, err := experiments.RunE8Mismatch(cycles, reconcile, timing, seed)
		if err != nil {
			return err
		}
		fmt.Println(row)
		// The fast path's acceptance gate: with reconciliation on, every
		// manufactured divergence must heal by an install re-send —
		// never a re-proposal round. CI runs `vsbench -exp e8m` for this.
		if reconcile {
			if row.Reproposals > 0 {
				return fmt.Errorf("e8m: %d reproposals with reconciliation enabled (want 0)", row.Reproposals)
			}
			if row.Dropped > 0 && row.Reconciles == 0 {
				return fmt.Errorf("e8m: %d installs dropped but no reconciles recorded", row.Dropped)
			}
		}
	}
	return nil
}

func runE9(timing experiments.Timing, seed int64, quick bool) error {
	header("E9 — time in reduced mode under partition churn",
		"Figure 1 / §3: a quorum object without its write quorum serves reads only (R-mode); residency there is the user-visible cost of partitions")
	gaps := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond}
	window := 2 * time.Second
	if quick {
		gaps = []time.Duration{100 * time.Millisecond}
		window = 1500 * time.Millisecond
	}
	fmt.Println(experiments.E9Header)
	for _, gap := range gaps {
		for _, enriched := range []bool{false, true} {
			row, err := experiments.RunE9(gap, window, enriched, timing, seed)
			if err != nil {
				return err
			}
			fmt.Println(row)
		}
	}
	return nil
}
