// Command vstrace runs a seeded random fault schedule against a live
// group, reports what happened, and verifies the paper's properties over
// the recorded trace:
//
//	P2.1 Agreement   P2.2 Uniqueness   P2.3 Integrity      (§2)
//	P6.1 Total order P6.2 Causal cuts  P6.3 Structure      (§6)
//	view order, Figure-1 mode legality, flush discipline
//
// Usage:
//
//	go run ./cmd/vstrace                 # default random schedule
//	go run ./cmd/vstrace -n 6 -steps 40  # bigger group, longer schedule
//	go run ./cmd/vstrace -seed 7         # a different schedule
//	go run ./cmd/vstrace -trace-out trace.jsonl  # structured event stream
//	go run ./cmd/vstrace -analyze trace.jsonl    # offline trace checking
//	go run ./cmd/vstrace -profile trace.jsonl    # latency attribution
//	go run ./cmd/vstrace -diff a.jsonl b.jsonl   # first divergence of two traces
//
// Every process is instrumented with one obs collector; a live run
// feeds its event stream (sends, deliveries, suspicions, proposals,
// installs, e-changes — see the README "Observability" section) through
// the internal/tracecheck suite in-process and prints a one-line
// latency profile. With -trace-out the stream is also written to the
// given file, one JSON object per line.
//
// -analyze reads a JSONL trace back (tolerating a truncated tail),
// reconstructs per-process, per-view timelines, and runs the same
// suite, exiting 1 if any checker finds a violation. -profile reads a
// trace back and attributes latency instead: the per-view phase
// breakdown (detect / agree / flush / install), phase and
// delivery-latency percentiles, and the critical-path member whose ack
// gated each install (see internal/profile); it exits 1 if any
// view-change span never closed. -diff aligns two traces of the same
// scenario (e.g. two seeds) by view lineage and event type and reports
// the first divergence.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/simnet"
	"repro/internal/stable"
	"repro/internal/tracecheck"
	"repro/internal/transport/udp"
)

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 5, "group size")
	steps := flag.Int("steps", 30, "schedule length")
	seed := flag.Int64("seed", 1, "schedule seed")
	traceOut := flag.String("trace-out", "", "write a JSONL trace of protocol events to this file")
	transportName := flag.String("transport", "sim", "network backend for the live schedule: sim (deterministic simulator) or udp (real loopback sockets)")
	analyze := flag.String("analyze", "", "analyze a JSONL trace file instead of running a schedule; exit 1 on violation")
	prof := flag.String("profile", "", "profile a JSONL trace file: per-view phase breakdown, phase/delivery percentiles, critical path; exit 1 on unclosed spans")
	diff := flag.Bool("diff", false, "diff two JSONL trace files (two positional args); report the first divergence")
	adminAddr := flag.String("admin", "", "serve live admin endpoints (/metrics, /status, /trace, /debug/pprof) on this address while the schedule runs, e.g. :9090 (use :0 for an ephemeral port)")
	flag.Parse()
	switch {
	case *analyze != "":
		if err := runAnalyze(*analyze); err != nil {
			log.Fatalf("vstrace: %v", err)
		}
	case *prof != "":
		if err := runProfile(*prof); err != nil {
			log.Fatalf("vstrace: %v", err)
		}
	case *diff:
		if flag.NArg() != 2 {
			log.Fatal("vstrace: -diff needs exactly two trace files")
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatalf("vstrace: %v", err)
		}
	default:
		if *transportName != "sim" && *transportName != "udp" {
			log.Fatalf("vstrace: unknown transport %q (want sim|udp)", *transportName)
		}
		if err := run(*n, *steps, *seed, *traceOut, *transportName, *adminAddr); err != nil {
			log.Fatalf("vstrace: %v", err)
		}
	}
}

// runAnalyze reads a trace file and runs the full checker suite over
// it, returning an error (exit 1) when any violation is found.
func runAnalyze(path string) error {
	events, malformed, err := tracecheck.ReadFile(path)
	if err != nil {
		return err
	}
	rep := tracecheck.Check(events)
	rep.Summary.Malformed = malformed
	rep.Summary.Write(os.Stdout)
	return verdict(rep)
}

// verdict prints the outcome of a checked trace: the properties that
// held, or each violation and an error (exit 1).
func verdict(rep tracecheck.Report) error {
	if rep.OK() {
		var names []string
		for _, c := range tracecheck.DefaultCheckers() {
			names = append(names, c.Name())
		}
		fmt.Printf("no violations: %s all hold\n", strings.Join(names, ", "))
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "VIOLATION: %v\n", v)
	}
	return fmt.Errorf("%d trace violation(s)", len(rep.Violations))
}

// runProfile reads a trace file and prints its latency profile. An
// unclosed span — a view change the trace never saw complete — is an
// error (exit 1): either the trace was truncated mid-change or the run
// ended with membership unresolved.
func runProfile(path string) error {
	rep, err := profile.FromFile(path)
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	if rep.Unclosed > 0 {
		return fmt.Errorf("%d view-change span(s) never closed (truncated trace or unresolved change)", rep.Unclosed)
	}
	return nil
}

// runDiff aligns two traces by view lineage and event type and
// reports the first divergence. A divergence is information, not a
// failure: the exit code stays 0 unless a file cannot be read.
func runDiff(pathA, pathB string) error {
	a, malA, err := tracecheck.ReadFile(pathA)
	if err != nil {
		return err
	}
	b, malB, err := tracecheck.ReadFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (%d events, %d malformed)\nb: %s (%d events, %d malformed)\n",
		pathA, len(a), malA, pathB, len(b), malB)
	d := tracecheck.Diff(a, b)
	if d == nil {
		fmt.Println("traces are equivalent up to schedule-dependent identifiers")
		return nil
	}
	fmt.Println(d)
	return nil
}

func run(n, steps int, seed int64, traceOut, transportName, adminAddr string) error {
	r := rand.New(rand.NewSource(seed))

	// Every run keeps its event stream in memory and feeds it through
	// the tracecheck suite at the end; -trace-out additionally streams
	// it to a JSONL file.
	mem := obs.NewMemorySink()
	sinks := []obs.Sink{mem}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	var jsonl *obs.JSONLSink
	if traceOut != "" {
		var err error
		traceFile, err = os.Create(traceOut)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		traceBuf = bufio.NewWriter(traceFile)
		jsonl = obs.NewJSONLSink(traceBuf)
		sinks = append(sinks, jsonl)
	}
	mreg := obs.NewRegistry()
	tracer := obs.NewTracer(0, sinks...)
	var fabric experiments.NetFabric
	if transportName == "udp" {
		fabric = udp.New(udp.Config{})
	} else {
		fabric = simnet.New(simnet.Config{
			Delay: simnet.NewUniformDelay(50*time.Microsecond, 400*time.Microsecond, seed+1),
			Seed:  seed,
		})
	}
	defer fabric.Close()
	reg := stable.NewRegistry()
	timing := experiments.FastTiming()
	timing.Observer = obs.NewCollector(mreg, tracer)
	if adminAddr != "" {
		srv, err := admin.New(adminAddr, mreg, tracer)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("admin endpoints on http://%s (/metrics /metrics.json /status /trace /debug/pprof)\n", srv.Addr())
		timing.OnStart = func(p *core.Process) {
			srv.Register(p.PID().String(), admin.Member{Status: p.StatusSnapshot})
		}
	}
	opts := timing.Options("trace", true)

	sites := make([]string, n)
	live := make(map[string]*core.Process, n)
	start := func(site string) error {
		p, err := timing.Start(fabric, reg, site, opts)
		if err != nil {
			return err
		}
		go func() {
			for range p.Events() {
			}
		}()
		live[site] = p
		return nil
	}
	for i := 0; i < n; i++ {
		sites[i] = fmt.Sprintf("n%d", i+1)
		if err := start(sites[i]); err != nil {
			return err
		}
	}
	all := func() []*core.Process {
		keys := make([]string, 0, len(live))
		for s := range live {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		out := make([]*core.Process, 0, len(keys))
		for _, s := range keys {
			out = append(out, live[s])
		}
		return out
	}
	if err := converge(all(), 15*time.Second); err != nil {
		return fmt.Errorf("formation: %w", err)
	}
	fmt.Printf("group of %d formed; running %d scheduled steps (seed %d)\n", n, steps, seed)

	partitioned := false
	for step := 0; step < steps; step++ {
		switch r.Intn(9) {
		case 0, 1, 2:
			procs := all()
			p := procs[r.Intn(len(procs))]
			k := 1 + r.Intn(4)
			for i := 0; i < k; i++ {
				_ = p.Multicast([]byte(fmt.Sprintf("m-%d-%d", step, i)))
			}
			fmt.Printf("step %2d: %v multicast %d messages\n", step, p.PID(), k)
		case 3:
			if len(live) > 2 {
				procs := all()
				p := procs[r.Intn(len(procs))]
				delete(live, p.Site())
				p.Crash()
				fmt.Printf("step %2d: crash %v\n", step, p.PID())
			}
		case 4:
			for _, s := range sites {
				if _, ok := live[s]; !ok {
					if err := start(s); err != nil {
						return err
					}
					fmt.Printf("step %2d: recover site %s as %v\n", step, s, live[s].PID())
					break
				}
			}
		case 5:
			if !partitioned {
				cut := 1 + r.Intn(n-1)
				fabric.SetPartitions(sites[:cut], sites[cut:])
				partitioned = true
				fmt.Printf("step %2d: partition %v | %v\n", step, sites[:cut], sites[cut:])
			}
		case 6:
			if partitioned {
				fabric.Heal()
				partitioned = false
				fmt.Printf("step %2d: heal\n", step)
			}
		case 7:
			procs := all()
			p := procs[r.Intn(len(procs))]
			st := p.CurrentView().Structure
			if sss := st.SVSets(); len(sss) >= 2 {
				_ = p.SVSetMerge(sss[0], sss[1])
				fmt.Printf("step %2d: %v requests SV-SetMerge\n", step, p.PID())
			}
		case 8:
			procs := all()
			p := procs[r.Intn(len(procs))]
			st := p.CurrentView().Structure
			if svs := st.Subviews(); len(svs) >= 2 {
				_ = p.SubviewMerge(svs[0], svs[1])
				fmt.Printf("step %2d: %v requests SubviewMerge\n", step, p.PID())
			}
		}
		time.Sleep(time.Duration(r.Intn(25)) * time.Millisecond)
	}

	fabric.Heal()
	if err := converge(all(), 20*time.Second); err != nil {
		return fmt.Errorf("stabilization: %w", err)
	}
	time.Sleep(150 * time.Millisecond)
	for _, p := range all() {
		v := p.CurrentView()
		fmt.Printf("final: %v in view %v %v, structure %v\n", p.PID(), v.ID, v.Members, v.Structure)
	}

	// Stop the processes first: Crash blocks until the protocol loop
	// exits, so no observer callback can race the buffer flush or the
	// in-memory stream handed to the checkers.
	for _, p := range all() {
		p.Crash()
	}
	if traceBuf != nil {
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("flush trace: %w", err)
		}
		if err := jsonl.Err(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("structured trace written to %s\n", traceOut)
	}
	fmt.Println()
	rep := tracecheck.Check(mem.Events())
	rep.Summary.Write(os.Stdout)
	if err := verdict(rep); err != nil {
		return err
	}
	// One-line latency attribution; -profile on the written trace
	// gives the full per-view breakdown.
	prof := profile.FromEvents(mem.Events())
	if c := prof.Phases.Total.Count; c > 0 {
		fmt.Printf("latency: %d view-change spans, total p50/p95/max %v/%v/%v (p95 detect %v, agree %v, flush %v, install %v), %d unclosed\n",
			c, prof.Phases.Total.P50.Round(100*time.Microsecond),
			prof.Phases.Total.P95.Round(100*time.Microsecond),
			prof.Phases.Total.Max.Round(100*time.Microsecond),
			prof.Phases.Detect.P95.Round(100*time.Microsecond),
			prof.Phases.Agree.P95.Round(100*time.Microsecond),
			prof.Phases.Flush.P95.Round(100*time.Microsecond),
			prof.Phases.Install.P95.Round(100*time.Microsecond),
			prof.Unclosed)
	}
	return nil
}

func converge(procs []*core.Process, timeout time.Duration) error {
	want := make(ids.PIDSet, len(procs))
	for _, p := range procs {
		want.Add(p.PID())
	}
	deadline := time.Now().Add(timeout)
	for {
		v0 := procs[0].CurrentView()
		ok := v0.Comp().Equal(want)
		if ok {
			for _, p := range procs[1:] {
				v := p.CurrentView()
				if v.ID != v0.ID || !v.Comp().Equal(want) {
					ok = false
					break
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("convergence timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
