package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
)

func TestPercentile(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := s.pct(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := (sample{}).pct(50); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
	if got := (sample{7}).pct(99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {54, 95, 2}, {162, 90, 16}, {0, 99, 0}} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// whose values below were computed with Python 3.
func TestQuartiles(t *testing.T) {
	v := []float64{10, 7, 3, 8, 12, 9, 4, 11, 5, 6}
	q1, q2, q3 := quartiles(v)
	if q1 != 4.75 || q2 != 7.5 || q3 != 10.25 {
		t.Errorf("quartiles = %v %v %v, want 4.75 7.5 10.25", q1, q2, q3)
	}
	s := spreadOf(v)
	if math.Abs(s.IQR-5.5/7.5) > 1e-12 || math.Abs(s.Range-9/7.5) > 1e-12 {
		t.Errorf("spread = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of the root
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerBuildsOneTreePerMulticast(t *testing.T) {
	tr := newTracer(3)
	tr.submit(0, 16, 100, 200)
	for m := 0; m < 3; m++ {
		tr.read(0, 16, m, int64(1000+m))
	}
	o := tr.op(0, 16)
	for m := 1; m < 3; m++ {
		o.sendStart[m], o.sendEnd[m], o.recv[m] = int64(110+m), int64(120+m), int64(500+m)
	}
	tr.submit(1, 32, 100, 200) // never delivered: no spans
	spans := tr.spans()
	if len(spans) != 3+3*2 {
		t.Fatalf("got %d spans, want 9: %+v", len(spans), spans)
	}
	root := spans[0]
	if root.Name != spanMcast || root.Parent != 0 || root.End != 1002 {
		t.Errorf("root = %+v", root)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Op != root.Op {
			t.Errorf("span %+v does not share the root's op %q", s, root.Op)
		}
	}
	for _, s := range spans[1:] {
		top := s
		for top.Parent != 0 {
			top = byID[top.Parent]
		}
		if top.ID != root.ID {
			t.Errorf("span %+v does not nest under the mcast root", s)
		}
	}
}

// logOf builds a member's log from views and (view, sender, seq) deliveries.
type delivery struct {
	view   int
	sender string
	seq    uint64
}

func testView(epoch int, members ...string) core.EView {
	v := core.EView{ID: ids.ViewID{Epoch: uint64(epoch), Coord: ids.PID{Site: "a", Inc: 1}}}
	for _, m := range members {
		v.Members = append(v.Members, ids.PID{Site: m, Inc: 1})
	}
	return v
}

func play(member string, steps ...any) *Log {
	l := NewLog(ids.PID{Site: member, Inc: 1})
	var cur core.EView
	for _, s := range steps {
		switch s := s.(type) {
		case core.EView:
			cur = s
			l.OnView(s)
		case delivery:
			from := ids.PID{Site: s.sender, Inc: 1}
			view := cur.ID
			if s.view != 0 {
				view.Epoch = uint64(s.view)
			}
			l.OnMsg(core.MsgEvent{ID: ids.MsgID{Sender: from, Seq: s.seq}, From: from, View: view})
		}
	}
	return l
}

func TestVerify(t *testing.T) {
	v1, v2 := testView(1, "a", "b"), testView(2, "a", "b")
	live := []ids.PID{{Site: "a", Inc: 1}, {Site: "b", Inc: 1}}
	d := func(sender string, seq uint64) delivery { return delivery{sender: sender, seq: seq} }
	for _, tc := range []struct {
		name string
		logs []*Log
		want string // substring of a violation; "" for a clean run
	}{
		{"clean", []*Log{
			play("a", v1, d("a", 1), d("b", 1), d("a", 2), v2, d("a", 3)),
			play("b", v1, d("b", 1), d("a", 1), d("a", 2), v2, d("a", 3)),
		}, ""},
		{"duplicate", []*Log{
			play("a", v1, d("a", 1), d("a", 1), v2),
			play("b", v1, d("a", 1), v2),
		}, "P2.3"},
		{"out of order", []*Log{
			play("a", v1, d("b", 2), d("b", 1), v2),
			play("b", v1, d("b", 1), d("b", 2), v2),
		}, "FIFO"},
		{"delivered outside its view", []*Log{
			play("a", v1, d("a", 1), v2, delivery{view: 1, sender: "a", seq: 2}),
			play("b", v1, d("a", 1), v2),
		}, "P2.2"},
		{"same message in two views", []*Log{
			play("a", v1, d("a", 1), d("a", 2), v2),
			play("b", v1, d("a", 1), v2, d("a", 2)),
		}, "P2.2"},
		{"disagreeing sets", []*Log{
			play("a", v1, d("a", 1), d("a", 2), v2),
			play("b", v1, d("a", 1), v2),
		}, "P2.1"},
		{"not converged", []*Log{
			play("a", v1, v2),
			play("b", v1),
		}, "converged"},
	} {
		got := Verify(tc.logs, live)
		switch {
		case tc.want == "" && len(got) > 0:
			t.Errorf("%s: unexpected violations %v", tc.name, got)
		case tc.want != "" && !strings.Contains(strings.Join(got, "\n"), tc.want):
			t.Errorf("%s: violations %v do not mention %s", tc.name, got, tc.want)
		}
	}
}

// TestViolationsFailTheRun shows that a run whose verifier found a
// violation counts it as a failure and makes the process exit non-zero
// (run returns an error exactly when main exits 1).
func TestViolationsFailTheRun(t *testing.T) {
	res := newResult("x")
	res.Attempted = 10
	res.Violations = Verify([]*Log{play("a", testView(1, "a"), delivery{sender: "a", seq: 1}, delivery{sender: "a", seq: 1})}, nil)
	res.finish()
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want the violation counted", res.Failed)
	}
	if line := contractLine(workloads[0], res, false); line.Correct || line.Metrics["ok_frac"].Value >= 1 {
		t.Errorf("contract line of a violating run: %+v", line)
	}
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{name: "x", run: func(string, cfg) (*result, error) {
		r := newResult("x")
		r.Violations = []string{"P2.3: injected"}
		return r, nil
	}}}
	if err := run("x", cfg{seconds: 1, setups: 1}, false, 1, ""); err != errViolations {
		t.Errorf("run of a violating workload returned %v, want errViolations", err)
	}
}

// TestQuickSmoke runs every workload for two seconds: the benchmark must
// keep building, running and verifying as the packages it drives change.
// It checks outputs, not speeds.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads for 2 s each")
	}
	c := cfg{seed: 1, quick: true, seconds: 2, setups: 1}
	for _, w := range workloads {
		res, err := runOne(w, c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%s: violations %v", w.name, res.Violations)
		}
		line := contractLine(w, res, false)
		for _, def := range endToEndDefs {
			if v := line.Metrics[def.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", w.name, def.name, v)
			}
		}
	}
}

func TestWireSamplesRoundTrip(t *testing.T) {
	pkts := samplePackets()
	if len(pkts) != 7 {
		t.Fatalf("%d sample packets, want the seven wire kinds", len(pkts))
	}
	if err := roundTrip(pkts); err != nil {
		t.Fatal(err)
	}
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the metric lists")

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

var workloadWhy = map[string]string{
	"mcast-sim-n4":   "data path with the network made cheap: core loop, clock, eventq and simnet do all the work, wire and udp none",
	"mcast-udp-n4":   "the same load over loopback UDP adds wire encode/decode, coalescing, syscalls and the transport mutex",
	"churn-sim-n8":   "membership path (propose/ack/flush/install, fd, evs.Compose) at twice the group size, under background traffic",
	"repfile-udp-n3": "the paper's replicated file end to end: unicast + multicast + JSON envelopes + mode machine + state transfer, KiB frames",
}

// TestBenchmarkJSON keeps the contract file at the repository root in
// step with the metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, map[string]any{"name": w.name, "why": workloadWhy[w.name]})
	}
	for _, d := range endToEndDefs {
		want.EndToEnd = append(want.EndToEnd, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayerDefs {
		want.PerLayer = append(want.PerLayer, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	const path = "../../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("%s is out of step with bench/vsperf/metrics.go; run go test ./bench/vsperf -run TestBenchmarkJSON -update", path)
	}
}
