package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestTracerSeqAndStamp(t *testing.T) {
	tr := NewTracer(8)
	tr.Append(Event{Type: EvSend, PID: "a#1"})
	tr.Append(Event{Type: EvDeliver, PID: "b#1"})
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].At.IsZero() {
		t.Fatal("At not stamped")
	}
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.Append(Event{Type: EvInstall, At: fixed})
	if got := tr.Events()[2].At; !got.Equal(fixed) {
		t.Fatalf("caller-provided At overwritten: %v", got)
	}
}

// TestTracerWraparound fills a small ring past capacity and checks the
// ring keeps exactly the last capacity events, oldest first, while
// Total and the sinks see the whole stream.
func TestTracerWraparound(t *testing.T) {
	const capacity = 4
	mem := NewMemorySink()
	tr := NewTracer(capacity, mem)
	const total = 11
	for i := 0; i < total; i++ {
		tr.Append(Event{Type: EvSend, Note: fmt.Sprintf("e%d", i)})
	}
	if got := tr.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	if got := tr.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("Events len = %d, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		wantSeq := uint64(total - capacity + 1 + i)
		wantNote := fmt.Sprintf("e%d", total-capacity+i)
		if ev.Seq != wantSeq || ev.Note != wantNote {
			t.Fatalf("ring[%d] = seq %d note %q, want seq %d note %q",
				i, ev.Seq, ev.Note, wantSeq, wantNote)
		}
	}
	if got := len(mem.Events()); got != total {
		t.Fatalf("sink saw %d events, want the full stream of %d", got, total)
	}
}

// TestTracerPartialRing: before wrapping, Events returns only what was
// appended.
func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(16)
	tr.Append(Event{Type: EvSend})
	tr.Append(Event{Type: EvDeliver})
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if evs := tr.Events(); len(evs) != 2 || evs[0].Seq != 1 {
		t.Fatalf("Events = %+v", evs)
	}
}

func TestTracerConcurrentAppend(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	const goroutines, perG = 8, 500
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				tr.Append(Event{Type: EvSend})
			}
		}()
	}
	wg.Wait()
	if got := tr.Total(); got != goroutines*perG {
		t.Fatalf("Total = %d, want %d", got, goroutines*perG)
	}
	// Seqs in the ring must be the last 64, strictly increasing.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring seqs not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestJSONLGolden serializes a fixed sequence of events (deterministic
// timestamps) and compares byte-for-byte with the checked-in golden
// file. Run with -update to regenerate it.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(16, sink)

	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	events := []Event{
		{At: at(0), PID: "a#1", Type: EvSend, Msg: "m1@a#1", View: "v1@a#1"},
		{At: at(1), PID: "b#1", Type: EvDeliver, Msg: "m1@a#1", View: "v1@a#1"},
		{At: at(5), PID: "a#1", Type: EvSuspect, Peer: "c#1", Note: "suspected"},
		{At: at(7), PID: "a#1", Type: EvPropose, View: "v2@a#1", N: 2, Round: 2, Note: "retry"},
		{At: at(8), PID: "b#1", Type: EvAck, View: "v2@a#1", Round: 2},
		{At: at(12), PID: "a#1", Type: EvFlush, View: "v1@a#1", N: 1, DurMS: 0.25},
		{At: at(13), PID: "a#1", Type: EvInstall, View: "v2@a#1", N: 2, Round: 2, Struct: "a#1|b#1"},
		{At: at(20), PID: "a#1", Type: EvEChange, View: "v2@a#1", Kind: "SVSetMerge", N: 1, Note: "ss3/v2@a#1", Struct: "a#1+b#1"},
		{At: at(25), PID: "a#1", Type: EvMode, Kind: "Reconcile", DurMS: 12.5, Note: "S->N"},
		{At: at(30), Type: EvRun, Note: "second scenario"},
	}
	for _, ev := range events {
		tr.Append(ev)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	golden := filepath.Join("testdata", "trace.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL output differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// And every line must round-trip as JSON.
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
	}
}
