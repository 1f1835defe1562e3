package experiments

import (
	"testing"
	"time"
)

// TestE8Smoke runs one churn cell and checks the span profile is
// actually populated: injected suspicions must produce profiled view
// changes, every change must resolve (no unclosed spans after
// stabilization), and the end-to-end latency must be non-trivial.
func TestE8Smoke(t *testing.T) {
	row, err := RunE8(200*time.Millisecond, 1500*time.Millisecond, FastTiming(), 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s\n%s", E8Header, row)
	if row.Injections == 0 {
		t.Error("no churn injected")
	}
	if row.Spans == 0 {
		t.Error("no view-change spans profiled")
	}
	if row.Unclosed != 0 {
		t.Errorf("unclosed spans after stabilization: %d", row.Unclosed)
	}
	if row.TotalP95 == 0 {
		t.Error("zero p95 agreement latency: span phase math broken")
	}
}

// TestE9Smoke runs one partition-churn cell and checks R-mode
// residency is measured: each cut puts the two minority replicas into
// R, so entries must track partitions and the dwell must cover a
// meaningful fraction of the hold time.
func TestE9Smoke(t *testing.T) {
	row, err := RunE9(100*time.Millisecond, 1200*time.Millisecond, true, checkedTiming(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s\n%s", E9Header, row)
	if row.Partitions == 0 {
		t.Error("no partitions cut")
	}
	if row.REntries < row.Partitions {
		t.Errorf("R entries (%d) below partition count (%d): minority replicas not entering R",
			row.REntries, row.Partitions)
	}
	if row.TimeInR == 0 {
		t.Error("zero time in R despite partitions")
	}
}
