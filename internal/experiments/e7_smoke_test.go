package experiments

import (
	"testing"
	"time"
)

// TestE7Smoke runs the high-jitter cell of the static-vs-adaptive
// ablation and checks the regression signals with wide margins (the
// strict static-vs-adaptive comparison lives in vsbench/EXPERIMENTS.md;
// single-count differences here are wall-clock noise under test load):
// the adaptive timeout must have widened past the static one — under
// 25 ms jitter the silence tail is well above 18 ms — and false
// suspicions must stay an order of magnitude below the plain-EWMA
// failure mode (~100+/s, mean timeout ~12 ms; see estimator.go).
func TestE7Smoke(t *testing.T) {
	jitter := 25 * time.Millisecond
	window := time.Second
	timing := checkedTiming(t)
	static, err := RunE7(jitter, window, false, timing, 42)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunE7(jitter, window, true, timing, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s\n%s\n%s", E7Header, static, adaptive)
	if adaptive.MeanTimeout <= static.MeanTimeout {
		t.Errorf("adaptive mean timeout (%v) did not widen past static (%v) under %v jitter",
			adaptive.MeanTimeout, static.MeanTimeout, jitter)
	}
	if adaptive.FalseSuspicions > 10 {
		t.Errorf("adaptive false suspicions (%d) under %v jitter: estimator under-covering the silence tail",
			adaptive.FalseSuspicions, jitter)
	}
}
