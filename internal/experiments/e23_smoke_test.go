package experiments

import (
	"testing"

	"repro/internal/transfer"
)

func TestE2Smoke(t *testing.T) {
	row, err := RunE2(5, checkedTiming(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s\n%s", E2Header, row)
	if !row.Agreement {
		t.Error("classifiers disagree")
	}
}

func TestE3Smoke(t *testing.T) {
	timing := checkedTiming(t)
	for _, strat := range []transfer.Strategy{transfer.Blocking, transfer.Split} {
		row, err := RunE3(1<<20, strat, timing, 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s\n%s", E3Header, row)
	}
}
