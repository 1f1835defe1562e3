package gobject

import (
	"errors"
	"testing"

	"repro/internal/ids"
)

// TestPendingFailsOnlyOlderViews pins the interleaving behind the
// "Write returns ErrTimeout for a write that then applies" papercut:
// the process has installed v2 and a caller has already sent its request
// in v2 when the object's event loop reads ViewEvent(v2). That operation
// must survive the view change; one sent in v1 must not.
func TestPendingFailsOnlyOlderViews(t *testing.T) {
	errRetry, errClosed := errors.New("retry"), errors.New("closed")
	self := ids.PID{Site: "a", Inc: 1}
	v1 := ids.ViewID{Epoch: 1, Coord: self}
	v2 := ids.ViewID{Epoch: 2, Coord: self}
	v3 := ids.ViewID{Epoch: 3, Coord: self}

	tab := NewPending(errRetry, errClosed)
	opOld, old := tab.begin(self, v1)
	opNew, cur := tab.begin(self, v2)
	if opOld == opNew {
		t.Fatalf("operation ids collide: %q", opOld)
	}

	tab.FailOlder(v2)
	select {
	case err := <-old:
		if err != errRetry {
			t.Fatalf("operation of v1 failed with %v, want the retryable error", err)
		}
	default:
		t.Fatal("operation sent in v1 survived the change to v2")
	}
	select {
	case err := <-cur:
		t.Fatalf("operation sent in v2 was failed by the change to v2: %v", err)
	default:
	}

	// The sequenced reply arrives: the survivor completes, and a late
	// duplicate or a reply for the failed one is ignored.
	tab.Resolve(opNew, nil)
	tab.Resolve(opNew, errRetry)
	tab.Resolve(opOld, nil)
	if err := <-cur; err != nil {
		t.Fatalf("resolved operation returned %v", err)
	}

	// The next view change fails what v2 left unanswered.
	_, stale := tab.begin(self, v2)
	tab.FailOlder(v3)
	if err := <-stale; err != errRetry {
		t.Fatalf("unanswered v2 operation got %v at v3", err)
	}
}
