package gobject

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
)

// Pending is the reply table of an object's request/reply operations
// (a write waiting for its sequenced copy, an acquire waiting for the
// grant): operation id → reply channel. Each operation is tagged with
// the view it was sent in; a view change fails the ones of older views
// with the object's retryable error — the view that carried the request
// is gone and so, possibly, is the request — and leaves alone those
// already sent in the new view by a caller that saw it before the
// object's event loop did. Safe for concurrent use.
type Pending struct {
	retry, closed error

	mu   sync.Mutex
	next uint64
	ops  map[string]pendingOp
}

type pendingOp struct {
	view  ids.ViewID
	reply chan error
}

// NewPending returns an empty table. retry is the error of an operation
// interrupted by a view change or not answered in time, closed the error
// once the process has shut down.
func NewPending(retry, closed error) *Pending {
	return &Pending{retry: retry, closed: closed, ops: make(map[string]pendingOp)}
}

// Do runs one operation: it registers a fresh id under p's current view,
// calls send with both (send transmits the request, carrying the id), and
// waits for Resolve, a view change, the timeout or the end of p.
func (t *Pending) Do(p *core.Process, timeout time.Duration, send func(op string, view core.EView) error) error {
	view := p.CurrentView()
	op, reply := t.begin(p.PID(), view.ID)
	defer t.Resolve(op, nil) // forgets an operation that timed out

	if err := send(op, view); err != nil {
		return err
	}
	select {
	case err := <-reply:
		return err
	case <-time.After(timeout):
		return t.retry
	case <-p.Done():
		return t.closed
	}
}

func (t *Pending) begin(self ids.PID, view ids.ViewID) (string, chan error) {
	reply := make(chan error, 1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	op := fmt.Sprintf("%v/%d", self, t.next)
	t.ops[op] = pendingOp{view: view, reply: reply}
	return op, reply
}

// Resolve completes op with err (nil for success); unknown ids — already
// resolved, failed or timed out — are ignored.
func (t *Pending) Resolve(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if o, ok := t.ops[op]; ok {
		delete(t.ops, op)
		o.reply <- err
	}
}

// FailOlder fails every operation sent in a view older than v; objects
// call it from ViewChange.
func (t *Pending) FailOlder(v ids.ViewID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for op, o := range t.ops {
		if o.view.Less(v) {
			delete(t.ops, op)
			o.reply <- t.retry
		}
	}
}
