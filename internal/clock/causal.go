package clock

import (
	"slices"

	"repro/internal/ids"
)

// CausalMsg is the interface the causal buffer needs from a message: who
// multicast it and with what vector timestamp.
type CausalMsg interface {
	CausalSender() ids.PID
	CausalStamp() Vector
}

// CausalBuffer implements causal-order delivery within a fixed membership
// (one view), using the Birman–Schiper–Stephenson condition: a message m
// multicast by p with stamp V is deliverable at q once q has delivered
// every message that causally precedes m, i.e. V[p] == seen[p]+1 and
// V[r] <= seen[r] for all r != p.
//
// The condition releases each sender's messages in the order of their own
// component, without gaps, so seen[p] is also the exact record of which
// of p's messages were delivered: those with V[p] <= seen[p]. Offer uses
// that to suppress duplicates; no per-message set is kept.
//
// The buffer is not safe for concurrent use; the protocol engine confines
// it to its event loop. A fresh buffer is created at every view install
// (causal order, like the other delivery guarantees, is per-view).
type CausalBuffer[M CausalMsg] struct {
	seen    Vector
	pending []M
	// out is the batch Offer returns, reused by the next call.
	out []M
}

// NewCausalBuffer returns a buffer with an all-zero delivered vector.
func NewCausalBuffer[M CausalMsg]() *CausalBuffer[M] {
	return &CausalBuffer[M]{seen: NewVector()}
}

// Seen returns the vector of messages delivered so far (do not mutate).
func (b *CausalBuffer[M]) Seen() Vector { return b.seen }

// Pending returns the number of buffered undeliverable messages.
func (b *CausalBuffer[M]) Pending() int { return len(b.pending) }

// Offer submits a received message and returns the (possibly empty) batch
// of messages that became deliverable, in causal order. The caller must
// deliver them in the returned order, and before the next Offer: the
// batch's backing array is reused. A message is rejected — nothing is
// buffered or returned for it — when it duplicates one already delivered
// (its sender component is not above seen) or one still pending.
func (b *CausalBuffer[M]) Offer(m M) []M {
	sender := m.CausalSender()
	t := m.CausalStamp()[sender]
	if t <= b.seen[sender] {
		return nil
	}
	for _, p := range b.pending {
		if p.CausalSender() == sender && p.CausalStamp()[sender] == t {
			return nil
		}
	}
	if !b.deliverable(m) {
		b.pending = append(b.pending, m)
		return nil
	}
	clear(b.out) // drop the previous batch's references
	b.out = b.out[:0]
	b.release(m)
	for progressed := len(b.pending) > 0; progressed; {
		progressed = false
		for i := 0; i < len(b.pending); i++ {
			if msg := b.pending[i]; b.deliverable(msg) {
				b.pending = slices.Delete(b.pending, i, i+1)
				b.release(msg)
				progressed = true
				i--
			}
		}
	}
	return b.out
}

// release moves a deliverable message to the batch. deliverable has just
// shown every other component of its stamp to be covered by seen, so only
// the sender's component moves.
func (b *CausalBuffer[M]) release(m M) {
	s := m.CausalSender()
	b.seen[s] = m.CausalStamp()[s]
	b.out = append(b.out, m)
}

// RecordLocal notes a locally multicast (self-delivered) message's stamp so
// that subsequent remote messages depending on it become deliverable.
func (b *CausalBuffer[M]) RecordLocal(stamp Vector) {
	b.seen.Merge(stamp)
}

// Drain returns and removes every still-undeliverable message. Called at
// view changes; the flush protocol decides their fate.
func (b *CausalBuffer[M]) Drain() []M {
	out := b.pending
	b.pending = nil
	return out
}

func (b *CausalBuffer[M]) deliverable(m M) bool {
	sender := m.CausalSender()
	stamp := m.CausalStamp()
	for p, t := range stamp {
		if p == sender {
			if t != b.seen[p]+1 {
				return false
			}
			continue
		}
		if t > b.seen[p] {
			return false
		}
	}
	return true
}

// ConsistentCut reports whether the given per-process vector timestamps
// form a consistent cut: no process's cut state reflects an event that
// another process's cut state has not yet sent. Formally, for processes
// p and q with cut vectors Vp and Vq, we need Vq[p] <= Vp[p]: q must not
// have seen more of p's events than p itself had at the cut.
//
// The trace checker uses this to verify Property 6.2 (e-view changes
// define consistent cuts) from recorded stamps.
func ConsistentCut(cut map[ids.PID]Vector) bool {
	for p, vp := range cut {
		own := vp.Get(p)
		for _, vq := range cut {
			if vq.Get(p) > own {
				return false
			}
		}
	}
	return true
}
