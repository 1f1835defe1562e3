package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPushPopFIFO(t *testing.T) {
	q := New[int]()
	for i := 0; i < 10; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) failed on open queue", i)
		}
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d,true", v, ok, i)
		}
	}
}

func TestTryPopEmpty(t *testing.T) {
	q := New[string]()
	if _, ok := q.TryPop(); ok {
		t.Error("TryPop on empty queue returned ok")
	}
	q.Push("x")
	if v, ok := q.TryPop(); !ok || v != "x" {
		t.Errorf("TryPop = %q,%v", v, ok)
	}
}

func TestPopBlocksUntilPush(t *testing.T) {
	q := New[int]()
	done := make(chan int, 1)
	go func() {
		v, _ := q.Pop()
		done <- v
	}()
	select {
	case v := <-done:
		t.Fatalf("Pop returned %d before any Push", v)
	case <-time.After(20 * time.Millisecond):
	}
	q.Push(7)
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("Pop = %d, want 7", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Pop did not wake after Push")
	}
}

func TestCloseSemantics(t *testing.T) {
	q := New[int]()
	q.Push(1)
	q.Close()
	q.Close() // idempotent
	if q.Push(2) {
		t.Error("Push succeeded on closed queue")
	}
	if !q.Closed() {
		t.Error("Closed() = false after Close")
	}
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Errorf("Pop after close = %d,%v; want 1,true (drain remaining)", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on closed drained queue returned ok")
	}
}

func TestCloseWakesBlockedPop(t *testing.T) {
	q := New[int]()
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Pop returned ok=true from closed empty queue")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake blocked Pop")
	}
}

func TestDrain(t *testing.T) {
	q := New[int]()
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	got := q.Drain()
	if len(got) != 5 || q.Len() != 0 {
		t.Fatalf("Drain returned %v, Len=%d", got, q.Len())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("Drain[%d] = %d", i, v)
		}
	}
}

func TestRingWrapsGrowsAndDrainsInOrder(t *testing.T) {
	// Keep the head away from slot 0 so that growth and Drain both meet
	// a wrapped ring.
	q := New[int]()
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, ok := q.TryPop()
			if !ok || v != want {
				t.Fatalf("TryPop = %d,%v; want %d,true", v, ok, want)
			}
			want++
		}
	}
	push(minRing)
	pop(minRing - 3)
	push(minRing - 5) // wraps, not full
	push(40)          // grows while wrapped, twice
	pop(20)
	if got := q.Len(); got != next-want {
		t.Fatalf("Len = %d, want %d", got, next-want)
	}
	push(3 * keepRing) // past the size an emptied queue keeps
	pop(100)
	for _, v := range q.Drain() {
		if v != want {
			t.Fatalf("Drain yielded %d, want %d", v, want)
		}
		want++
	}
	if want != next || q.Len() != 0 {
		t.Fatalf("Drain stopped at %d of %d, Len=%d", want, next, q.Len())
	}
	push(3 * keepRing)
	pop(3 * keepRing)
	push(1) // usable again after the emptied ring was released
	pop(1)
}

func TestSteadyStatePushPopAllocatesNothing(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ { // a standing backlog, so the ring wraps
		q.Push(i)
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		q.Push(1)
		q.TryPop()
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocates %v times", allocs)
	}
}

func TestWaitSignalsOnPush(t *testing.T) {
	q := New[int]()
	select {
	case <-q.Wait():
		t.Fatal("Wait fired on empty queue")
	default:
	}
	q.Push(1)
	select {
	case <-q.Wait():
	case <-time.After(time.Second):
		t.Fatal("Wait did not fire after Push")
	}
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = %d,%v", v, ok)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const producers, perProducer, consumers = 8, 500, 4
	q := New[int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(p*perProducer + i)
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make([]int, 0, producers*perProducer)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				mu.Lock()
				seen = append(seen, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close()
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", len(seen), producers*perProducer)
	}
	sort.Ints(seen)
	for i, v := range seen {
		if v != i {
			t.Fatalf("missing or duplicated item: seen[%d]=%d", i, v)
		}
	}
}

func TestFIFOProperty(t *testing.T) {
	// Property: single producer, single consumer -> exact order preserved.
	f := func(vals []int32) bool {
		q := New[int32]()
		for _, v := range vals {
			q.Push(v)
		}
		q.Close()
		for _, want := range vals {
			got, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(3)), MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLen(t *testing.T) {
	q := New[int]()
	if q.Len() != 0 {
		t.Fatalf("empty queue Len = %d, want 0", q.Len())
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
		if got := q.Len(); got != i+1 {
			t.Fatalf("after %d pushes: Len = %d", i+1, got)
		}
	}
	for i := 0; i < 40; i++ {
		if _, ok := q.TryPop(); !ok {
			t.Fatalf("TryPop %d failed", i)
		}
	}
	if got := q.Len(); got != 60 {
		t.Fatalf("after 100 pushes and 40 pops: Len = %d, want 60", got)
	}
	q.Close()
	// Close does not drop queued items, so Len is unchanged...
	if got := q.Len(); got != 60 {
		t.Fatalf("after Close: Len = %d, want 60", got)
	}
	// ...and a Push to a closed queue is a no-op for Len too.
	if q.Push(7) {
		t.Fatal("Push succeeded on closed queue")
	}
	if got := q.Len(); got != 60 {
		t.Fatalf("after Push on closed queue: Len = %d, want 60", got)
	}
	q.Drain()
	if got := q.Len(); got != 0 {
		t.Fatalf("after Drain: Len = %d, want 0", got)
	}
}

// BenchmarkLen pins down that Len is O(1) regardless of queue depth:
// it is sampled every protocol tick as the queue-depth health gauge,
// so it must not scan.
func BenchmarkLen(b *testing.B) {
	for _, depth := range []int{0, 1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := New[int]()
			for i := 0; i < depth; i++ {
				q.Push(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if q.Len() != depth {
					b.Fatal("bad length")
				}
			}
		})
	}
}
