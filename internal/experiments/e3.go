package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transfer"
	"repro/internal/vstest"
)

// E3Row is one row of experiment E3 (Section 5's discussion of state
// transfer for large states): under the Blocking strategy the joiner
// resumes external operations only after the whole state arrived, so
// resume time grows with state size; under Split a small critical piece
// arrives first and the bulk streams concurrently, keeping resume time
// flat.
type E3Row struct {
	// StateBytes is the bulk state size.
	StateBytes int
	Strategy   transfer.Strategy
	// TimeToResume is when the joiner could resume externals: full
	// completion for Blocking, critical-piece application for Split.
	TimeToResume time.Duration
	// TimeToFull is when the complete state was applied.
	TimeToFull time.Duration
	// Chunks is the number of bulk chunks shipped.
	Chunks int
}

// e3App is the donor/joiner state: a blob plus a tiny header.
type e3App struct {
	mu       sync.Mutex
	critical []byte
	bulk     []byte
}

func (a *e3App) MarshalCritical() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte{}, a.critical...), nil
}

func (a *e3App) MarshalBulk() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte{}, a.bulk...), nil
}

func (a *e3App) ApplyCritical(b []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.critical = append([]byte{}, b...)
	return nil
}

func (a *e3App) ApplyBulk(b []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bulk = append([]byte{}, b...)
	return nil
}

// E3Bandwidth is the modeled receiver-link bandwidth for E3 (bytes/sec):
// large enough that protocol chatter is free, small enough that bulk
// state has a visible cost.
const E3Bandwidth = 16 << 20 // 16 MB/s

// RunE3 measures one (size, strategy) cell.
func RunE3(stateBytes int, strategy transfer.Strategy, timing Timing, seed int64) (E3Row, error) {
	const chunkSize = 4096
	row := E3Row{StateBytes: stateBytes, Strategy: strategy}
	e := timing.newEnv(fmt.Sprintf("e3 %d bytes %v", stateBytes, strategy), seed,
		func(c *simnet.Config) { c.Bandwidth = E3Bandwidth })
	defer e.close()
	// Bulk chunks serialize ahead of heartbeats on the joiner's ingress
	// link; scale the suspicion timeout past the worst-case transfer time
	// or the failure detector would misread a busy link as a crash (the
	// very confusion the paper's system model describes).
	stateTime := time.Duration(float64(stateBytes) / float64(E3Bandwidth) * float64(time.Second))
	if floor := 2*stateTime + 100*time.Millisecond; timing.SuspectAfter < floor {
		timing.SuspectAfter = floor
		timing.ProposeTimeout = floor
	}
	opts := timing.Options("e3", true)

	donor, err := timing.Start(e.fabric, e.reg, "donor", opts)
	if err != nil {
		return row, err
	}
	joiner, err := timing.Start(e.fabric, e.reg, "joiner", opts)
	if err != nil {
		return row, err
	}
	if _, err := vstest.Converged([]*core.Process{donor, joiner}, 15*time.Second); err != nil {
		return row, err
	}

	donorApp := &e3App{critical: []byte("header"), bulk: bytes.Repeat([]byte{0xAB}, stateBytes)}
	joinerApp := &e3App{}
	toolOpts := transfer.Options{Strategy: strategy, ChunkSize: chunkSize}
	donorTool := transfer.New(donor, donorApp, toolOpts)
	joinerTool := transfer.New(joiner, joinerApp, toolOpts)

	// Donor side serves requests from its event stream.
	go func() {
		for ev := range donor.Events() {
			if m, ok := ev.(core.MsgEvent); ok {
				_, _, _ = donorTool.HandleMessage(m)
			}
		}
	}()

	type timings struct {
		resume, full time.Duration
		chunks       int
	}
	result := make(chan timings, 1)
	fail := make(chan error, 1)
	var startAt atomic.Int64 // UnixNano of the (latest) request
	startAt.Store(time.Now().UnixNano())
	since := func() time.Duration {
		return time.Duration(time.Now().UnixNano() - startAt.Load())
	}
	go func() {
		var resume time.Duration
		for ev := range joiner.Events() {
			m, ok := ev.(core.MsgEvent)
			if !ok {
				continue
			}
			pr, handled, err := joinerTool.HandleMessage(m)
			if err != nil {
				fail <- err
				return
			}
			if !handled {
				continue
			}
			if strategy == transfer.Split && pr.CriticalDone && resume == 0 {
				resume = since()
			}
			if pr.Done {
				full := since()
				if resume == 0 {
					resume = full // Blocking: resume == full arrival
				}
				result <- timings{resume: resume, full: full, chunks: pr.Total}
				return
			}
		}
		fail <- fmt.Errorf("joiner events closed before completion")
	}()

	if err := joinerTool.Request(donor.PID()); err != nil {
		return row, err
	}
	// A view change (e.g. a scheduler stall under load tripping the
	// failure detector) aborts an in-flight transfer; the application
	// contract is to re-request, so the experiment does the same.
	retryEvery := 3*stateTime + 500*time.Millisecond
	retry := time.NewTicker(retryEvery)
	defer retry.Stop()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case tm := <-result:
			row.TimeToResume = tm.resume
			row.TimeToFull = tm.full
			row.Chunks = tm.chunks
			donor.Leave()
			joiner.Leave()
			return row, nil
		case err := <-fail:
			return row, err
		case <-retry.C:
			startAt.Store(time.Now().UnixNano()) // measure the clean retry
			if err := joinerTool.Request(donor.PID()); err != nil {
				return row, fmt.Errorf("re-request: %w", err)
			}
		case <-deadline:
			return row, fmt.Errorf("transfer timed out (%d bytes, %v)", stateBytes, strategy)
		}
	}
}

// E3Header is the column header line for E3 tables.
const E3Header = "state bytes | strategy | time-to-resume | time-to-full | chunks"

// String renders the row under E3Header.
func (r E3Row) String() string {
	return fmt.Sprintf("%11d | %8v | %14v | %12v | %6d",
		r.StateBytes, r.Strategy,
		r.TimeToResume.Round(10*time.Microsecond),
		r.TimeToFull.Round(10*time.Microsecond), r.Chunks)
}
