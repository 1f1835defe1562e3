package tracecheck

import (
	"errors"

	"repro/internal/obs"
)

// Recorder is the live-run adapter to the checker suite: an
// obs.Collector tracing into memory, so a core.Observer to attach as
// Options.Observer on every process (a group-object host's mode steps
// reach it the same way), plus the verdict over what it saw.
// Harnesses running several simulations through one Recorder separate
// them with MarkRun.
type Recorder struct {
	*obs.Collector
	mem *obs.MemorySink
}

// NewRecorder returns a recorder with an empty trace.
func NewRecorder() *Recorder {
	mem := obs.NewMemorySink()
	// The sink keeps the whole stream; the tracer's own ring is never read.
	return &Recorder{Collector: obs.NewCollector(nil, obs.NewTracer(1, mem)), mem: mem}
}

// Report runs the default checker suite over everything recorded so far.
func (r *Recorder) Report() Report { return Check(r.mem.Events()) }

// Verify is Report reduced to its violations, one error each; nil means
// every property held.
func (r *Recorder) Verify() []error {
	var errs []error
	for _, v := range r.Report().Violations {
		errs = append(errs, errors.New(v.String()))
	}
	return errs
}
