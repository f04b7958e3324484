// Package sched provides host-side job scheduling for the co-processor.
// Because reconfiguration dominates the cost of switching functions, the
// order the host drains its job queue in changes total latency by large
// factors (the dsppipeline example shows 30× fewer frame loads from
// batching alone). Three online policies bracket the trade-off between
// throughput and fairness:
//
//   - fifo: submission order — maximal fairness, maximal thrash.
//   - sticky: keep serving jobs for the currently resident function as
//     long as any are pending, then move on — minimal reconfigurations,
//     unbounded delay for unlucky jobs.
//   - window(W): like sticky but only looks W jobs ahead and ages the
//     queue head, making it starvation-free — the practical middle
//     ground.
//
// Schedulers are online pickers: given the pending queue and the set of
// functions currently on the fabric, pick the next job. They never see
// the future.
package sched

import (
	"fmt"
)

// Job is one queued co-processor request.
type Job struct {
	// Fn is the target function id.
	Fn uint16
	// Input is the payload.
	Input []byte
	// Seq is the submission index, used for fairness accounting.
	Seq int
}

// Picker selects the next job to serve.
type Picker interface {
	Name() string
	// Next returns the index into pending of the job to serve now.
	// pending is never empty; resident reports whether a function is
	// currently configured on the fabric.
	Next(pending []Job, resident func(fn uint16) bool) int
}

// Names lists the available scheduler names.
func Names() []string { return []string{"fifo", "sticky", "window"} }

// New constructs the named picker. window uses lookahead 16; use
// NewWindow for other depths.
func New(name string) (Picker, error) {
	switch name {
	case "fifo":
		return FIFO{}, nil
	case "sticky":
		return Sticky{}, nil
	case "window":
		return NewWindow(16)
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", name)
	}
}

// FIFO serves jobs strictly in submission order.
type FIFO struct{}

// Name implements Picker.
func (FIFO) Name() string { return "fifo" }

// Next implements Picker.
func (FIFO) Next(pending []Job, resident func(fn uint16) bool) int { return 0 }

// Sticky serves any pending job whose function is already resident,
// preferring the oldest; only when nothing matches does it take the head
// of the queue (paying a reconfiguration).
type Sticky struct{}

// Name implements Picker.
func (Sticky) Name() string { return "sticky" }

// Next implements Picker.
func (Sticky) Next(pending []Job, resident func(fn uint16) bool) int {
	for i, j := range pending {
		if resident(j.Fn) {
			return i
		}
	}
	return 0
}

// Window is Sticky with bounded lookahead *and aging*: only the first
// `depth` pending jobs are candidates, and once the job at the head of
// the queue has been skipped `depth` times it is served unconditionally.
// The aging rule is what makes the scheduler starvation-free — lookahead
// alone is not, because the head can be skipped indefinitely as matching
// jobs keep arriving behind it (the first measurement of this scheduler
// showed exactly that pathology). The guarantee is per-head: a job waits
// at most `depth` skips once it reaches the head, so its total
// overtaking is bounded by depth × its initial queue position, where
// Sticky's is unbounded.
type Window struct {
	depth     int
	headSeq   int
	headSkips int
	primed    bool
}

// NewWindow returns a Window picker with the given lookahead depth.
func NewWindow(depth int) (*Window, error) {
	if depth < 1 {
		return nil, fmt.Errorf("sched: window depth %d must be >= 1", depth)
	}
	return &Window{depth: depth}, nil
}

// Name implements Picker.
func (w *Window) Name() string { return "window" }

// Next implements Picker.
func (w *Window) Next(pending []Job, resident func(fn uint16) bool) int {
	head := pending[0].Seq
	if !w.primed || head != w.headSeq {
		w.headSeq, w.headSkips, w.primed = head, 0, true
	}
	if w.headSkips >= w.depth {
		w.headSkips = 0
		w.primed = false
		return 0
	}
	limit := w.depth
	if limit > len(pending) {
		limit = len(pending)
	}
	for i := 0; i < limit; i++ {
		if resident(pending[i].Fn) {
			if i != 0 {
				w.headSkips++
			}
			return i
		}
	}
	return 0
}

// Run drains the queue through serve (which executes one job and reports
// whether it hit the fabric), returning the service order and the worst
// overtaking any job suffered (served position minus submission index).
func Run(jobs []Job, p Picker, resident func(fn uint16) bool, serve func(Job) error) (order []int, maxDisplacement int, err error) {
	pending := append([]Job(nil), jobs...)
	pos := 0
	for len(pending) > 0 {
		i := p.Next(pending, resident)
		if i < 0 || i >= len(pending) {
			return nil, 0, fmt.Errorf("sched: %s picked %d of %d pending", p.Name(), i, len(pending))
		}
		job := pending[i]
		pending = append(pending[:i], pending[i+1:]...)
		if err := serve(job); err != nil {
			return nil, 0, fmt.Errorf("sched: serving job %d (fn %d): %w", job.Seq, job.Fn, err)
		}
		order = append(order, job.Seq)
		if d := pos - job.Seq; d > maxDisplacement {
			maxDisplacement = d
		}
		pos++
	}
	return order, maxDisplacement, nil
}
