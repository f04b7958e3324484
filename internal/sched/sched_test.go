package sched

import (
	"testing"
)

func jobs(fns ...uint16) []Job {
	out := make([]Job, len(fns))
	for i, fn := range fns {
		out[i] = Job{Fn: fn, Input: []byte{1}, Seq: i}
	}
	return out
}

func TestNew(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Name = %q", p.Name())
		}
	}
	if _, err := New("edf"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := NewWindow(0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := jobs(1, 2, 1, 3)
	resident := set{2: true}.has
	if got := (FIFO{}).Next(q, resident); got != 0 {
		t.Errorf("FIFO picked %d", got)
	}
}

func TestStickyPrefersResident(t *testing.T) {
	q := jobs(1, 2, 1, 2)
	resident := set{2: true}.has
	if got := (Sticky{}).Next(q, resident); got != 1 {
		t.Errorf("Sticky picked %d, want 1 (first resident match)", got)
	}
	// Nothing resident: fall back to the head.
	if got := (Sticky{}).Next(q, set{}.has); got != 0 {
		t.Errorf("Sticky fallback picked %d", got)
	}
}

func TestWindowBoundsLookahead(t *testing.T) {
	w, err := NewWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	q := jobs(1, 3, 2, 2) // resident fn 2 first appears at index 2
	resident := set{2: true}.has
	if got := w.Next(q, resident); got != 0 {
		t.Errorf("window(2) picked %d, want 0 (match outside window)", got)
	}
	w4, _ := NewWindow(4)
	if got := w4.Next(q, resident); got != 2 {
		t.Errorf("window(4) picked %d, want 2", got)
	}
}

func TestWindowAgingBoundsStarvation(t *testing.T) {
	// A head job whose function never becomes resident must be served
	// after at most depth skips, however many matches follow it.
	w, _ := NewWindow(3)
	resident := set{2: true}.has
	// Queue: head fn=1 (never resident), rest fn=2 (always matching).
	q := jobs(1, 2, 2, 2, 2, 2, 2, 2)
	picks := 0
	for {
		i := w.Next(q, resident)
		if q[i].Fn == 1 {
			break
		}
		q = append(q[:i], q[i+1:]...)
		picks++
		if picks > 10 {
			t.Fatal("head starved past the aging bound")
		}
	}
	if picks != 3 {
		t.Errorf("head served after %d skips, want 3 (= depth)", picks)
	}
}

func TestRunServesEveryJobOnce(t *testing.T) {
	q := jobs(1, 2, 1, 2, 3, 1)
	resident := set{}
	var served []uint16
	serve := func(j Job) error {
		// Model a single-slot fabric: serving a function makes it the
		// only resident one.
		for k := range resident {
			delete(resident, k)
		}
		resident[j.Fn] = true
		served = append(served, j.Fn)
		return nil
	}
	order, maxDisp, err := Run(q, Sticky{}, resident.has, serve)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(q) {
		t.Fatalf("served %d of %d", len(order), len(q))
	}
	seen := map[int]bool{}
	for _, s := range order {
		if seen[s] {
			t.Fatalf("job %d served twice", s)
		}
		seen[s] = true
	}
	// Sticky on 1,2,1,2,3,1 with a single slot groups the 1s and the 2s:
	// switches = number of distinct runs must be below FIFO's 6.
	switches := 1
	for i := 1; i < len(served); i++ {
		if served[i] != served[i-1] {
			switches++
		}
	}
	if switches >= 6 {
		t.Errorf("sticky made %d switches, no better than FIFO", switches)
	}
	if maxDisp <= 0 {
		t.Error("grouping must displace some job")
	}
}

func TestRunFIFOZeroDisplacement(t *testing.T) {
	q := jobs(5, 6, 7)
	_, maxDisp, err := Run(q, FIFO{}, set{}.has, func(Job) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if maxDisp != 0 {
		t.Errorf("FIFO displacement = %d", maxDisp)
	}
}

func TestRunPropagatesServeError(t *testing.T) {
	q := jobs(1)
	_, _, err := Run(q, FIFO{}, set{}.has,
		func(Job) error { return errTest })
	if err == nil {
		t.Error("serve error swallowed")
	}
}

// set is a resident-function set; its has method is what Next and Run
// take.
type set map[uint16]bool

func (s set) has(fn uint16) bool { return s[fn] }

type testErr string

func (e testErr) Error() string { return string(e) }

var errTest = testErr("boom")

// badPicker returns an out-of-range index.
type badPicker struct{}

func (badPicker) Name() string                             { return "bad" }
func (badPicker) Next(p []Job, r func(fn uint16) bool) int { return len(p) }

func TestRunRejectsBadPicker(t *testing.T) {
	if _, _, err := Run(jobs(1, 2), badPicker{}, set{}.has,
		func(Job) error { return nil }); err == nil {
		t.Error("bad pick accepted")
	}
}
