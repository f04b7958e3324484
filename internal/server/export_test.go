package server

import (
	"fmt"
	"sync"
	"testing"

	"agilefpga/internal/wire"
)

// SetAdmitHook installs s's admission hook (see hookAdmitted) for tests
// outside the package.
func SetAdmitHook(s *Server, hook func(*wire.Request)) { s.hookAdmitted = hook }

// WaitFor is waitFor for tests outside the package.
var WaitFor = waitFor

// ServingCount follows the serving goroutines of every front end built
// while it is installed: how many are alive now, and the most that
// were alive at once, per front end.
type ServingCount struct {
	mu         sync.Mutex
	live, peak map[*FrontEnd]int
}

// CountServingGoroutines installs a ServingCount until t ends.
func CountServingGoroutines(t *testing.T) *ServingCount {
	sc := &ServingCount{live: make(map[*FrontEnd]int), peak: make(map[*FrontEnd]int)}
	hookServing = func(fe *FrontEnd, d int) {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		sc.live[fe] += d
		sc.peak[fe] = max(sc.peak[fe], sc.live[fe])
	}
	t.Cleanup(func() { hookServing = nil })
	return sc
}

// Live reports the serving goroutines alive across every front end
// followed.
func (sc *ServingCount) Live() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for _, l := range sc.live {
		n += l
	}
	return n
}

// Check reports a front end that had more serving goroutines alive at
// once than it admits requests, or none if no front end ran any.
func (sc *ServingCount) Check() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.peak) == 0 {
		return fmt.Errorf("no serving goroutine observed")
	}
	for fe, p := range sc.peak {
		if p > cap(fe.sem) {
			return fmt.Errorf("%s front end: %d serving goroutines alive at once, MaxInflight %d", fe.name, p, cap(fe.sem))
		}
	}
	return nil
}
