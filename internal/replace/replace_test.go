package replace

import (
	"errors"
	"testing"
)

func TestNew(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "lfu", "random"} {
		p, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("Name = %q, want %q", p.Name(), name)
		}
	}
	if _, err := New("opt", 1); err == nil {
		t.Error("New(opt) should demand a trace")
	}
	if _, err := New("marvellous", 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAllPoliciesEmptyVictim(t *testing.T) {
	policies := []Policy{NewLRU(), NewFIFO(), NewLFU(), NewRandom(1), NewOPT(nil)}
	for _, p := range policies {
		if _, err := p.Victim(); !errors.Is(err, ErrNoResident) {
			t.Errorf("%s: empty Victim err = %v", p.Name(), err)
		}
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	p := NewLRU()
	p.OnInstall(1, 10)
	p.OnInstall(2, 20)
	p.OnInstall(3, 30)
	p.OnAccess(1, 40) // 1 is now freshest; 2 is oldest
	v, err := p.Victim()
	if err != nil || v != 2 {
		t.Errorf("Victim = %d, %v; want 2", v, err)
	}
	p.OnEvict(2)
	v, _ = p.Victim()
	if v != 3 {
		t.Errorf("second Victim = %d, want 3", v)
	}
}

func TestLRUIgnoresNonResidentAccess(t *testing.T) {
	p := NewLRU()
	p.OnInstall(1, 10)
	p.OnAccess(99, 50) // not resident: must not create an entry
	v, err := p.Victim()
	if err != nil || v != 1 {
		t.Errorf("Victim = %d, %v", v, err)
	}
	p.OnEvict(1)
	if _, err := p.Victim(); err == nil {
		t.Error("phantom resident after non-resident access")
	}
}

func TestLRUTieBreaksDeterministically(t *testing.T) {
	p := NewLRU()
	p.OnInstall(5, 10)
	p.OnInstall(3, 10)
	v, _ := p.Victim()
	if v != 3 {
		t.Errorf("tie Victim = %d, want lower id 3", v)
	}
}

func TestFIFOOrder(t *testing.T) {
	p := NewFIFO()
	p.OnInstall(4, 1)
	p.OnInstall(2, 2)
	p.OnInstall(9, 3)
	p.OnAccess(4, 100) // FIFO ignores recency
	v, _ := p.Victim()
	if v != 4 {
		t.Errorf("Victim = %d, want 4", v)
	}
	p.OnEvict(4)
	if v, _ := p.Victim(); v != 2 {
		t.Errorf("Victim = %d, want 2", v)
	}
	p.OnEvict(99) // evicting a non-resident is a no-op
	if v, _ := p.Victim(); v != 2 {
		t.Errorf("Victim after bogus evict = %d", v)
	}
}

func TestLFUEvictsColdest(t *testing.T) {
	p := NewLFU()
	p.OnInstall(1, 1)
	p.OnInstall(2, 2)
	p.OnAccess(1, 3)
	p.OnAccess(1, 4)
	p.OnAccess(2, 5)
	v, _ := p.Victim()
	if v != 2 {
		t.Errorf("Victim = %d, want 2 (1 access vs 2)", v)
	}
	// Frequency ties break by recency.
	p2 := NewLFU()
	p2.OnInstall(7, 1)
	p2.OnInstall(8, 2)
	p2.OnAccess(7, 10)
	p2.OnAccess(8, 20)
	v, _ = p2.Victim()
	if v != 7 {
		t.Errorf("tie Victim = %d, want 7 (older access)", v)
	}
}

func TestRandomDeterministicAndResident(t *testing.T) {
	a, b := NewRandom(7), NewRandom(7)
	for fn := uint16(1); fn <= 5; fn++ {
		a.OnInstall(fn, uint64(fn))
		b.OnInstall(fn, uint64(fn))
	}
	for i := 0; i < 20; i++ {
		va, _ := a.Victim()
		vb, _ := b.Victim()
		if va != vb {
			t.Fatal("same-seed random policies diverged")
		}
		if va < 1 || va > 5 {
			t.Fatalf("victim %d not resident", va)
		}
	}
}

func TestOPTEvictsFarthest(t *testing.T) {
	// Trace: 1 2 3 1 2 ... after serving position 0..2, fn 3 is never
	// used again and must be the victim.
	trace := []uint16{1, 2, 3, 1, 2}
	p := NewOPT(trace)
	p.OnInstall(1, 0)
	p.OnAccess(1, 0)
	p.OnInstall(2, 1)
	p.OnAccess(2, 1)
	p.OnInstall(3, 2)
	p.OnAccess(3, 2)
	v, err := p.Victim()
	if err != nil || v != 3 {
		t.Errorf("Victim = %d, %v; want 3 (never reused)", v, err)
	}
}

func TestOPTPrefersNearReuse(t *testing.T) {
	// After position 0 and 1 are consumed: next use of 1 is position 2,
	// of 2 is position 5. Evict 2.
	trace := []uint16{1, 2, 1, 1, 1, 2}
	p := NewOPT(trace)
	p.OnInstall(1, 0)
	p.OnAccess(1, 0)
	p.OnInstall(2, 1)
	p.OnAccess(2, 1)
	v, _ := p.Victim()
	if v != 2 {
		t.Errorf("Victim = %d, want 2", v)
	}
}

// simulateHits runs a toy cache of given capacity over trace and counts
// hits under the policy.
func simulateHits(p Policy, trace []uint16, capacity int) int {
	resident := make(map[uint16]bool)
	hits := 0
	for i, fn := range trace {
		now := uint64(i)
		if resident[fn] {
			hits++
		} else {
			if len(resident) >= capacity {
				v, err := p.Victim()
				if err != nil {
					panic(err)
				}
				p.OnEvict(v)
				delete(resident, v)
			}
			resident[fn] = true
			p.OnInstall(fn, now)
		}
		p.OnAccess(fn, now)
	}
	return hits
}

func zipfTrace(n int) []uint16 {
	// Deterministic skewed trace: function k appears with weight ~1/(k+1).
	var trace []uint16
	for i := 0; len(trace) < n; i++ {
		for fn := uint16(0); fn < 8; fn++ {
			reps := 8 / (int(fn) + 1)
			for r := 0; r < reps && len(trace) < n; r++ {
				trace = append(trace, fn)
			}
		}
	}
	return trace
}

func TestOPTUpperBoundsOthers(t *testing.T) {
	trace := zipfTrace(600)
	cap := 3
	optHits := simulateHits(NewOPT(trace), trace, cap)
	for _, mk := range []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewFIFO() },
		func() Policy { return NewLFU() },
		func() Policy { return NewRandom(3) },
	} {
		p := mk()
		h := simulateHits(p, trace, cap)
		if h > optHits {
			t.Errorf("%s (%d hits) beat OPT (%d) — Belady violated", p.Name(), h, optHits)
		}
	}
}

func TestLRUCyclicPathology(t *testing.T) {
	// Cycling over capacity+1 functions: LRU gets zero hits after warmup,
	// the classic pathology. Sanity-check our implementation shows it.
	var trace []uint16
	for i := 0; i < 400; i++ {
		trace = append(trace, uint16(i%4))
	}
	hits := simulateHits(NewLRU(), trace, 3)
	if hits != 0 {
		t.Errorf("LRU on cyclic trace: %d hits, want 0", hits)
	}
	// OPT does far better on the same trace.
	optHits := simulateHits(NewOPT(trace), trace, 3)
	if optHits <= 100 {
		t.Errorf("OPT on cyclic trace: %d hits, expected many", optHits)
	}
}

func TestLRUBeatsFIFOOnSkewedTrace(t *testing.T) {
	trace := zipfTrace(600)
	lru := simulateHits(NewLRU(), trace, 3)
	fifo := simulateHits(NewFIFO(), trace, 3)
	if lru < fifo {
		t.Errorf("LRU (%d) worse than FIFO (%d) on skewed trace", lru, fifo)
	}
}

func TestFreshIsEmptyAndOfTheSameKind(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewLFU(), NewRandom(5), NewOPT([]uint16{1, 2})} {
		p.OnInstall(1, 0)
		q := p.Fresh()
		if q.Name() != p.Name() {
			t.Errorf("%s: Fresh is a %s", p.Name(), q.Name())
		}
		if _, err := q.Victim(); !errors.Is(err, ErrNoResident) {
			t.Errorf("%s: Fresh shares residency (Victim err = %v)", p.Name(), err)
		}
		if v, err := p.Victim(); err != nil || v != 1 {
			t.Errorf("%s: Fresh disturbed the original (Victim = %d, %v)", p.Name(), v, err)
		}
	}
}
