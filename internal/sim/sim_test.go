package sim

import (
	"testing"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", uint64(Second))
	}
	if got := (3 * Millisecond).Duration(); got != 3*time.Millisecond {
		t.Errorf("Duration = %v, want 3ms", got)
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Errorf("Microseconds = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{1500 * Nanosecond, "1.500µs"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps: got %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestDomainConversion(t *testing.T) {
	// 33 MHz does not divide 1 THz; the period must round to 30303 ps.
	d := NewDomain("pci", 33_000_000)
	if got := d.Span(1); got != 30303*Picosecond {
		t.Errorf("33 MHz period = %d ps, want 30303", uint64(got))
	}
}

// TestDomainAdvance checks the cycle-to-time conversion a domain charges
// for a step of work; the name dates from when a domain also counted the
// cycles it was charged.
func TestDomainAdvance(t *testing.T) {
	d := NewDomain("cfg", 50_000_000) // 20 ns per cycle
	if got := d.Span(5); got != 100*Nanosecond {
		t.Errorf("Span(5) = %v, want 100ns", got)
	}
	if got := d.Span(0); got != 0 {
		t.Errorf("Span(0) = %v, want 0", got)
	}
}

func TestDomainPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero hz", func() { NewDomain("x", 0) })
	mustPanic("above 1 THz", func() { NewDomain("x", 2_000_000_000_000) })
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(PhasePCI, 10*Nanosecond)
	b.Add(PhaseExec, 30*Nanosecond)
	b.Add(PhasePCI, 5*Nanosecond)
	if got := b.Get(PhasePCI); got != 15*Nanosecond {
		t.Errorf("Get(PCI) = %v", got)
	}
	if got := b.Total(); got != 45*Nanosecond {
		t.Errorf("Total = %v", got)
	}
	var c Breakdown
	c.Add(PhaseExec, 1*Nanosecond)
	c.AddAll(b)
	if got := c.Get(PhaseExec); got != 31*Nanosecond {
		t.Errorf("AddAll Exec = %v", got)
	}
	// Out-of-range phases fold into overhead rather than corrupting memory.
	b.Add(Phase(99), 1*Nanosecond)
	if got := b.Get(PhaseOverhead); got != 1*Nanosecond {
		t.Errorf("out-of-range Add: overhead = %v", got)
	}
	if b.Get(Phase(-1)) != 0 {
		t.Errorf("Get(-1) should be 0")
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	if b.String() != "empty" {
		t.Errorf("empty breakdown: %q", b.String())
	}
	b.Add(PhaseExec, 2*Nanosecond)
	if b.String() != "exec=2.000ns" {
		t.Errorf("String = %q", b.String())
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseDecompress.String() != "decompress" {
		t.Errorf("PhaseDecompress = %q", PhaseDecompress.String())
	}
	if Phase(99).String() != "phase(99)" {
		t.Errorf("unknown phase = %q", Phase(99).String())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds too correlated: %d/100 equal", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestSpanMatchesAdvance(t *testing.T) {
	d := NewDomain("x", 200_000_000) // 5 ns per cycle
	if got := d.Span(7); got != 35*Nanosecond {
		t.Errorf("Span(7) = %v, want 35ns", got)
	}
}
