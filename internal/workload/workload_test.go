package workload

import (
	"testing"
)

var cat = []uint16{1, 2, 3, 4, 5, 6, 7, 8}

func TestNew(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, cat, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("Name = %q, want %q", g.Name(), name)
		}
	}
	if _, err := New("burst", cat, 1); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := New("uniform", nil, 1); err == nil {
		t.Error("empty catalogue accepted")
	}
}

func TestAllGeneratorsStayInCatalogue(t *testing.T) {
	valid := map[uint16]bool{}
	for _, fn := range cat {
		valid[fn] = true
	}
	for _, name := range Names() {
		g, _ := New(name, cat, 7)
		for i := 0; i < 2000; i++ {
			if fn := g.Next(); !valid[fn] {
				t.Fatalf("%s: emitted %d outside catalogue", name, fn)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		a, _ := New(name, cat, 42)
		b, _ := New(name, cat, 42)
		for i := 0; i < 500; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%s: same-seed streams diverged", name)
			}
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	g, _ := NewUniform(cat, 3)
	counts := map[uint16]int{}
	n := 16000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	want := n / len(cat)
	for _, fn := range cat {
		if c := counts[fn]; c < want/2 || c > want*2 {
			t.Errorf("fn %d: count %d, expected ≈%d", fn, c, want)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g, err := NewZipf(cat, 1.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint16]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next()]++
	}
	// Rank 0 must dominate rank 7 by a wide margin.
	if counts[cat[0]] < 4*counts[cat[7]] {
		t.Errorf("insufficient skew: hot %d vs cold %d", counts[cat[0]], counts[cat[7]])
	}
	// Monotone-ish decrease across well-separated ranks.
	if counts[cat[0]] < counts[cat[4]] {
		t.Errorf("rank 0 (%d) colder than rank 4 (%d)", counts[cat[0]], counts[cat[4]])
	}
	if _, err := NewZipf(cat, 0, 1); err == nil {
		t.Error("zero skew accepted")
	}
}

func TestPhasedRotatesWorkingSet(t *testing.T) {
	g, err := NewPhased(cat, 2, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 0 draws only from {cat[0], cat[1]}.
	for i := 0; i < 10; i++ {
		fn := g.Next()
		if fn != cat[0] && fn != cat[1] {
			t.Fatalf("phase 0 emitted %d", fn)
		}
	}
	// Phase 1 draws only from {cat[2], cat[3]}.
	for i := 0; i < 10; i++ {
		fn := g.Next()
		if fn != cat[2] && fn != cat[3] {
			t.Fatalf("phase 1 emitted %d", fn)
		}
	}
	if _, err := NewPhased(cat, 0, 10, 1); err == nil {
		t.Error("zero working set accepted")
	}
	if _, err := NewPhased(cat, 99, 10, 1); err == nil {
		t.Error("oversized working set accepted")
	}
	if _, err := NewPhased(cat, 2, 0, 1); err == nil {
		t.Error("zero phase length accepted")
	}
}

func TestCyclicRoundRobin(t *testing.T) {
	g, _ := NewCyclic([]uint16{5, 6, 7})
	want := []uint16{5, 6, 7, 5, 6, 7, 5}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("position %d: got %d, want %d", i, got, w)
		}
	}
}

func TestMarkovStickinessExtremes(t *testing.T) {
	// stick=1: pure successor ring (cyclic shifted by one).
	g, err := NewMarkov(cat, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := g.Next()
	for i := 0; i < 50; i++ {
		next := g.Next()
		wantIdx := -1
		for j, fn := range cat {
			if fn == prev {
				wantIdx = (j + 1) % len(cat)
			}
		}
		if next != cat[wantIdx] {
			t.Fatalf("stick=1 broke the ring at step %d", i)
		}
		prev = next
	}
	// stick=0: roughly uniform.
	g0, _ := NewMarkov(cat, 0, 5)
	counts := map[uint16]int{}
	for i := 0; i < 8000; i++ {
		counts[g0.Next()]++
	}
	for _, fn := range cat {
		if c := counts[fn]; c < 500 || c > 1500 {
			t.Errorf("stick=0 fn %d count %d, expected ≈1000", fn, c)
		}
	}
	// Middling stickiness: successor transitions dominate.
	gm, _ := NewMarkov(cat, 0.8, 5)
	prev = gm.Next()
	succ := 0
	n := 4000
	for i := 0; i < n; i++ {
		next := gm.Next()
		for j, fn := range cat {
			if fn == prev && next == cat[(j+1)%len(cat)] {
				succ++
			}
		}
		prev = next
	}
	if frac := float64(succ) / float64(n); frac < 0.7 || frac > 0.95 {
		t.Errorf("stick=0.8 successor fraction %.2f", frac)
	}
	if _, err := NewMarkov(cat, 1.5, 1); err == nil {
		t.Error("out-of-range stickiness accepted")
	}
	if _, err := NewMarkov(nil, 0.5, 1); err == nil {
		t.Error("empty catalogue accepted")
	}
}

func TestCollect(t *testing.T) {
	g, _ := NewCyclic([]uint16{1, 2})
	got := Collect(g, 5)
	want := []uint16{1, 2, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Collect = %v", got)
		}
	}
}

func TestPowfAgainstKnownValues(t *testing.T) {
	cases := []struct {
		x, y, want float64
	}{
		{2, 2, 4}, {2, 0.5, 1.41421356}, {3, 1.1, 3.34838},
		{10, 1, 10}, {5, 0, 1},
	}
	for _, c := range cases {
		got := powf(c.x, c.y)
		if diff := got - c.want; diff > 0.001 || diff < -0.001 {
			t.Errorf("powf(%v, %v) = %v, want ≈%v", c.x, c.y, got, c.want)
		}
	}
}
