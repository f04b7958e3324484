package mcu

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
)

// freeRuns counts maximal contiguous runs in the free list.
func freeRuns(c *Controller) int {
	fl := c.kernel.freeList
	if len(fl) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(fl); i++ {
		if fl[i] != fl[i-1]+1 {
			runs++
		}
	}
	return runs
}

// fragment builds a deliberately fragmented fabric: load small functions
// everywhere, then evict every other one.
func fragment(t *testing.T, c *Controller) {
	t.Helper()
	fns := []*algos.Function{algos.CRC32(), algos.GFMul(), algos.DES(), algos.FIR(), algos.SHA1()}
	for _, f := range fns {
		install(t, c, f, "rle")
		if _, _, err := c.Execute(f.ID(), make([]byte, f.BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	// Evict alternating residents to punch holes.
	for i, f := range fns {
		if i%2 == 1 {
			c.Evict(f.ID())
		}
	}
}

func TestDefragCompactsFreeSpace(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, ContiguousOnly: true})
	fragment(t, c)
	if freeRuns(c) < 2 {
		t.Skip("fabric not fragmented; scenario needs adjusting")
	}
	moved, cost, err := c.Defrag()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 || cost == 0 {
		t.Errorf("defrag moved %d at cost %v", moved, cost)
	}
	if got := freeRuns(c); got != 1 {
		t.Errorf("free space in %d runs after defrag, want 1", got)
	}
	if c.Stats().Defrags != 1 {
		t.Error("defrag not counted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every resident function still computes correctly.
	for fn := range c.kernel.table {
		for _, f := range algos.Bank() {
			if f.ID() != fn {
				continue
			}
			in := make([]byte, f.BlockBytes)
			in[0] = 9
			out, _, err := c.Execute(fn, in)
			if err != nil {
				t.Fatalf("%s after defrag: %v", f.Name(), err)
			}
			want, _ := f.Exec(in)
			if !bytes.Equal(out, want) {
				t.Errorf("%s wrong after defrag", f.Name())
			}
		}
	}
}

func TestDefragEnablesContiguousPlacement(t *testing.T) {
	// A contiguous-only device too fragmented for a big function must
	// accept it after defrag without extra evictions.
	c := newController(t, Config{Geometry: fpga.Geometry{Rows: 32, Cols: 26}, ContiguousOnly: true})
	small := []*algos.Function{algos.CRC32(), algos.GFMul(), algos.FIR()} // 2+1+5 frames
	for _, f := range small {
		install(t, c, f, "rle")
		if _, _, err := c.Execute(f.ID(), make([]byte, f.BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	install(t, c, algos.FFT(), "rle") // needs 13 contiguous frames
	// Punch a hole in the middle to fragment the 18 free frames.
	c.Evict(algos.GFMul().ID())

	if _, _, err := c.Defrag(); err != nil {
		t.Fatal(err)
	}
	evBefore := c.Stats().Evictions
	if _, _, err := c.Execute(algos.FFT().ID(), make([]byte, algos.FFT().BlockBytes)); err != nil {
		t.Fatalf("fft after defrag: %v", err)
	}
	if c.Stats().Evictions != evBefore {
		t.Errorf("fft load still needed %d evictions after defrag",
			c.Stats().Evictions-evBefore)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefragUnderDiffReloadStillCompacts(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, ContiguousOnly: true, DiffReload: true})
	fragment(t, c)
	if _, _, err := c.Defrag(); err != nil {
		t.Fatal(err)
	}
	if got := freeRuns(c); got != 1 {
		t.Errorf("diff-mode defrag left %d free runs", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefragEmptyFabric(t *testing.T) {
	c := newController(t, defaultCfg())
	moved, _, err := c.Defrag()
	if err != nil || moved != 0 {
		t.Errorf("empty defrag: moved=%d err=%v", moved, err)
	}
}
