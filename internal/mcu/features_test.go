package mcu

// Tests for the difference-based reconfiguration flow and the
// configuration prefetcher.

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

func TestDiffReloadSkipsIdenticalFrames(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, DiffReload: true})
	f := algos.DES()
	install(t, c, f, "framediff")
	in := []byte("8bytes!!")

	// Cold load: everything written.
	if _, _, err := c.Execute(f.ID(), in); err != nil {
		t.Fatal(err)
	}
	loaded := c.Stats().FramesLoaded
	if loaded == 0 {
		t.Fatal("cold load wrote nothing")
	}

	// Lazy-evict and reload: the bits are still in the frames and
	// provably untouched, so the load skips the configuration pipeline.
	if !c.Evict(f.ID()) {
		t.Fatal("evict failed")
	}
	out, br, err := c.Execute(f.ID(), in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Exec(in)
	if !bytes.Equal(out, want) {
		t.Error("diff reload corrupted the function")
	}
	st := c.Stats()
	if st.FramesSkipped != loaded {
		t.Errorf("skipped %d frames, want %d", st.FramesSkipped, loaded)
	}
	if st.FramesLoaded != loaded {
		t.Errorf("reload wrote %d extra frames", st.FramesLoaded-loaded)
	}
	// The revived load pays bookkeeping only: no port session, no
	// decompression, no ROM blob read beyond the record scan.
	if br.Get(sim.PhaseConfigure) != 0 || br.Get(sim.PhaseDecompress) != 0 {
		t.Errorf("fast path paid configuration costs: %v", br)
	}
	if br.Get(sim.PhaseOverhead) == 0 {
		t.Error("fast path charged no bookkeeping")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDiffReloadCheaperThanFullReload(t *testing.T) {
	run := func(diff bool) sim.Time {
		c := newController(t, Config{Geometry: fpga.DefaultGeometry, DiffReload: diff})
		f := algos.Bitonic() // 15 frames: the win is visible
		install(t, c, f, "none")
		in := make([]byte, f.BlockBytes)
		in[0] = 1
		if _, _, err := c.Execute(f.ID(), in); err != nil {
			t.Fatal(err)
		}
		c.Evict(f.ID())
		_, br, err := c.Execute(f.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		return br.Get(sim.PhaseConfigure) + br.Get(sim.PhaseDecompress)
	}
	full := run(false)
	diffed := run(true)
	if diffed >= full {
		t.Errorf("diff reload (%v) not cheaper than full reload (%v)", diffed, full)
	}
}

func TestDiffReloadAfterClobberWritesOnlyDirtyFrames(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, DiffReload: true})
	f := algos.FIR() // 5 frames
	install(t, c, f, "rle")
	in := make([]byte, 64)
	if _, _, err := c.Execute(f.ID(), in); err != nil {
		t.Fatal(err)
	}
	cold := c.Stats().FramesLoaded
	c.Evict(f.ID())

	// Corrupt one of the lazily evicted frames.
	var dirty int = -1
	for i := 0; i < c.Fabric().Geometry().NumFrames(); i++ {
		if sig, ok := c.Fabric().FrameSignature(i); ok && sig.FnID == f.ID() {
			if err := c.Fabric().ClearFrame(i); err != nil {
				t.Fatal(err)
			}
			dirty = i
			break
		}
	}
	if dirty < 0 {
		t.Fatal("no lazily evicted frame found")
	}

	// Reload. The clobber bumped the frame's write generation, so the
	// stale entry fails verification and the load takes the full
	// pipeline — correctness before cleverness.
	out, _, err := c.Execute(f.ID(), in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Exec(padTo(in, int(f.InBus)))
	if !bytes.Equal(out, want) {
		t.Error("wrong output after partial clobber reload")
	}
	if c.Stats().FramesLoaded <= cold {
		t.Error("nothing written for the dirty frame")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPrefetcherLearnsAlternation(t *testing.T) {
	// Device fits one big function at a time; requests alternate A B A B.
	// Without prefetching every request misses; with it, once the
	// successor table is warm, every request hits.
	mk := func(prefetch bool) *Controller {
		c := newController(t, Config{
			Geometry: fpga.Geometry{Rows: 32, Cols: 16}, Prefetch: prefetch,
		})
		install(t, c, algos.FFT(), "framediff")    // 13 frames
		install(t, c, algos.MatMul(), "framediff") // 11 frames
		return c
	}
	seq := []uint16{algos.IDFFT, algos.IDMatMul, algos.IDFFT, algos.IDMatMul,
		algos.IDFFT, algos.IDMatMul, algos.IDFFT, algos.IDMatMul}
	in := make([]byte, 512)

	base := mk(false)
	for _, fn := range seq {
		if _, _, err := base.Execute(fn, in); err != nil {
			t.Fatal(err)
		}
	}
	if base.Stats().Hits != 0 {
		t.Fatalf("baseline hits = %d, want 0", base.Stats().Hits)
	}

	pf := mk(true)
	for _, fn := range seq {
		if _, _, err := pf.Execute(fn, in); err != nil {
			t.Fatal(err)
		}
		if err := pf.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	st := pf.Stats()
	// The successor table knows A→B after request 2 and B→A after
	// request 3; requests 4..8 should hit via prefetch.
	if st.PrefetchHits < 4 {
		t.Errorf("prefetch hits = %d, want >= 4 (stats %+v)", st.PrefetchHits, st)
	}
	if st.Prefetches == 0 || st.PrefetchTime == 0 {
		t.Error("prefetch cost not accounted")
	}
	// Prefetch time must not appear in request latency: request phases
	// cover only demand work.
	if st.Phases.Total() >= base.Stats().Phases.Total() {
		t.Errorf("prefetching did not reduce on-request time: %v vs %v",
			st.Phases.Total(), base.Stats().Phases.Total())
	}
}

func TestPrefetcherHarmlessOnRepeats(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, Prefetch: true})
	f := algos.CRC32()
	install(t, c, f, "rle")
	for i := 0; i < 5; i++ {
		if _, _, err := c.Execute(f.ID(), []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Hits != 4 {
		t.Errorf("hits = %d", st.Hits)
	}
	if st.Prefetches != 0 {
		t.Errorf("self-succession triggered %d prefetches", st.Prefetches)
	}
}

func TestPrefetcherSurvivesCapacityPressure(t *testing.T) {
	// Prediction of a function too large to co-reside must not wedge the
	// mini OS: the prefetch load evicts via policy like any load, and
	// invariants hold throughout.
	c := newController(t, Config{
		Geometry: fpga.Geometry{Rows: 32, Cols: 20}, Prefetch: true,
	})
	install(t, c, algos.Bitonic(), "framediff") // 15 frames
	install(t, c, algos.FFT(), "framediff")     // 13 frames
	install(t, c, algos.CRC32(), "framediff")   // 2 frames
	in := make([]byte, 1024)
	seq := []uint16{algos.IDBitonic, algos.IDFFT, algos.IDCRC32, algos.IDBitonic, algos.IDFFT, algos.IDCRC32}
	for _, fn := range seq {
		if _, _, err := c.Execute(fn, in); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiffAndPrefetchCompose(t *testing.T) {
	c := newController(t, Config{
		Geometry:   fpga.Geometry{Rows: 32, Cols: 16},
		DiffReload: true, Prefetch: true,
	})
	install(t, c, algos.FFT(), "framediff")
	install(t, c, algos.MatMul(), "framediff")
	in := make([]byte, 512)
	for i := 0; i < 10; i++ {
		fn := algos.IDFFT
		if i%2 == 1 {
			fn = algos.IDMatMul
		}
		if _, _, err := c.Execute(fn, in); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.PrefetchHits == 0 {
		t.Error("no prefetch hits")
	}
	// On a device this tight, evicted frames are always reused before
	// the function returns, so revival never fires — the stale
	// bookkeeping must simply never corrupt anything (checked above via
	// invariants). The revival win itself is covered by
	// TestDiffReloadSkipsIdenticalFrames on a roomier device.
}

// TestDiffReloadAllocs: once warm, the difference flow's bookkeeping
// allocates nothing. An eviction records its frames' generations in
// the function's own row, a revival checks them and takes the frames
// off the free list in place, and a reload whose bits were overwritten
// falls back to the full load, which reuses the row as well.
func TestDiffReloadAllocs(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, DiffReload: true})
	f := algos.DES()
	install(t, c, f, "rle")
	in := []byte("8bytes!!")
	exec := func() {
		if _, _, err := c.Execute(f.ID(), in); err != nil {
			t.Fatal(err)
		}
	}
	evict := func() {
		if !c.Evict(f.ID()) {
			t.Fatal("des was not resident")
		}
	}
	// Evict, then revive: the frames are untouched.
	revive := func() {
		evict()
		exec()
	}
	// Evict, overwrite one of the frames, then reload: the stale record
	// fails its generation check.
	reload := func() {
		evict()
		if err := c.Fabric().ClearFrame(c.kernel.rows[f.ID()].frames[0]); err != nil {
			t.Fatal(err)
		}
		exec()
	}
	exec()
	for i := 0; i < 3; i++ { // warm the row and its lists
		revive()
		reload()
	}
	skipped, loaded := c.Stats().FramesSkipped, c.Stats().FramesLoaded
	if got := testing.AllocsPerRun(50, revive); got != 0 {
		t.Errorf("evict + revive allocates %.1f times, want 0", got)
	}
	if c.Stats().FramesSkipped == skipped || c.Stats().FramesLoaded != loaded {
		t.Fatal("the evict + revive cycle did not revive in place")
	}
	skipped = c.Stats().FramesSkipped
	if got := testing.AllocsPerRun(50, reload); got != 0 {
		t.Errorf("evict + reload allocates %.1f times, want 0", got)
	}
	if c.Stats().FramesSkipped != skipped || c.Stats().FramesLoaded == loaded {
		t.Fatal("the evict + reload cycle revived instead of reloading")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
