package mcu

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

// fabricSnapshot reads every frame of the fabric back.
func fabricSnapshot(t *testing.T, c *Controller) [][]byte {
	t.Helper()
	g := c.Fabric().Geometry()
	out := make([][]byte, g.NumFrames())
	for i := range out {
		fr, err := c.Fabric().ReadFrame(i)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		out[i] = fr
	}
	return out
}

// TestDecodeCacheHitSkipsDecompress is the acceptance test of the
// decoded-frame cache: a reload whose images are cached reports
// PhaseDecompress == 0 while leaving the fabric byte-identical to a
// full decode, and the output is still correct.
func TestDecodeCacheHitSkipsDecompress(t *testing.T) {
	cfg := defaultCfg()
	cfg.DecodeCacheBytes = 1 << 20
	c := newController(t, cfg)
	f := algos.AES128()
	install(t, c, f, "framediff")
	input := []byte("agile algorithm-on-demand coproc")
	want, _ := f.Exec(input)

	// Cold load: full decompression, and the images land in the cache.
	out, br, err := c.Execute(f.ID(), input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("cold output wrong")
	}
	if br.Get(sim.PhaseDecompress) == 0 {
		t.Fatal("cold load paid no decompression — test is vacuous")
	}
	if entries := len(c.dcache.entries); entries != 1 {
		t.Fatalf("cache entries = %d after cold load", entries)
	}
	coldStats := c.Stats()
	if coldStats.DecompCacheHits != 0 {
		t.Fatalf("cold load counted %d cache hits", coldStats.DecompCacheHits)
	}
	reference := fabricSnapshot(t, c)

	// Evict and reload: the decode must come from the cache.
	if !c.Evict(f.ID()) {
		t.Fatal("evict failed")
	}
	out, br, err = c.Execute(f.ID(), input)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("cached reload output wrong")
	}
	if got := br.Get(sim.PhaseDecompress); got != 0 {
		t.Errorf("cached reload paid PhaseDecompress = %v, want 0", got)
	}
	if br.Get(sim.PhaseCache) == 0 {
		t.Error("cached reload charged no PhaseCache time")
	}
	if br.Get(sim.PhaseConfigure) == 0 {
		t.Error("cached reload must still pay the configuration port")
	}
	st := c.Stats()
	if st.DecompCacheHits != 1 {
		t.Errorf("DecompCacheHits = %d, want 1", st.DecompCacheHits)
	}
	if st.DecompCacheBytes == 0 {
		t.Error("DecompCacheBytes = 0 after a hit")
	}
	got := fabricSnapshot(t, c)
	for i := range reference {
		if !bytes.Equal(reference[i], got[i]) {
			t.Fatalf("frame %d differs between full decode and cache hit", i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestDecodeCacheDisabledByDefault: without DecodeCacheBytes a reload
// pays decompression every time.
func TestDecodeCacheDisabledByDefault(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.CRC32()
	install(t, c, f, "framediff")
	in := []byte{1, 2, 3, 4}
	if _, _, err := c.Execute(f.ID(), in); err != nil {
		t.Fatal(err)
	}
	c.Evict(f.ID())
	_, br, err := c.Execute(f.ID(), in)
	if err != nil {
		t.Fatal(err)
	}
	if br.Get(sim.PhaseDecompress) == 0 {
		t.Error("reload skipped decompression with the cache disabled")
	}
	if st := c.Stats(); st.DecompCacheHits != 0 {
		t.Errorf("DecompCacheHits = %d with cache disabled", st.DecompCacheHits)
	}
}

// TestDecodeCacheEvictsAtByteBound bounds the cache below two functions'
// decoded footprints: caching the second must evict the first (LRU), and
// an over-bound image set is never stored.
func TestDecodeCacheEvictsAtByteBound(t *testing.T) {
	g := fpga.DefaultGeometry
	a, b := algos.AES128(), algos.SHA256()
	aBytes := g.FramesForLUTs(a.LUTs) * g.FrameBytes()
	bBytes := g.FramesForLUTs(b.LUTs) * g.FrameBytes()

	cfg := defaultCfg()
	// Room for the larger of the two, not both.
	bound := aBytes
	if bBytes > bound {
		bound = bBytes
	}
	cfg.DecodeCacheBytes = bound
	c := newController(t, cfg)
	install(t, c, a, "framediff")
	install(t, c, b, "framediff")

	inA := []byte("agile algorithm-on-demand coproc")
	inB := []byte("0123456789abcdef0123456789abcdef")
	if _, _, err := c.Execute(a.ID(), inA); err != nil {
		t.Fatal(err)
	}
	if entries, bytes := len(c.dcache.entries), c.dcache.bytes; entries != 1 || bytes != aBytes {
		t.Fatalf("after A: entries=%d bytes=%d, want 1/%d", entries, bytes, aBytes)
	}
	if _, _, err := c.Execute(b.ID(), inB); err != nil {
		t.Fatal(err)
	}
	entries, cached := len(c.dcache.entries), c.dcache.bytes
	if cached > cfg.DecodeCacheBytes {
		t.Fatalf("cache holds %d bytes, bound %d", cached, cfg.DecodeCacheBytes)
	}
	if entries != 1 || cached != bBytes {
		t.Fatalf("after B: entries=%d bytes=%d, want 1/%d (A evicted)", entries, cached, bBytes)
	}
	// A's reload is a cache miss (it was evicted), B's is a hit.
	c.Evict(a.ID())
	c.Evict(b.ID())
	if _, _, err := c.Execute(a.ID(), inA); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DecompCacheHits != 0 {
		t.Fatalf("A reload hit a cache that should have evicted it")
	}
	if _, _, err := c.Execute(b.ID(), inB); err != nil {
		t.Fatal(err)
	}
	// A's reload re-cached A, evicting B — so B's reload misses too.
	st = c.Stats()
	if st.DecompCacheHits != 0 {
		t.Fatalf("B survived an eviction it should not have")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestDecodeCacheLRUOrder exercises the raw LRU structure: recency
// refresh on get, eviction order, byte accounting, over-bound rejects.
func TestDecodeCacheLRUOrder(t *testing.T) {
	d := newDecodeCache(100)
	d.put(makeDCKey(1, 1), 40)
	d.put(makeDCKey(2, 1), 40)
	if len(d.entries) != 2 || d.bytes != 80 {
		t.Fatalf("len=%d bytes=%d", len(d.entries), d.bytes)
	}
	// Refresh key 1; inserting 40 more must evict key 2, not key 1.
	if !d.get(makeDCKey(1, 1)) {
		t.Fatal("key 1 missing")
	}
	d.put(makeDCKey(3, 1), 40)
	if d.get(makeDCKey(2, 1)) {
		t.Error("LRU kept the stale entry")
	}
	if !d.get(makeDCKey(1, 1)) {
		t.Error("LRU evicted the freshly used entry")
	}
	if d.bytes > 100 {
		t.Errorf("bytes=%d over bound", d.bytes)
	}
	// An entry larger than the whole cache is rejected outright.
	d.put(makeDCKey(4, 1), 101)
	if d.get(makeDCKey(4, 1)) {
		t.Error("over-bound entry cached")
	}
	// Replacing a key frees its old bytes.
	d.put(makeDCKey(1, 1), 10)
	if len(d.entries) != 2 || d.bytes != 10+40 {
		t.Errorf("len=%d bytes=%d after replacing key 1, want 2/50", len(d.entries), d.bytes)
	}
	// Distinct serials of one function are distinct entries.
	d.put(makeDCKey(5, 1), 10)
	d.put(makeDCKey(5, 2), 10)
	if !d.get(makeDCKey(5, 1)) {
		t.Error("serial 1 clobbered by serial 2")
	}
}

// TestDecodeCacheManySerials hammers insert/evict cycles to shake the
// intrusive list bookkeeping.
func TestDecodeCacheManySerials(t *testing.T) {
	d := newDecodeCache(256)
	for i := 0; i < 1000; i++ {
		d.put(makeDCKey(uint16(i%7), uint16(i)), 64)
		if d.bytes > 256 {
			t.Fatalf("iteration %d: bytes=%d over bound", i, d.bytes)
		}
		if len(d.entries) > 4 {
			t.Fatalf("iteration %d: %d entries exceed 256/64", i, len(d.entries))
		}
	}
	if len(d.entries) != 4 {
		t.Fatalf("final len=%d", len(d.entries))
	}
	// Everything still reachable must be the most recent four.
	found := 0
	for i := 996; i < 1000; i++ {
		if d.get(makeDCKey(uint16(i%7), uint16(i))) {
			found++
		}
	}
	if found != 4 {
		t.Errorf("found %d of the 4 newest entries", found)
	}
}
