package core

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
)

// coldCard is the benchmark stack's card (32×40 fabric, the whole bank in
// ROM) with every function called once, so the ROM, the tables and, when
// configured, the decode cache are warm and only the load itself is cold.
func coldCard(tb testing.TB, decodeCacheBytes int) (*CoProcessor, []uint16, []byte) {
	tb.Helper()
	cp, err := New(Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}, DecodeCacheBytes: decodeCacheBytes})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		tb.Fatal(err)
	}
	in := make([]byte, 256)
	var ids []uint16
	for _, f := range algos.Bank() {
		ids = append(ids, f.ID())
		if _, err := cp.CallID(f.ID(), in); err != nil {
			tb.Fatal(err)
		}
	}
	return cp, ids, in
}

// coldCall evicts fn and calls it: one full load — the record's plan
// replayed through the cost model, the assembler and the configuration
// port — then a 256-byte exec.
func coldCall(tb testing.TB, cp *CoProcessor, fn uint16, in []byte) {
	cp.Evict(fn)
	if _, err := cp.CallID(fn, in); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkColdLoad is the host cost of the paper's on-demand path: evict
// and call, round-robin over the 16 bank functions, with the decode cache
// off (every load decompresses) and on (reloads assemble and port-write
// cached images).
func BenchmarkColdLoad(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cache int
	}{{"dcache=off", 0}, {"dcache=on", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			cp, ids, in := coldCard(b, bc.cache)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coldCall(b, cp, ids[i%len(ids)], in)
			}
		})
	}
}

// TestColdLoadAllocs pins a cold CallID beside TestHotCallAllocs at what
// the caller keeps — the Result and the output — so a load allocates
// nothing: it replays its record's plan — decoded once at install —
// through buffers the card keeps, the record lookup reads a table
// decoded once, and the residency bookkeeping rewrites the function's
// Frame Replacement Table row (frame list and activated instance) in
// place while the Free Frame List is compacted within its boot
// capacity. Not a 5-byte CRC scratch per configuration word (3 345
// allocations before the burst path), a decoder per load, a name string
// per record scanned, nor a fresh row, instance or frame list per load.
// Every CRC scratch is owned by its caller, so the bound holds under
// -race too, with the decode cache off and on (BenchmarkColdLoad's two
// arms).
func TestColdLoadAllocs(t *testing.T) {
	const limit = 2
	for _, bc := range []struct {
		name  string
		cache int
	}{{"dcache=off", 0}, {"dcache=on", 1 << 20}} {
		t.Run(bc.name, func(t *testing.T) {
			cp, ids, in := coldCard(t, bc.cache)
			i := 0
			allocs := testing.AllocsPerRun(len(ids), func() {
				coldCall(t, cp, ids[i%len(ids)], in)
				i++
			})
			t.Logf("cold CallID: %.0f allocations", allocs)
			if allocs > limit {
				t.Errorf("cold CallID allocates %.0f times, want at most %d", allocs, limit)
			}
		})
	}
}
